"""Per-layer diff of two traced benchmark results, parent against change.

Usage::

    python3 perfbench/run.py --workload full_warm --seed 1 --seconds 10 \\
        --trace 1 > parent/full_warm.json     # on the parent commit
    python3 perfbench/run.py --workload full_warm --seed 1 --seconds 10 \\
        --trace 1 > change/full_warm.json     # on the change
    python3 perfbench/layerdiff.py parent change

Each directory holds one ``<workload>.json`` per workload: the standard
output of a ``--trace 1`` run, whose last line is the result object.
For every workload present in both, it prints each layer's ``calls``,
``self_s`` and ``self_instructions`` on both sides and their differences,
largest instruction moves first.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import LAYERS


def load(path: Path) -> dict[str, float]:
    last = path.read_text().strip().splitlines()[-1]
    return {k: v["value"] for k, v in json.loads(last)["metrics"].items()}


def diff(parent: dict[str, float], change: dict[str, float]) -> list[str]:
    rows = []
    for layer in LAYERS:
        calls, secs, instr = (
            (parent[f"{layer}.{k}"], change[f"{layer}.{k}"])
            for k in ("calls", "self_s", "self_instructions")
        )
        rows.append((layer, calls, secs, instr))
    # Instruction counts are steady where times are not: rank by them.
    rows.sort(key=lambda r: -abs(r[3][1] - r[3][0]))
    lines = [
        f"  {'layer':<18} {'calls':>15} {'Δcalls':>7} {'self_s':>15} "
        f"{'Δself_s':>8} {'Δself Minstr':>13}"
    ]
    for layer, (p_n, c_n), (p_s, c_s), (p_i, c_i) in rows:
        lines.append(
            f"  {layer:<18} {p_n:>7.0f}→{c_n:<7.0f} {c_n - p_n:>+7.0f} "
            f"{p_s:>7.3f}→{c_s:<7.3f} {c_s - p_s:>+8.3f} {(c_i - p_i) / 1e6:>+13.1f}"
        )
    overhead = "trace.overhead_s"
    if overhead in parent and overhead in change:
        lines.append(
            f"  tracing overhead: {parent[overhead]:.3f} s → {change[overhead]:.3f} s"
        )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent_dir, change_dir = (Path(a) for a in argv)
    workloads = sorted(
        p.stem for p in parent_dir.glob("*.json") if (change_dir / p.name).is_file()
    )
    if not workloads:
        print("no workload result present on both sides", file=sys.stderr)
        return 1
    for name in workloads:
        print(f"{name}:")
        print("\n".join(diff(load(parent_dir / f"{name}.json"),
                             load(change_dir / f"{name}.json"))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
