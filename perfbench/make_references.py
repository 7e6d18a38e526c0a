"""Record the gate's reference digests from the plain serial path.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/make_references.py

Runs all 13 figures at full resolution through ``run_suite`` with no
engine (the default path of ``repro suite --full``), then once more per
``full_resim`` variant through ``run_benchmark(sim=...)``, and writes
one CSV digest per figure to ``references.json``.  It refuses to record
a set in which any paper claim fails.  Takes about a minute per set.
"""

from __future__ import annotations

import json
import sys

from gate import REFERENCES, csv_digest
from workloads import VARIANTS, figures


def digests(results) -> dict[str, str]:
    from repro.reporting import check_expectations

    failed = [o for o in check_expectations(results) if not o.passed]
    if failed:
        raise SystemExit(
            "refusing to record references; failed claims: "
            + "; ".join(o.expectation.claim for o in failed)
        )
    return {
        name: csv_digest(results[name].to_csv().encode())
        for name in sorted(results)
    }


def main() -> int:
    from repro.sim.config import SimConfig
    from repro.suite.runner import run_benchmark, run_suite

    names = figures()
    refs = {
        "source": "plain serial path (run_suite, no engine), full resolution",
        "default": digests(run_suite(figures=names, fast=False)),
        "variants": {},
    }
    for name, fields in sorted(VARIANTS.items()):
        sim = SimConfig(**fields)
        results = {f: run_benchmark(f, fast=False, sim=sim) for f in names}
        refs["variants"][name] = digests(results)
        print(f"recorded variant {name}", file=sys.stderr)
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
