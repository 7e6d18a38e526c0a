"""Repository benchmark: the full-resolution suite, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload full_cold --seed 1 --seconds 10 --trace 0

Workloads are described in ``workloads.py``.  Each iteration is a fresh
interpreter (``child.py``) with its own temporary cache and output
directories under ``.bench_build/perfbench/``; nothing under
``results/`` or ``benchmarks/results/`` is touched.  ``full_warm`` and
``full_resim`` start every iteration from a copy of one pristine store,
filled once per source tree by a default-config engine run and kept
under ``.bench_build/perfbench/``.

The seed sets the figure order (all workloads) and the ``SimConfig``
variant (``full_resim``).  Iterations repeat until ``--seconds`` of
measured process time has passed (at least one).  Every iteration's
outputs go through the correctness gate (``gate.py``) after its process
has exited.

``--trace 0`` reports the end-to-end metrics, measured without any
tracing.  ``--trace 1`` alternates an untraced and a traced iteration
and reports the per-layer metrics of ``tracer.py`` (medians over traced
iterations) plus ``trace.overhead_s``, the traced minus the untraced
median wall time.  A traced iteration whose wrapper counts do not
reconcile with the program's own counts fails the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from gate import GateResult, check, load_references
from instructions import InstructionCounter
from workloads import VARIANTS, WORKLOADS, Workload, figure_order, figures, variant_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"
CHILD = HERE / "child.py"

#: setup-only processes started per run; their median is ``setup_s``
#: together with the set-up time of every untraced iteration.
SETUP_PROBES = 5
#: a child that runs longer than this is killed and fails the run.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program output failure)."""


@dataclass
class ChildRun:
    wall_s: float
    setup_s: float
    rss_mib: float
    instructions: int | None
    report: dict


@dataclass
class Sample:
    """One measured iteration and its checked outputs."""

    run: ChildRun
    bytes_written: int
    files_written: int
    gate: GateResult


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(
    spec: dict, workdir: Path, counter: InstructionCounter | None = None
) -> ChildRun:
    """Run one child process to completion and measure it."""
    spec = dict(spec, report=str(workdir / "report.json"))
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(workdir / "stderr.txt", "wb") as stderr:
        retired = counter.read() if counter else 0
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spec_path)],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=stderr,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
        retired = counter.read() - retired if counter else None
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (workdir / "stderr.txt").read_text(errors="replace")[-3000:]
        raise BenchError(f"child exited with {proc.returncode}:\n{tail}")
    report = json.loads((workdir / "report.json").read_text())
    return ChildRun(
        wall_s=end - start,
        setup_s=report["setup_end"] - start,
        rss_mib=usage.ru_maxrss / 1024,
        instructions=retired,
        report=report,
    )


def file_state(*roots: Path) -> dict[Path, tuple[int, int]]:
    """(size, mtime) of every file under ``roots``."""
    state = {}
    for root in roots:
        for path in root.rglob("*"):
            if path.is_file():
                info = path.stat()
                state[path] = (info.st_size, info.st_mtime_ns)
    return state


def written(before: dict, after: dict) -> tuple[int, int]:
    """(bytes, files) of files new or changed between two states."""
    changed = [k for k, v in after.items() if before.get(k) != v]
    return sum(after[k][0] for k in changed), len(changed)


def source_key() -> str:
    """Hash of the program source and of the code that fills the store."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [CHILD, HERE / "workloads.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def base_spec(figures: list[str]) -> dict:
    return {
        "setup_only": False,
        "trace": False,
        "figures": figures,
        "variant": None,
        "fast": False,
        "cache_dir": None,
    }


def ensure_pristine() -> Path:
    """The default-config store of this source tree, filled on first use."""
    target = STATE / f"pristine-{source_key()}"
    if target.is_dir():
        return target
    work = Path(tempfile.mkdtemp(prefix="fill-", dir=STATE))
    try:
        (work / "out").mkdir()
        spec = base_spec(figures())
        spec.update(cache_dir=str(work / "cache"), out_dir=str(work / "out"))
        run_child(spec, work)
        gate = check(work / "out", figures(), load_references())
        if gate.failed:
            raise BenchError(
                f"store fill produced wrong outputs: {gate.mismatched} "
                f"{gate.claims_failed}"
            )
        os.rename(work / "cache", target)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return target


class Bench:
    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.figures = figure_order(seed)
        self.variant = variant_name(seed) if workload.resim else None
        self.references = load_references(self.variant)
        self.pristine = ensure_pristine() if workload.pristine else None
        self.counter = InstructionCounter()

    def spec(self, work: Path) -> dict:
        spec = base_spec(self.figures)
        spec["out_dir"] = str(work / "out")
        if self.workload.engine:
            spec["cache_dir"] = str(work / "cache")
        if self.variant is not None:
            spec["variant"] = VARIANTS[self.variant]
        return spec

    def probe(self) -> float:
        """Set-up time of one process that stops before the first figure."""
        work = Path(tempfile.mkdtemp(prefix="probe-", dir=STATE))
        try:
            spec = self.spec(work)
            spec["setup_only"] = True
            return run_child(spec, work).setup_s
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def iteration(self, trace: bool) -> Sample:
        work = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
        try:
            (work / "out").mkdir()
            if self.pristine is not None:
                shutil.copytree(self.pristine, work / "cache")
            elif self.workload.engine:
                (work / "cache").mkdir()
            outputs = (work / "out", work / "cache")
            before = file_state(*outputs)
            spec = self.spec(work)
            spec["trace"] = trace
            run = run_child(spec, work, self.counter)
            bytes_written, files_written = written(before, file_state(*outputs))
            if trace and run.report["mismatches"]:
                raise BenchError(
                    "trace does not reconcile with the program's counts:\n  "
                    + "\n  ".join(run.report["mismatches"])
                )
            if not run.instructions:
                raise BenchError("the instruction counter read 0")
            gate = check(work / "out", self.figures, self.references)
            return Sample(run, bytes_written, files_written, gate)
        finally:
            shutil.rmtree(work, ignore_errors=True)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples: list[Sample], setups: list[float]) -> dict:
    med = statistics.median
    return {
        "instructions": metric(med(s.run.instructions for s in samples), "count"),
        "setup_s": metric(med(setups), "s"),
        "peak_rss_mib": metric(med(s.run.rss_mib for s in samples), "MiB"),
        "disk_bytes_written": metric(med(s.bytes_written for s in samples), "bytes"),
        "disk_files_written": metric(med(s.files_written for s in samples), "count"),
    }


def per_layer(untraced: list[Sample], traced: list[Sample]) -> dict:
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    values: dict[str, list[float]] = {}
    for sample in traced:
        for name, value in sample.run.report["trace"].items():
            values.setdefault(name, []).append(value)
    med = statistics.median
    values["trace.overhead_s"] = [
        med(s.run.wall_s for s in traced) - med(s.run.wall_s for s in untraced)
    ]
    values["trace.overhead_instructions"] = [
        med(s.run.instructions for s in traced)
        - med(s.run.instructions for s in untraced)
    ]
    missing = [e["name"] for e in units if e["name"] not in values]
    if missing:
        raise BenchError(f"per-layer metrics not measured: {missing}")
    return {e["name"]: metric(med(values[e["name"]]), e["unit"]) for e in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    STATE.mkdir(parents=True, exist_ok=True)
    # Compile bytecode up front so no measured process pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        check=True, stdout=subprocess.DEVNULL,
    )

    bench = Bench(WORKLOADS[args.workload], args.seed)
    print(
        f"workload={args.workload} seed={args.seed} "
        f"order={','.join(bench.figures)} variant={bench.variant or 'default'}"
    )
    setups = [] if args.trace else [bench.probe() for _ in range(SETUP_PROBES)]
    untraced: list[Sample] = []
    traced: list[Sample] = []
    measured = 0.0
    while not untraced or measured < args.seconds:
        untraced.append(bench.iteration(trace=False))
        measured += untraced[-1].run.wall_s
        if args.trace:
            traced.append(bench.iteration(trace=True))
            measured += traced[-1].run.wall_s
    setups += [s.run.setup_s for s in untraced]

    samples = untraced + traced
    mismatched = max(len(s.gate.mismatched) for s in samples)
    claims_failed = max(len(s.gate.claims_failed) for s in samples)
    wall = statistics.median(s.run.wall_s for s in untraced)
    points = statistics.median(
        s.gate.points / (s.run.wall_s - s.run.setup_s) for s in untraced
    )
    print(
        f"iterations={len(untraced)}+{len(traced)} traced "
        f"walls={[round(s.run.wall_s, 3) for s in samples]} "
        f"wall_s={wall:.3f} points_per_s={points:.1f} "
        f"figures_mismatched={mismatched}/{samples[0].gate.figures} "
        f"claims_failed={claims_failed}/{samples[0].gate.claims}"
    )
    for s in samples:
        for detail in s.gate.mismatched + s.gate.claims_failed:
            print(f"FAILED: {detail}", file=sys.stderr)
    attempted = sum(s.gate.attempted for s in samples)
    failed = sum(s.gate.failed for s in samples)
    bench.counter.close()
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setups)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
