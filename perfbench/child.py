"""One workload iteration, run in a fresh interpreter by ``run.py``.

Usage: ``python child.py SPEC.json`` with ``src`` on ``PYTHONPATH``.

A fresh process per iteration matters: the program keeps process-wide
memos (the verify memo, interned registers, cached IL text), so a second
in-process run would measure a different program.

The spec names the figures in order, the cache directory (``null`` for
the plain serial path), an optional ``SimConfig`` variant, and where to
write outputs.  The child writes ``<figure>.json`` and ``<figure>.csv``
per figure into the output directory -- the files ``repro suite --out``
and ``repro figure --out`` write -- and a report with the monotonic time
at which set-up ended.  Correctness is checked by the parent, after the
process has exited.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())

    from repro import telemetry
    from repro.jobs import JobEngine, JobOptions
    from repro.sim.config import SimConfig
    from repro.suite import runner

    engine = None
    if spec["cache_dir"] is not None:
        engine = JobEngine(JobOptions(jobs=0, cache_dir=spec["cache_dir"]))
    report: dict = {"setup_end": time.monotonic()}
    if spec["setup_only"]:
        Path(spec["report"]).write_text(json.dumps(report))
        return 0

    tracer = None
    if spec["trace"]:
        from instructions import InstructionCounter
        from tracer import Tracer

        counter = InstructionCounter()
        tracer = Tracer(counter.read, skip=tuple(spec.get("skip_sites", ())))
        tracer.install()
        telemetry.enable()

    out = Path(spec["out_dir"])
    figures = spec["figures"]
    if spec["variant"] is None:
        results = runner.run_suite(
            figures=figures, fast=spec["fast"], out_dir=out, engine=engine
        )
    else:
        sim = SimConfig(**spec["variant"])
        results = {}
        for name in figures:
            results[name] = runner.run_benchmark(
                name, fast=spec["fast"], sim=sim, engine=engine
            )
            results[name].save(out / f"{name}.json")
    if engine is not None:
        engine.close(success=True)
    for name, result in results.items():
        (out / f"{name}.csv").write_text(result.to_csv())

    if tracer is not None:
        from tracer import telemetry_counts

        telemetry.disable()
        spans, counters = telemetry_counts()
        report["trace"] = tracer.metrics()
        report["site_calls"] = tracer.site_calls
        report["mismatches"] = tracer.reconcile(
            spans, counters, engine=engine, figures=len(figures)
        )
    Path(spec["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
