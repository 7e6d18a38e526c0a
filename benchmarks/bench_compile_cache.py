"""Guard: the compile-side performance contracts (docs/compile-cache.md).

The compiled-program cache justifies itself the same way the jobs engine
does — with measured speed and provable safety.  This benchmark pins:

* a **warm-compile-cache** Figure 16 sweep (compiled programs served from
  the on-disk store, simulation still running) is at least
  ``REPRO_COMPILE_CACHE_FLOOR``x faster than the cold run that populated
  it, with byte-identical ``ResultSet`` CSVs;
* the Figure 15 domain sweep — one kernel swept over many launch shapes —
  performs **exactly one** compile under an engine, proven by counting
  ``compile`` spans in a telemetry recording.

Results land in ``benchmarks/results/compile_cache_perf.json`` so CI can
upload them per-PR.  Figure 16 (register usage) is the sweep the compile
path dominates: its kernels are the largest the generators emit, and
every figure point compiles under full differential verification.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro import telemetry
from repro.arch import RV770
from repro.jobs import JobEngine, JobOptions, ResultCache
from repro.suite import run_benchmark

RESULTS_DIR = Path(__file__).parent / "results"

#: the contract from ISSUE/docs: a warm compile cache makes the Fig 16
#: sweep >=3x faster.  CI's perf-smoke step relaxes this via the
#: environment so shared-runner noise cannot block a PR.
WARM_SPEEDUP_FLOOR = float(os.environ.get("REPRO_COMPILE_CACHE_FLOOR", "3.0"))


def _timed_run(figure: str, store: Path):
    """One engine run against ``store`` with its cached results cleared.

    Only compiled programs persist — a warm run still simulates every
    point, so the measured gap is purely the compile path.
    """
    ResultCache(store).clear()
    engine = JobEngine(JobOptions(cache_dir=store))
    t0 = time.perf_counter()
    result = run_benchmark(figure, fast=True, engine=engine)
    seconds = time.perf_counter() - t0
    assert engine.cache.hits == 0  # every point simulated
    return result, seconds, engine


def _best_of(runs):
    """The run with the smallest wall time (noise damping, min-of-N)."""
    return min(runs, key=lambda r: r[1])


def test_warm_compile_cache_speedup(tmp_path):
    # Cold: every point pays IL->ISA compile + differential verification.
    # Each round gets a FRESH store so both time the genuinely cold path;
    # the warm rounds then share the first store.  min-of-N on both sides
    # keeps shared-runner noise from deciding the comparison.
    cold_result, cold_seconds, cold_engine = _best_of(
        [_timed_run("fig16", tmp_path / f"store-{i}") for i in range(2)]
    )
    assert cold_engine.programs.misses > 0
    assert cold_engine.programs.serialized == cold_engine.programs.misses

    warm_result, warm_seconds, warm_engine = _best_of(
        [_timed_run("fig16", tmp_path / "store-0") for _ in range(3)]
    )
    assert warm_engine.programs.misses == 0  # every compile served
    assert warm_engine.programs.hits > 0

    identical = warm_result.to_csv() == cold_result.to_csv()
    speedup = cold_seconds / warm_seconds
    print(
        f"\nfig16 --fast sweep: cold {cold_seconds:.2f}s, warm "
        f"{warm_seconds:.2f}s, speedup {speedup:.1f}x "
        f"(floor {WARM_SPEEDUP_FLOOR:g}x)"
    )

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "compile_cache_perf.json").write_text(
        json.dumps(
            {
                "figure": "fig16",
                "cold_seconds": round(cold_seconds, 4),
                "warm_seconds": round(warm_seconds, 4),
                "speedup": round(speedup, 2),
                "floor": WARM_SPEEDUP_FLOOR,
                "cold_compiles": cold_engine.programs.misses,
                "warm_disk_hits": warm_engine.programs.disk_hits,
                "csv_identical": identical,
            },
            indent=2,
        )
        + "\n"
    )

    assert identical, "warm run drifted from cold run"
    assert speedup >= WARM_SPEEDUP_FLOOR


def test_domain_sweep_compiles_exactly_once():
    # Figure 15 is one kernel x many launch shapes; compile-once planning
    # means the whole sweep costs a single compile.
    engine = JobEngine()
    with telemetry.recording() as tracer:
        result = run_benchmark("fig15a", gpus=(RV770,), fast=True, engine=engine)

    compiles = sum(1 for s in tracer.finished() if s.name == "compile")
    points = sum(len(series.points) for series in result.series)
    print(f"\nfig15a sweep: {points} points, {compiles} compile span(s)")
    assert points > 1
    assert compiles == 1
    assert engine.programs.misses == 1
    assert engine.programs.memory_hits == points - 1
