"""Guard: the execution engine's two performance contracts.

``repro.jobs`` justifies its existence with speed, so this benchmark
pins the claims from docs/jobs.md against the full ``--fast`` suite:

* a **warm-cache rerun** — every unit served from ``results/cache/``
  blobs, zero simulations — is at least 5x faster than the cold run
  that populated the cache;
* a **4-worker cold run** beats the serial loop (only meaningful on a
  multi-core host; skipped on single-CPU machines where a process pool
  can only add overhead).

Both comparisons also re-assert bit-identical figures, because a fast
engine that drifts from the serial loop is worthless.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.jobs import JobEngine, JobOptions
from repro.suite import run_suite

#: the contract from ISSUE/docs: warm cache is >=5x faster than cold.
WARM_SPEEDUP_FLOOR = 5.0


def _suite_json(results):
    return {name: rs.to_json() for name, rs in results.items()}


def _timed_suite(engine):
    t0 = time.perf_counter()
    results = run_suite(fast=True, engine=engine)
    seconds = time.perf_counter() - t0
    return results, seconds


def test_warm_cache_is_5x_faster_than_cold(tmp_path):
    cache_dir = tmp_path / "cache"

    cold_engine = JobEngine(JobOptions(cache_dir=cache_dir))
    cold_results, cold_seconds = _timed_suite(cold_engine)
    # (cross-figure dedupe means even a cold run may record some hits,
    # but it must have done real simulation work.)
    assert cold_engine.simulated > 0

    warm_engine = JobEngine(JobOptions(cache_dir=cache_dir))
    warm_results, warm_seconds = _timed_suite(warm_engine)
    assert warm_engine.simulated == 0  # pure replay
    assert warm_engine.cache.hits > 0

    speedup = cold_seconds / warm_seconds
    print(
        f"\nfull --fast suite: cold {cold_seconds:.2f}s, warm "
        f"{warm_seconds:.2f}s, speedup {speedup:.1f}x "
        f"(floor {WARM_SPEEDUP_FLOOR:.0f}x)"
    )
    assert _suite_json(warm_results) == _suite_json(cold_results)
    assert speedup >= WARM_SPEEDUP_FLOOR


def test_four_workers_beat_serial_cold():
    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip(f"needs a multi-core host (os.cpu_count()={cpus})")

    serial_results, serial_seconds = _timed_suite(JobEngine())

    pool_engine = JobEngine(JobOptions(jobs=4))
    pool_results, pool_seconds = _timed_suite(pool_engine)
    assert pool_engine.simulated > 0

    speedup = serial_seconds / pool_seconds
    print(
        f"\nfull --fast suite: serial {serial_seconds:.2f}s, 4 workers "
        f"{pool_seconds:.2f}s, speedup {speedup:.2f}x"
    )
    assert _suite_json(pool_results) == _suite_json(serial_results)
    assert speedup > 1.0
