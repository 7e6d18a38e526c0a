"""Determinism guard: serial, parallel, and cached runs are one run.

The acceptance bar for the execution engine — ``fig7 --fast`` must
produce *exactly* the same ResultSet (and figure JSON) whether it runs
through the legacy serial loop, a 4-worker process pool, or a warm
result cache.  Any drift here means the cache key is missing an input or
the reassembly changed the shapes, so the comparison is equality on the
serialized JSON, not approx.
"""

from __future__ import annotations

import pytest

from repro.jobs import JobEngine, JobOptions
from repro.suite import run_benchmark


@pytest.fixture(scope="module")
def serial_fig7():
    return run_benchmark("fig7", fast=True)


class TestFigureDeterminism:
    def test_jobs4_and_warm_cache_match_serial(self, serial_fig7, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("jobs-cache")

        cold_engine = JobEngine(JobOptions(jobs=4, cache_dir=cache_dir))
        pooled = run_benchmark("fig7", fast=True, engine=cold_engine)
        assert cold_engine.simulated > 0  # really went through the pool

        warm_engine = JobEngine(JobOptions(jobs=4, cache_dir=cache_dir))
        cached = run_benchmark("fig7", fast=True, engine=warm_engine)
        assert warm_engine.simulated == 0  # fully served from cache
        assert warm_engine.cache.hits > 0

        serial_json = serial_fig7.to_json()
        assert pooled.to_json() == serial_json
        assert cached.to_json() == serial_json

    def test_serial_engine_matches_legacy_loop(self, serial_fig7):
        result = run_benchmark("fig7", fast=True, engine=JobEngine())
        assert result.to_json() == serial_fig7.to_json()
