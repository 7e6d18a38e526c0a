"""Tests for the repro.jobs execution engine.

Covers the cache-key invalidation matrix (any input that can move a
measured number must move the key), cache hit fidelity (bit-identical
replay), continuing a killed run from the result cache, corrupt-blob
repair, scheduler deduplication, worker-crash retry, and cache
maintenance (stats/gc/clear).
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

import repro.jobs.units as units_mod
from repro import telemetry
from repro.arch import RV770, RV870
from repro.il.types import DataType, ShaderMode
from repro.jobs import (
    CODE_VERSION,
    JobEngine,
    JobOptions,
    ResultCache,
    WorkUnit,
    cache_key,
    record_point,
    simulate_unit,
)
from repro.kernels import KernelParams, generate_generic
from repro.sim.config import SimConfig


def make_unit(
    *,
    gpu=RV770,
    dtype=DataType.FLOAT,
    mode=ShaderMode.PIXEL,
    ratio=1.0,
    inputs=4,
    domain=(128, 128),
    block=(64, 1),
    iterations=100,
    sim=None,
    figure="test",
) -> WorkUnit:
    kernel = generate_generic(
        KernelParams(
            inputs=inputs, alu_fetch_ratio=ratio, dtype=dtype, mode=mode
        )
    )
    return WorkUnit(
        figure=figure,
        series=f"{gpu.chip} {mode.value} {dtype.value}",
        value=ratio,
        kernel=kernel,
        gpu=gpu,
        domain=domain,
        block=block,
        iterations=iterations,
        sim=sim if sim is not None else SimConfig(),
        verify=True,
    )


class TestCacheKey:
    def test_same_parameters_same_key(self):
        assert make_unit().key == make_unit().key

    def test_figure_and_series_labels_do_not_key(self):
        # Identical launches shared between figures collapse onto one
        # cache entry — the motivation for content addressing.
        assert make_unit(figure="fig7").key == make_unit(figure="fig8").key

    @pytest.mark.parametrize(
        "variant",
        [
            {"dtype": DataType.FLOAT4},
            {"mode": ShaderMode.COMPUTE},
            {"ratio": 2.0},
            {"inputs": 8},
            {"gpu": RV870},
            {"domain": (256, 256)},
            {"block": (4, 16)},
            {"iterations": 200},
            {"sim": SimConfig(cache_model=False)},
            {"sim": SimConfig(odd_even_slots=False)},
            {"sim": SimConfig(burst_exports=False)},
            {"sim": SimConfig(gpr_limited_residency=False)},
            {"sim": SimConfig(thrash_coeff=0.2)},
            {"sim": SimConfig(pressure_threshold=8.0)},
            {"sim": SimConfig(little_r_half=2.0)},
            {"sim": SimConfig(tiled_reuse_distance=3.0)},
            {"sim": SimConfig(max_simulated_wavefronts=96)},
            {"sim": SimConfig(exact_threshold=128)},
        ],
        ids=lambda v: next(iter(v)) + ":" + repr(next(iter(v.values()))),
    )
    def test_invalidation_matrix(self, variant):
        assert make_unit(**variant).key != make_unit().key

    def test_every_simconfig_model_field_participates(self):
        # A new SimConfig field that is not wired into config_hash would
        # silently serve stale entries; fail here instead.
        base = make_unit()
        for field in dataclasses.fields(SimConfig):
            if not field.compare:
                continue  # session wiring (clause_stream) by design
            value = getattr(base.sim, field.name)
            if isinstance(value, bool):
                bumped = not value
            elif isinstance(value, (int, float)):
                bumped = value * 2 + 1
            else:
                continue
            sim = dataclasses.replace(base.sim, **{field.name: bumped})
            assert make_unit(sim=sim).key != base.key, field.name

    def test_code_version_salt_invalidates(self, monkeypatch):
        base = make_unit()
        before = cache_key(base)
        monkeypatch.setattr(units_mod, "CODE_VERSION", CODE_VERSION + 1)
        assert cache_key(make_unit()) != before

    def test_clause_stream_does_not_key(self):
        from repro.telemetry.hooks import EventStream

        wired = SimConfig(clause_stream=EventStream())
        assert make_unit(sim=wired).key == make_unit().key


class TestCacheRoundTrip:
    def test_hit_is_bit_identical(self, tmp_path):
        unit = make_unit()
        record = record_point(simulate_unit(unit))
        ResultCache(tmp_path).put(unit.key, record, figure=unit.figure)
        replay = ResultCache(tmp_path).get(unit.key)  # as a rerun reopens it
        assert replay == record
        assert isinstance(replay["seconds"], float)
        assert replay["seconds"] == record["seconds"]  # exact, not approx

    def test_miss_then_repair(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 40) is None
        assert cache.misses == 1

    def test_corrupt_blob_reads_as_miss(self, tmp_path):
        unit = make_unit()
        cache = ResultCache(tmp_path)
        record = record_point(simulate_unit(unit))
        cache.put(unit.key, record)
        path = cache.blob_path(unit.key)
        blob = json.loads(path.read_text())
        corrupt = [
            "{not json",
            path.read_text()[:-20],  # torn write
            json.dumps([blob]),
            json.dumps({**blob, "record": None}),
            json.dumps({**blob, "record": {"seconds": 1.0}}),
            json.dumps({**blob, "record": "x"}),
            json.dumps({**blob, "record": {**record, "gprs": "many"}}),
        ]
        for misses, text in enumerate(corrupt, start=1):
            path.write_text(text)
            assert cache.get(unit.key) is None, text
            assert (cache.hits, cache.misses) == (0, misses)

    def test_stats_gc_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = make_unit()
        record = record_point(simulate_unit(unit))
        cache.put(unit.key, record, figure="figX")
        # A blob salted under another code version is stale.
        stale = dict(
            key="f" * 40, version=CODE_VERSION + 1, figure="old",
            created=0.0, record=record,
        )
        path = cache.blob_path("f" * 40)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(stale))

        stats = cache.stats()
        assert stats.entries == 2 and stats.stale == 1
        assert stats.by_figure == {"figX": 1}

        assert cache.gc() == 1
        assert cache.get(unit.key) is not None
        assert cache.clear() == 1
        assert cache.stats().entries == 0


class TestEngine:
    def test_serial_engine_matches_direct_simulation(self, tmp_path):
        units = [make_unit(ratio=r) for r in (0.5, 1.0, 2.0)]
        engine = JobEngine(JobOptions(cache_dir=tmp_path))
        records = engine.run(units)
        direct = [record_point(simulate_unit(u)) for u in units]
        assert records == direct

    def test_duplicate_keys_simulate_once(self):
        units = [make_unit(figure="fig7"), make_unit(figure="fig8")]
        engine = JobEngine()
        records = engine.run(units)
        assert engine.simulated == 1
        assert records[0] == records[1]

    def test_rerun_over_the_cache_dir_continues_a_killed_run(self, tmp_path):
        all_units = [make_unit(ratio=r) for r in (0.5, 1.0, 2.0, 4.0)]

        # First attempt dies after two units (engine never closed).
        first = JobEngine(JobOptions(cache_dir=tmp_path))
        first.run(all_units[:2])

        second = JobEngine(JobOptions(cache_dir=tmp_path))
        records = second.run(all_units)
        assert second.simulated == 2 and second.cache.hits == 2
        clean = [record_point(simulate_unit(u)) for u in all_units]
        assert json.dumps(records) == json.dumps(clean)

    def test_malformed_blob_is_resimulated_and_repaired(self, tmp_path):
        unit = make_unit()
        expected = [record_point(simulate_unit(unit))]
        JobEngine(JobOptions(cache_dir=tmp_path)).run([unit])
        path = ResultCache(tmp_path).blob_path(unit.key)
        blob = json.loads(path.read_text())
        path.write_text(json.dumps({**blob, "record": {"seconds": 1.0}}))

        repair = JobEngine(JobOptions(cache_dir=tmp_path))
        assert repair.run([unit]) == expected
        assert repair.simulated == 1 and repair.cache.misses == 1

        replay = JobEngine(JobOptions(cache_dir=tmp_path))
        assert replay.run([unit]) == expected
        assert replay.simulated == 0 and replay.cache.hits == 1

    def test_write_killed_before_rename_leaves_a_miss(self, tmp_path):
        # A put killed mid-write leaves only its temp file in the shard;
        # the rerun reads a miss, re-simulates and stores the blob.
        unit = make_unit()
        path = ResultCache(tmp_path).blob_path(unit.key)
        path.parent.mkdir(parents=True)
        torn = path.parent / f".{unit.key[:8]}-killed.tmp"
        torn.write_text('{"key": "%s", "record": {"seconds"' % unit.key)
        assert ResultCache(tmp_path).stats().entries == 0

        rerun = JobEngine(JobOptions(cache_dir=tmp_path))
        assert rerun.run([unit]) == [record_point(simulate_unit(unit))]
        assert rerun.simulated == 1 and rerun.cache.misses == 1
        assert ResultCache(tmp_path).get(unit.key) is not None

    def test_other_code_version_blobs_are_not_replayed(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(units_mod, "CODE_VERSION", CODE_VERSION + 1)
        old = JobEngine(JobOptions(cache_dir=tmp_path))
        old.run([make_unit()])
        assert old.cache.puts == 1
        monkeypatch.undo()

        current = JobEngine(JobOptions(cache_dir=tmp_path))
        current.run([make_unit()])
        assert current.simulated == 1
        assert (current.cache.hits, current.cache.misses) == (0, 1)

    def test_rerun_writes_only_the_missing_blobs(self, tmp_path):
        all_units = [make_unit(ratio=r) for r in (0.5, 1.0, 2.0)]
        JobEngine(JobOptions(cache_dir=tmp_path)).run(all_units[:2])
        cache = ResultCache(tmp_path)
        before = {
            u.key: cache.blob_path(u.key).read_bytes() for u in all_units[:2]
        }

        rerun = JobEngine(JobOptions(cache_dir=tmp_path))
        rerun.run(all_units)
        assert rerun.cache.puts == 1
        for key, blob in before.items():
            assert cache.blob_path(key).read_bytes() == blob
        assert cache.stats().entries == 3

    def test_leftover_ledger_file_is_left_alone(self, tmp_path):
        # Older versions kept a ledger.jsonl beside the blobs; the engine
        # and cache maintenance neither read nor remove it.
        leftover = tmp_path / "ledger.jsonl"
        leftover.write_text('{"type": "ledger", "salt": 1}\n')
        unit = make_unit()
        for _ in range(2):
            JobEngine(JobOptions(cache_dir=tmp_path)).run([unit])
        cache = ResultCache(tmp_path)
        assert cache.stats().entries == 1
        assert cache.gc() == 0 and cache.clear() == 1
        assert leftover.read_text() == '{"type": "ledger", "salt": 1}\n'

    def test_clause_stream_units_bypass_cache(self, tmp_path):
        from repro.telemetry.hooks import EventStream

        unit = make_unit(sim=SimConfig(clause_stream=EventStream()))
        engine = JobEngine(JobOptions(cache_dir=tmp_path))
        engine.run([unit])
        engine.run([unit])
        assert engine.simulated == 2  # never cached, always simulated
        assert engine.cache.puts == 0

    def test_worker_exception_propagates(self):
        bad = dataclasses.replace(
            make_unit(), iterations=0
        )  # LaunchConfig rejects it
        with pytest.raises(ValueError):
            JobEngine().run([bad])

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_cacheless_engine_writes_nothing(self, tmp_path, monkeypatch, jobs):
        # Without a cache dir each run simulates afresh and leaves no
        # file behind (e.g. `repro suite --jobs 2` next to a killed
        # `--cache` run's results/cache/).
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            engine = JobEngine(JobOptions(jobs=jobs))
            engine.run([make_unit(ratio=2.0)])
            assert engine.simulated == 1
        assert not list(tmp_path.iterdir())

    def test_scheduler_spans_report_per_call_counts(self, tmp_path):
        engine = JobEngine(JobOptions(cache_dir=tmp_path))
        with telemetry.recording() as tracer:
            engine.run([make_unit(ratio=0.5), make_unit(ratio=1.0)])
            engine.run([make_unit(ratio=1.0), make_unit(ratio=2.0)])
        first, second = (
            s.attributes for s in tracer.finished() if s.name == "scheduler"
        )
        assert (first["simulated"], second["simulated"]) == (2, 1)
        assert (first["cache_hits"], second["cache_hits"]) == (0, 1)
        totals = {
            "simulated": engine.simulated,
            "cache_hits": engine.cache.hits,
            "cache_misses": engine.cache.misses,
            "compile_hits": engine.programs.hits,
            "compile_misses": engine.programs.misses,
        }
        for name, total in totals.items():
            assert first[name] + second[name] == total, name


def _crash_once_then_run(payload):
    """Pool entry that hard-kills its worker on first use (see retry test)."""
    from repro.jobs.worker import run_payload

    sentinel = payload.pop("_sentinel")
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("crashed")
        os._exit(1)  # simulates a segfaulting worker: BrokenProcessPool
    return run_payload(payload)


class TestPoolCrashRetry:
    def test_retry_once_after_worker_crash(self, tmp_path, monkeypatch):
        import repro.jobs.scheduler as sched_mod

        sentinel = tmp_path / "crashed"
        monkeypatch.setattr(sched_mod, "run_payload", _crash_once_then_run)
        original_payload = sched_mod.group_payload

        def payload_with_sentinel(units, program_root):
            payload = original_payload(units, program_root)
            payload["_sentinel"] = str(sentinel)
            return payload

        monkeypatch.setattr(sched_mod, "group_payload", payload_with_sentinel)

        unit = make_unit()
        records = JobEngine(JobOptions(jobs=2)).run([unit])
        assert sentinel.exists()  # the first attempt really died
        assert records == [record_point(simulate_unit(unit))]
