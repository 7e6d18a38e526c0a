"""The content-addressed compiled-program cache (repro.compiler.cache).

Covers the key's invalidation surface, both tiers (the current program
in memory and the on-disk store), how the jobs engine hands its programs
to launches (inline and in the pool), the compile-once guarantee for
kernel-sharing sweeps, the verification memo, and the CLI surface that
reports and maintains the store.
"""

import json

import pytest

from repro import telemetry
from repro.arch import RV670, RV770, RV870
from repro.cli import main
from repro.compiler import CompileOptions, compile_kernel
from repro.compiler import cache as cache_mod
from repro.compiler.cache import CompileCache, ProgramStore, compile_cache_key
from repro.il.text import cached_il_text
from repro.jobs import JobEngine, JobOptions, ResultCache, WorkUnit
from repro.kernels import KernelParams, generate_generic
from repro.sim.config import SimConfig
from repro.suite import BENCHMARKS, run_benchmark
from repro.verify.engine import clear_verify_memo

from tests.helpers import planned_programs


def kernel_n(alu_ops=8):
    return generate_generic(KernelParams(inputs=4, alu_ops=alu_ops))


BASE_OPTIONS = CompileOptions()


class TestCacheKey:
    def test_deterministic(self):
        il = cached_il_text(kernel_n())
        a = compile_cache_key(il, BASE_OPTIONS, True)
        b = compile_cache_key(il, BASE_OPTIONS, True)
        assert a == b
        assert len(a) == 40

    def test_il_text_changes_key(self):
        a = compile_cache_key(cached_il_text(kernel_n(8)), BASE_OPTIONS, True)
        b = compile_cache_key(cached_il_text(kernel_n(12)), BASE_OPTIONS, True)
        assert a != b

    def test_chips_share_a_key_and_program_iff_options_match(self):
        # compile_kernel reads only the clause-size options from the
        # GPU, so chips with equal options share one key and one
        # program, and different options do not.
        il = cached_il_text(kernel_n())
        chips = (RV670, RV770, RV870)
        keys = {
            compile_cache_key(il, CompileOptions.for_gpu(gpu), True)
            for gpu in chips
        }
        assert len(keys) == 1
        cache = CompileCache()
        kernel = kernel_n()
        programs = [cache.get_or_compile(kernel, gpu) for gpu in chips]
        assert all(program is programs[0] for program in programs)
        assert cache.misses == 1 and cache.memory_hits == 2

        small = CompileOptions(max_alu_per_clause=16)
        assert compile_cache_key(il, small, True) not in keys
        other = cache.get_or_compile(kernel, RV770, options=small)
        assert other is not programs[0]
        assert cache.misses == 2

    def test_clause_options_change_key(self):
        il = cached_il_text(kernel_n())
        small = CompileOptions(max_alu_per_clause=16)
        assert compile_cache_key(il, BASE_OPTIONS, True) != (
            compile_cache_key(il, small, True)
        )

    def test_verify_flag_changes_key(self):
        il = cached_il_text(kernel_n())
        assert compile_cache_key(il, BASE_OPTIONS, True) != (
            compile_cache_key(il, BASE_OPTIONS, False)
        )

    def test_code_version_changes_key(self, monkeypatch):
        # Bumping CODE_VERSION must orphan every cached program.
        il = cached_il_text(kernel_n())
        before = compile_cache_key(il, BASE_OPTIONS, True)
        monkeypatch.setattr(cache_mod, "CODE_VERSION", 999_999)
        assert compile_cache_key(il, BASE_OPTIONS, True) != before


class TestMemoryTier:
    def test_second_compile_is_a_hit_and_shares_the_object(self):
        cache = CompileCache()
        kernel = kernel_n()
        first = cache.get_or_compile(kernel, RV770)
        second = cache.get_or_compile(kernel, RV770)
        assert second is first
        assert cache.misses == 1
        assert cache.memory_hits == 1
        assert cache.hits == 1

    def test_only_the_current_program_is_kept(self):
        cache = CompileCache()
        kernels = [kernel_n(8), kernel_n(12), kernel_n(16)]
        for k in kernels:
            cache.get_or_compile(k, RV770)
        assert cache.misses == 3
        # An earlier program was dropped; re-requesting it recompiles.
        cache.get_or_compile(kernels[0], RV770)
        assert cache.misses == 4
        # ...while the current one is a hit until released.
        cache.get_or_compile(kernels[0], RV770)
        assert cache.memory_hits == 1
        cache.release()
        cache.get_or_compile(kernels[0], RV770)
        assert cache.misses == 5

    def test_engine_run_releases_the_program(self):
        kernel = kernel_n()
        unit = WorkUnit(
            figure="test",
            series="s",
            value=1.0,
            kernel=kernel,
            gpu=RV770,
            domain=(128, 128),
            block=(64, 1),
            iterations=10,
            sim=SimConfig(),
            verify=False,
        )
        engine = JobEngine()
        engine.run([unit])
        assert engine.programs.misses == 1
        # The run is over, so its last program is no longer held.
        engine.programs.get_or_compile(kernel, RV770, verify=False)
        assert engine.programs.misses == 2


class TestDiskTier:
    def test_warm_start_across_cache_instances(self, tmp_path):
        kernel = kernel_n()
        writer = CompileCache(ProgramStore(tmp_path))
        program = writer.get_or_compile(kernel, RV770)
        assert writer.serialized == 1

        reader = CompileCache(ProgramStore(tmp_path))
        warm = reader.get_or_compile(kernel, RV770)
        assert reader.misses == 0
        assert reader.disk_hits == 1
        assert warm.clauses == program.clauses
        assert warm.gpr_count == program.gpr_count
        # The warm load is parse-free: the caller's kernel is attached.
        assert warm.kernel is kernel
        # Now the current program in the memory tier.
        reader.get_or_compile(kernel, RV770)
        assert reader.memory_hits == 1

    def test_corrupt_blob_reads_as_miss_and_is_repaired(self, tmp_path):
        kernel = kernel_n()
        store = ProgramStore(tmp_path)
        writer = CompileCache(store)
        writer.get_or_compile(kernel, RV770)
        (blob,) = list(store.objects_dir.rglob("*.json"))
        blob.write_text("{definitely not json")

        reader = CompileCache(ProgramStore(tmp_path))
        program = reader.get_or_compile(kernel, RV770)
        assert reader.misses == 1  # corrupt entry never surfaces
        assert reader.serialized == 1  # ...and the fresh save repaired it
        repaired = CompileCache(ProgramStore(tmp_path))
        assert repaired.get_or_compile(kernel, RV770).clauses == (
            program.clauses
        )
        assert repaired.disk_hits == 1

    def test_stale_code_version_reads_as_miss(self, tmp_path):
        kernel = kernel_n()
        store = ProgramStore(tmp_path)
        CompileCache(store).get_or_compile(kernel, RV770)
        (blob,) = list(store.objects_dir.rglob("*.json"))
        data = json.loads(blob.read_text())
        data["version"] = -1
        blob.write_text(json.dumps(data))
        reader = CompileCache(ProgramStore(tmp_path))
        reader.get_or_compile(kernel, RV770)
        assert reader.disk_hits == 0
        assert reader.misses == 1


POOL_FIGURE = "fig14"


@pytest.fixture(scope="module")
def pooled_store(tmp_path_factory):
    """A ``jobs=2`` fast run of one figure over an empty cache dir."""
    cache_dir = tmp_path_factory.mktemp("pooled") / "cache"
    engine = JobEngine(JobOptions(jobs=2, cache_dir=cache_dir))
    result = run_benchmark(POOL_FIGURE, fast=True, engine=engine)
    return cache_dir, result


class TestProgramPassing:
    def test_pool_stores_one_program_per_distinct_pair(self, pooled_store):
        cache_dir, pooled = pooled_store
        programs, _points = planned_programs(POOL_FIGURE)
        entries, _bytes, stale = ProgramStore(cache_dir).scan()
        assert (entries, stale) == (programs, 0)
        serial = run_benchmark(POOL_FIGURE, fast=True)
        assert pooled.to_csv() == serial.to_csv()

    def test_inline_run_over_the_store_compiles_nothing(self, pooled_store):
        cache_dir, pooled = pooled_store
        # No cached results: every unit simulates, and every program
        # comes from the store the pool filled.
        ResultCache(cache_dir).clear()
        engine = JobEngine(JobOptions(cache_dir=cache_dir))
        with telemetry.recording() as tracer:
            inline = run_benchmark(POOL_FIGURE, fast=True, engine=engine)
        assert engine.cache.hits == 0
        assert engine.simulated == engine.cache.misses > 0
        assert engine.programs.misses == 0
        assert engine.programs.disk_hits == planned_programs(POOL_FIGURE)[0]
        assert not any(s.name == "compile" for s in tracer.finished())
        assert inline.to_csv() == pooled.to_csv()


class TestTelemetryCounters:
    def test_hit_miss_serialize_counters(self, tmp_path):
        kernel = kernel_n()
        with telemetry.recording():
            cache = CompileCache(ProgramStore(tmp_path))
            cache.get_or_compile(kernel, RV770)  # miss + serialize
            cache.get_or_compile(kernel, RV770)  # memory hit
            CompileCache(ProgramStore(tmp_path)).get_or_compile(
                kernel, RV770
            )  # disk hit
            registry = telemetry.metrics()
            assert registry.get("compile.cache.miss").value == 1
            assert registry.get("compile.cache.serialize").value == 1
            assert registry.get("compile.cache.hit{layer=memory}").value == 1
            assert registry.get("compile.cache.hit{layer=disk}").value == 1

    def test_verify_memo_counters(self):
        clear_verify_memo()
        kernel = kernel_n()
        with telemetry.recording():
            compile_kernel(kernel, RV770, verify=True)
            compile_kernel(kernel, RV770, verify=True)
            registry = telemetry.metrics()
            hits = registry.get("verify.memo.hit")
            misses = registry.get("verify.memo.miss")
            assert misses is not None and misses.value >= 1
            assert hits is not None and hits.value >= 1


class TestSweepPlanning:
    def test_domain_sweep_shares_one_kernel_object(self):
        # fig15 is one kernel swept over launch shapes: every planned
        # unit of a (mode, dtype) series must carry the *same* kernel
        # object, which is what collapses the sweep to one compile.
        bench = BENCHMARKS["fig15a"]()
        planned = bench.plan_units(gpus=(RV770, RV670), fast=True)
        by_key = {}
        for spec, value, kernel, unit in planned:
            by_key.setdefault((spec.mode, spec.dtype), set()).add(id(kernel))
        assert by_key  # the sweep planned something
        for identities in by_key.values():
            assert len(identities) == 1
        # ...and the sharing crosses GPUs: generators never read the GPU.
        distinct_kernels = {id(k) for _, _, k, _ in planned}
        assert len(distinct_kernels) == len(by_key)

    def test_engine_domain_sweep_compiles_exactly_once(self):
        engine = JobEngine()
        with telemetry.recording() as tracer:
            result = run_benchmark(
                "fig15a", gpus=(RV770,), fast=True, engine=engine
            )
        compiles = sum(1 for s in tracer.finished() if s.name == "compile")
        points = sum(len(series.points) for series in result.series)
        assert points > 1
        assert compiles == 1
        assert engine.programs.misses == 1
        assert engine.programs.memory_hits == points - 1

    def test_warm_and_cold_engine_runs_are_byte_identical(self, tmp_path):
        def run():
            # Keep the compiled programs, drop the results: every unit
            # of each run simulates.
            ResultCache(tmp_path).clear()
            engine = JobEngine(JobOptions(cache_dir=tmp_path))
            with telemetry.recording() as tracer:
                result = run_benchmark(
                    "fig15a", gpus=(RV770,), fast=True, engine=engine
                )
            points = sum(len(series.points) for series in result.series)
            assert engine.simulated == engine.cache.misses == points
            compiles = sum(s.name == "compile" for s in tracer.finished())
            return result, engine, compiles

        cold, cold_engine, cold_compiles = run()
        assert cold_engine.programs.serialized == cold_engine.programs.misses
        assert cold_compiles == 1
        warm, warm_engine, warm_compiles = run()
        assert warm_engine.programs.misses == 0
        assert warm_engine.programs.disk_hits > 0
        assert warm_compiles == 0
        assert warm.to_csv() == cold.to_csv()
        assert warm.to_json() == cold.to_json()


class TestCLISurface:
    def run_figure(self, cache_dir):
        assert main(
            ["figure", "fig15a", "--fast", "--cache-dir", str(cache_dir)]
        ) == 0

    def test_cache_stats_reports_programs(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self.run_figure(cache_dir)
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", str(cache_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["programs"]["entries"] > 0
        assert payload["programs"]["bytes"] > 0
        assert payload["programs"]["stale"] == 0

        assert main(["cache", "stats", "--dir", str(cache_dir)]) == 0
        assert "programs:" in capsys.readouterr().out

    def test_cache_clear_removes_programs(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self.run_figure(cache_dir)
        capsys.readouterr()
        assert main(["cache", "clear", "--dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "compiled programs" in out
        assert main(["cache", "stats", "--dir", str(cache_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["programs"]["entries"] == 0
