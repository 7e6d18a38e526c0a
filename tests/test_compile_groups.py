"""What running each figure by compile group relies on, and delivers.

The serial path and the jobs engine both run a figure's points grouped
by compiled program, compiling each group once.  That is sound only if
equal ``kernel_key``s build identical IL and the compiler reads nothing
from the GPU but its ``CompileOptions``; both are pinned here, along
with the results: byte-identical CSVs on every execution path, and one
``compile`` span per distinct (IL, options) pair of a figure.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.arch import RV670, RV770, RV870, all_gpus
from repro.compiler import CompileOptions, compile_kernel
from repro.il.text import cached_il_text
from repro.isa.serialize import program_digest
from repro.jobs import JobEngine, JobOptions
from repro.kernels import KernelParams, generate_generic
from repro.suite import BENCHMARKS, run_benchmark

from tests.helpers import planned_programs

FIGURES = sorted(BENCHMARKS)


def _run_fast_suite(engine=None):
    """Every figure in fast mode: ``{figure: (csv, compile spans)}``."""
    runs = {}
    for figure in FIGURES:
        with telemetry.recording() as tracer:
            result = run_benchmark(figure, fast=True, engine=engine)
        compiles = sum(1 for s in tracer.finished() if s.name == "compile")
        runs[figure] = (result.to_csv(), compiles)
    return runs


@pytest.fixture(scope="module")
def serial_runs():
    return _run_fast_suite()


@pytest.fixture(scope="module")
def inline_runs():
    return _run_fast_suite(JobEngine(JobOptions(jobs=0)))


@pytest.mark.parametrize("figure", FIGURES)
def test_equal_kernel_keys_build_identical_il(figure):
    bench = BENCHMARKS[figure]()
    texts: dict[object, str] = {}
    for spec in bench.series_specs(all_gpus()):
        for value in bench.sweep_values(fast=True):
            key = bench.kernel_key(value, spec)
            if key is None:
                continue
            text = cached_il_text(bench.build_kernel(value, spec))
            assert texts.setdefault(key, text) == text, (figure, key)


def test_program_is_the_same_for_every_chip():
    kernel = generate_generic(KernelParams(inputs=8, alu_fetch_ratio=2.0))
    chips = (RV670, RV770, RV870)
    assert len({CompileOptions.for_gpu(gpu) for gpu in chips}) == 1
    digests = {
        program_digest(compile_kernel(kernel, gpu, verify=True))
        for gpu in chips
    }
    assert len(digests) == 1


def test_serial_inline_and_pool_csvs_are_byte_identical(
    serial_runs, inline_runs
):
    pooled = JobEngine(JobOptions(jobs=2))
    pool_csvs = {
        figure: run_benchmark(figure, fast=True, engine=pooled).to_csv()
        for figure in FIGURES
    }
    for figure in FIGURES:
        serial_csv = serial_runs[figure][0]
        assert inline_runs[figure][0] == serial_csv, figure
        assert pool_csvs[figure] == serial_csv, figure


@pytest.mark.parametrize("path", ["serial", "inline"])
def test_one_compile_span_per_distinct_program(path, request):
    runs = request.getfixturevalue(f"{path}_runs")
    for figure in FIGURES:
        programs, points = planned_programs(figure)
        assert runs[figure][1] == programs, figure
        assert programs < points, figure  # grouping really shares
