"""Tests for multi-parameter grid sweeps and the knee-invariance claim."""

import pytest

from repro.arch import RV770
from repro.il.types import DataType, ShaderMode
from repro.suite import GridResult, alu_fetch_grid, knees_by_input

RATIOS = tuple(0.25 * k for k in range(1, 25))


@pytest.fixture(scope="module")
def float_grid():
    return alu_fetch_grid(
        RV770, inputs=(4, 8, 16), ratios=RATIOS, dtype=DataType.FLOAT
    )


class TestGridStructure:
    def test_dimensions(self, float_grid):
        assert len(float_grid.seconds) == 3
        assert all(len(row) == len(RATIOS) for row in float_grid.seconds)

    def test_row_lookup(self, float_grid):
        assert float_grid.row(8) == float_grid.seconds[1]

    def test_csv_export(self, float_grid):
        csv = float_grid.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0].startswith("inputs,0.25,")
        assert len(lines) == 4

    def test_csv_round_trips(self, float_grid):
        back = GridResult.from_csv(
            float_grid.to_csv(),
            gpu=float_grid.gpu,
            dtype=float_grid.dtype,
            mode=float_grid.mode,
        )
        assert back.inputs == float_grid.inputs
        assert back.ratios == pytest.approx(float_grid.ratios, abs=0)
        for row, original in zip(back.seconds, float_grid.seconds):
            assert row == pytest.approx(original, abs=1e-6)

    def test_fine_grained_ratio_headers_stay_distinct(self):
        # {r:g} collapses near-equal ratios onto one header; the fixed
        # formatter widens precision until every column is labeled
        # uniquely, so fine sweeps round-trip.
        ratios = (1.0, 1.0000001, 1.0000002, 2.0)
        grid = GridResult(
            gpu="RV770",
            dtype=DataType.FLOAT,
            mode=ShaderMode.PIXEL,
            inputs=(4,),
            ratios=ratios,
            seconds=((0.1, 0.2, 0.3, 0.4),),
        )
        header = grid.to_csv().splitlines()[0].split(",")[1:]
        assert len(set(header)) == len(ratios)
        back = GridResult.from_csv(grid.to_csv())
        assert back.ratios == ratios

    def test_engine_grid_matches_serial(self, float_grid, tmp_path):
        # The default grid runs inline through a cacheless engine; a
        # cached engine must give the same cells.
        from repro.jobs import JobEngine, JobOptions

        engine = JobEngine(JobOptions(cache_dir=tmp_path / "cache"))
        through_engine = alu_fetch_grid(
            RV770,
            inputs=(4, 8, 16),
            ratios=RATIOS,
            dtype=DataType.FLOAT,
            engine=engine,
        )
        assert through_engine == float_grid

    def test_times_scale_with_inputs_in_fetch_region(self, float_grid):
        # at ratio 0.25 the kernel is fetch-bound: time ~ inputs
        t4 = float_grid.row(4)[0]
        t16 = float_grid.row(16)[0]
        assert t16 / t4 == pytest.approx(4.0, rel=0.25)


class TestKneeInvariance:
    def test_paper_claim_knee_independent_of_input_size(self, float_grid):
        # §IV: "For each input size and domain size, the execution times
        # differed but the behavior ... remained the same."
        knees = knees_by_input(float_grid)
        values = set(knees.values())
        assert None not in values
        assert max(values) - min(values) <= 0.25  # one sweep step

    def test_float4_knees_also_invariant(self):
        grid = alu_fetch_grid(
            RV770,
            inputs=(8, 16),
            ratios=tuple(0.5 * k for k in range(1, 17)),
            dtype=DataType.FLOAT4,
        )
        knees = knees_by_input(grid)
        values = [v for v in knees.values() if v is not None]
        assert len(values) == 2
        assert abs(values[0] - values[1]) <= 0.5
