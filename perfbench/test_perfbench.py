"""Self-tests of the benchmark's correctness gate and layer tracer.

Run from the repository root (a few minutes; not part of tier-1)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import ROOT, SRC, Bench, base_spec, run_child

sys.path.insert(0, str(SRC))

from gate import check, load_references, output_digests  # noqa: E402
from tracer import TraceError, Tracer, all_sites  # noqa: E402
from workloads import VARIANTS, WORKLOADS, figure_order, figures  # noqa: E402

#: one fast figure per benchmark class, so every build_kernel site runs.
SMALL = ["fig7", "fig11", "fig13", "fig15b", "fig5ctl"]
SCENARIOS = ("serial", "cold_store", "resim")


def spec(figures, out: Path, **fields) -> dict:
    out.mkdir(parents=True)
    return dict(base_spec(figures), out_dir=str(out), **fields)


@pytest.fixture(scope="module")
def cold_outputs(tmp_path_factory) -> Path:
    """The outputs of one full_cold iteration with seed 1's figure order."""
    work = tmp_path_factory.mktemp("cold")
    run_child(spec(figure_order(1), work / "out"), work)
    return work / "out"


def test_full_cold_passes_gate(cold_outputs):
    gate = check(cold_outputs, figures(), load_references())
    assert (gate.mismatched, gate.claims_failed) == ([], [])
    assert gate.points == 1873


def test_two_seeds_give_identical_full_cold_digests(cold_outputs):
    assert figure_order(1) != figure_order(2)
    sample = Bench(WORKLOADS["full_cold"], seed=2).iteration(trace=False)
    assert sample.gate.failed == 0
    assert sample.gate.digests == output_digests(cold_outputs, figures())


def test_one_changed_byte_is_one_mismatched_figure(cold_outputs, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(cold_outputs, out)
    csv = out / "fig9.csv"
    data = bytearray(csv.read_bytes())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
    csv.write_bytes(bytes(data))
    gate = check(out, figures(), load_references())
    assert gate.mismatched == ["fig9"]
    assert gate.claims_failed == []


def run_scenario(name: str, work: Path, store: Path, skip=()) -> dict:
    fields = {"trace": True, "fast": True, "skip_sites": list(skip)}
    if name != "serial":
        fields["cache_dir"] = str(work / "cache")
    if name == "resim":
        shutil.copytree(store, work / "cache")
        fields["variant"] = VARIANTS["thrash_coeff_0.12"]
    return run_child(spec(SMALL, work / "out", **fields), work).report


@pytest.fixture(scope="module")
def small_store(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("store")
    fields = {"fast": True, "cache_dir": str(work / "cache")}
    run_child(spec(SMALL, work / "out", **fields), work)
    return work / "cache"


@pytest.fixture(scope="module")
def baseline(small_store, tmp_path_factory) -> dict[str, dict]:
    return {
        name: run_scenario(name, tmp_path_factory.mktemp(name), small_store)
        for name in SCENARIOS
    }


def test_complete_trace_reconciles(baseline):
    for report in baseline.values():
        assert report["mismatches"] == []


@pytest.mark.parametrize("site", all_sites())
def test_missing_wrapper_fails_reconciliation(site, baseline, small_store, tmp_path):
    reached = [n for n in SCENARIOS if baseline[n]["site_calls"][site] > 0]
    if not reached:
        pytest.skip(f"{site} is not called by the suite")
    report = run_scenario(reached[0], tmp_path, small_store, skip=(site,))
    assert report["mismatches"]


def test_renamed_site_fails_install(monkeypatch):
    import repro.cal.kernel_launch as kernel_launch
    from repro.suite import base

    original = base.time_kernel
    monkeypatch.delattr(kernel_launch, "simulate_launch")
    with pytest.raises(TraceError, match="simulate_launch"):
        Tracer(lambda: 0).install()
    assert base.time_kernel is original


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "full_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
