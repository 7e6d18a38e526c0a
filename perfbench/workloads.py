"""The benchmark's workloads and the inputs a seed picks for them.

Every workload runs all 13 figures of the full-resolution suite
(``repro suite --full``); they differ in which caches exist and what is
in them, so each one stresses a different layer:

* ``full_cold`` -- the default serial path, no disk cache: compile and
  verify dominate.
* ``full_cold_store`` -- the jobs engine (inline, ``jobs=0``) over an
  empty cache directory: adds result and compiled-program writes.
* ``full_warm`` -- the engine over a pristine store filled by one
  default-config run: every unit replays, nothing compiles or simulates.
* ``full_resim`` -- ``run_benchmark(sim=<variant>, engine=...)`` over
  the same pristine store: every result misses, every compile is a
  program-store hit, so simulation and store reads dominate.

The process pool is left out on purpose: on a small shared machine it
measures the scheduler, not the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: ``SimConfig`` calibration changes for ``full_resim``: each changes the
#: model coefficients (so every cached result misses) and keeps all 28
#: paper claims true.
VARIANTS: dict[str, dict[str, float]] = {
    "thrash_coeff_0.12": {"thrash_coeff": 0.12},
    "little_r_half_1.25": {"little_r_half": 1.25},
    "pressure_threshold_12": {"pressure_threshold": 12.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: run through a ``JobEngine`` (otherwise the plain serial path).
    engine: bool
    #: start from a copy of the pristine default-config store.
    pristine: bool
    #: pick a ``SimConfig`` variant from the seed.
    resim: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("full_cold", engine=False, pristine=False),
        Workload("full_cold_store", engine=True, pristine=False),
        Workload("full_warm", engine=True, pristine=True),
        Workload("full_resim", engine=True, pristine=True, resim=True),
    )
}


def figures() -> list[str]:
    """Every figure id of the suite (needs ``src`` on ``sys.path``)."""
    from repro.suite.runner import BENCHMARKS

    return sorted(BENCHMARKS)


def figure_order(seed: int) -> list[str]:
    """The order the figures run in; the seed shuffles it."""
    order = figures()
    random.Random(seed).shuffle(order)
    return order


def variant_name(seed: int) -> str:
    """The ``full_resim`` calibration variant the seed picks."""
    return random.Random(f"variant-{seed}").choice(sorted(VARIANTS))
