"""Helpers shared by several test modules."""

from __future__ import annotations

from repro.compiler import CompileOptions
from repro.il.text import cached_il_text
from repro.suite import BENCHMARKS


def planned_programs(figure: str, fast: bool = True) -> tuple[int, int]:
    """``(distinct (IL, CompileOptions) pairs, points)`` of a figure's plan.

    The first number is how many compiles a figure run needs: one per
    compile group.
    """
    planned = BENCHMARKS[figure]().plan_units(fast=fast)
    programs = {
        (cached_il_text(kernel), CompileOptions.for_gpu(spec.gpu))
        for spec, _value, kernel, _unit in planned
    }
    return len(programs), len(planned)
