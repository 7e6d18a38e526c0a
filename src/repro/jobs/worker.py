"""Unit execution: the functions both inline and pooled paths share.

:func:`simulate_unit` is the whole measurement — simulate the launch of
an already compiled program, reduce the event to the small JSON-safe
record the result cache stores.  :func:`run_group` runs one compile
group: it asks a :class:`~repro.compiler.cache.CompileCache` for each
unit's program and passes that program to the launch, so the group
compiles (or loads) once.  The engine's inline loop calls it with
``JobEngine.programs``; the pool entry point :func:`run_payload` is a
module-level function (picklable) that calls it with a cache over the
``ProgramStore`` root shipped in the payload dict :func:`group_payload`
produced.

The simulator is deterministic, so the record is bit-identical whether
the unit runs inline, in a worker process, or is replayed from cache —
the property the determinism-guard test pins.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.cal.device import Device
from repro.cal.timing import time_kernel
from repro.jobs.units import WorkUnit

if TYPE_CHECKING:
    from pathlib import Path

    from repro.compiler.cache import CompileCache
    from repro.isa.program import ISAProgram


def simulate_unit(
    unit: WorkUnit, program: "ISAProgram | None" = None
) -> dict:
    """Run one unit and return its record (see ``units.record_point``).

    ``program`` is the unit's compiled program; without one the launch
    compiles the kernel under the unit's verification mode.
    """
    from repro.verify import verification

    with verification(unit.verify):
        event = time_kernel(
            Device(unit.gpu),
            unit.kernel,
            domain=unit.domain,
            block=unit.block,
            iterations=unit.iterations,
            sim=unit.sim,
            program=program,
        )
    program = event.result.program
    return {
        "seconds": event.seconds,
        "gprs": program.gpr_count,
        "resident_wavefronts": event.counters.resident_wavefronts,
        "bound": event.bottleneck.value,
    }


def run_group(
    units: Iterable[WorkUnit], programs: "CompileCache"
) -> Iterator[tuple[WorkUnit, dict]]:
    """``(unit, record)`` in order, each as soon as it is simulated.

    One ``get_or_compile`` per unit: the group's first unit compiles (or
    loads from the store), the rest hit the cache's current program.
    """
    for unit in units:
        program = programs.get_or_compile(
            unit.kernel, unit.gpu, verify=unit.verify
        )
        yield unit, simulate_unit(unit, program)


def group_payload(
    units: Sequence[WorkUnit], program_root: "str | Path | None"
) -> dict:
    """The picklable shape of one compile group shipped to a worker.

    The group's units share one kernel object, which pickles once.
    ``program_root`` is the on-disk program store the worker shares with
    the engine and with other workers (``None``: the group compiles in
    the worker's memory).
    """
    return {
        "units": list(units),
        "program_root": str(program_root) if program_root else None,
    }


def run_payload(payload: dict) -> list[dict]:
    """Pool entry point: one group's payload in, its records out, in order."""
    from repro.compiler.cache import CompileCache, ProgramStore

    root = payload["program_root"]
    programs = CompileCache(ProgramStore(root) if root else None)
    return [raw for _, raw in run_group(payload["units"], programs)]
