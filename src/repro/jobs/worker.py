"""Unit execution: the one function both serial and pooled paths share.

:func:`simulate_unit` is the whole measurement — compile under the
unit's verification mode, simulate the launch, reduce the event to the
small JSON-safe record the cache/ledger stores.  The pool entry point
:func:`run_payload` is a module-level function (picklable) that runs the
units of one compile group, shipped in the payload dict
:func:`group_payload` produced, in order, so the group compiles once per
task.

The simulator is deterministic, so the record is bit-identical whether
the unit runs inline, in a worker process, or is replayed from cache —
the property the determinism-guard test pins.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.cal.device import Device
from repro.cal.timing import time_kernel
from repro.jobs.units import WorkUnit


def simulate_unit(unit: WorkUnit, device: Device | None = None) -> dict:
    """Run one unit and return its record (see ``units.record_point``)."""
    from repro.verify import verification

    dev = device if device is not None else Device(unit.gpu)
    with verification(unit.verify):
        event = time_kernel(
            dev,
            unit.kernel,
            domain=unit.domain,
            block=unit.block,
            iterations=unit.iterations,
            sim=unit.sim,
        )
    program = event.result.program
    return {
        "seconds": event.seconds,
        "gprs": program.gpr_count,
        "resident_wavefronts": event.counters.resident_wavefronts,
        "bound": event.bottleneck.value,
    }


def initialize_worker(program_root: str | None = None) -> None:
    """Pool-worker startup: install a process-local compile cache.

    Each task is one compile group, so the cache compiles once per task
    (the same kernel arriving as many launch shapes compiles once, not
    once per unit); with a ``program_root`` the workers additionally
    share compiled programs with each other — and with past runs —
    through the on-disk store.
    """
    from repro.compiler.cache import (
        CompileCache,
        ProgramStore,
        install_cache,
    )

    store = ProgramStore(program_root) if program_root else None
    install_cache(CompileCache(store))


def group_payload(units: Sequence[WorkUnit]) -> dict:
    """The picklable shape of one compile group shipped to a worker.

    ``SimConfig.clause_stream`` is session wiring (callbacks into the
    parent's tracer) and cannot cross a process boundary; the scheduler
    refuses to parallelize units that carry one, so stripping it here is
    safe for the payloads that do get shipped.  The group's units share
    one kernel object, which pickles once.
    """
    return {
        "units": [
            unit
            if unit.sim.clause_stream is None
            else dataclasses.replace(
                unit, sim=dataclasses.replace(unit.sim, clause_stream=None)
            )
            for unit in units
        ]
    }


def run_payload(payload: dict) -> list[dict]:
    """Pool entry point: one group's payload in, its records out, in order."""
    return [simulate_unit(unit) for unit in payload["units"]]
