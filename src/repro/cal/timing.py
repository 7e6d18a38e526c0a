"""One-call timing convenience for suite and application code."""

from __future__ import annotations

from repro import telemetry
from repro.cal.context import Context
from repro.cal.device import Device, open_device
from repro.cal.kernel_launch import Event
from repro.il.module import ILKernel
from repro.isa.program import ISAProgram
from repro.sim.config import PAPER_ITERATIONS, SimConfig


def time_kernel(
    device: Device | str,
    kernel: ILKernel,
    domain: tuple[int, int] = (1024, 1024),
    block: tuple[int, int] = (64, 1),
    iterations: int = PAPER_ITERATIONS,
    sim: SimConfig | None = None,
    program: ISAProgram | None = None,
) -> Event:
    """Compile, bind throwaway streams, run, and return the Event.

    This is the shape of every measurement in the paper: allocate the
    kernel's streams, execute ``iterations`` times, report kernel-only
    time.  The context (and its allocations) is discarded afterwards.
    ``program`` skips the compile (see :meth:`Context.load_module`).
    """
    dev = device if isinstance(device, Device) else open_device(device)
    with telemetry.span(
        "time_kernel", kernel=kernel.name, gpu=dev.spec.chip
    ) as span:
        ctx = Context(dev, sim=sim or SimConfig())
        module = ctx.load_module(kernel, program)
        ctx.bind_streams(module, domain)
        event = ctx.run(
            module, domain=domain, block=block, iterations=iterations
        )
        if span:
            span.set(
                seconds=round(event.seconds, 6),
                bound=event.bottleneck.value,
            )
    return event
