"""The def-use index of an IL kernel and the one IL liveness pass.

IL bodies are straight-line, and every instruction defines at most one
register, so one walk over the body gives each position's defined
register and used registers.  :func:`def_use` builds that walk once per
kernel object and keeps it on the instance; the validator's checks,
dead-code elimination and the V008 dead-write check all read it.
:func:`dead_instructions` is the backward liveness those last two share.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.il.instructions import Register, RegisterFile
from repro.il.module import ILKernel


@dataclass(frozen=True, slots=True)
class DefUse:
    """Per body position: the register written, and the registers read."""

    #: the register each instruction defines (``None``: a store or export).
    defs: tuple[Register | None, ...]
    #: each instruction's ``used_registers()``, duplicates kept.
    uses: tuple[tuple[Register, ...], ...]


def _build_index(kernel: ILKernel) -> DefUse:
    defs: list[Register | None] = []
    for instr in kernel.body:
        defined = instr.defined_registers()
        defs.append(defined[0] if defined else None)
    return DefUse(
        tuple(defs), tuple(instr.used_registers() for instr in kernel.body)
    )


def def_use(kernel: ILKernel) -> DefUse:
    """The kernel's :class:`DefUse`, built on first use.

    Kept on the instance (``ILKernel`` is immutable, so it never goes
    stale) and left out when the kernel is pickled.
    """
    index = kernel.__dict__.get("_def_use")
    if index is None:
        index = _build_index(kernel)
        object.__setattr__(kernel, "_def_use", index)
    return index


def dead_instructions(kernel: ILKernel) -> list[int]:
    """Body positions, ascending, whose results never reach a store.

    Only stores and exports define no register, and they are always
    live; liveness propagates backwards through temporary-register
    operands.  A fetch is live only if its destination is, as the CAL
    compiler drops unused inputs (§III).
    """
    index = def_use(kernel)
    live: set[Register] = set()
    dead: list[int] = []
    temp_file = RegisterFile.TEMP
    for pos in range(len(index.defs) - 1, -1, -1):
        dest = index.defs[pos]
        if dest is not None:
            if dest not in live:
                dead.append(pos)
                continue
            live.discard(dest)
        for reg in index.uses[pos]:
            if reg.file is temp_file:
                live.add(reg)
    dead.reverse()
    return dead
