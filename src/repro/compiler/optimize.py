"""IL-level optimization passes.

Currently one pass: dead-code elimination.  The paper notes the CAL
compiler aggressively removes computation that does not reach an output;
our generators are written so nothing is removable, and the tests use this
pass to prove it.  The liveness itself is
:func:`repro.il.defuse.dead_instructions`, which the verifier's V008
dead-write check reads too, so the pass and the warning cannot disagree.
"""

from __future__ import annotations

from repro.il.defuse import dead_instructions
from repro.il.module import ILKernel


def eliminate_dead_code(kernel: ILKernel) -> tuple[ILKernel, int]:
    """Remove instructions whose results never reach an output.

    Returns the (possibly smaller) kernel and the number of instructions
    removed; with nothing to remove, ``kernel`` itself comes back.
    Stores and exports are always live; liveness propagates backwards
    through register operands.  Fetches of declared inputs are kept only
    if their destination is live — mirroring the CAL compiler behaviour
    the paper works around ("every input that is declared and sampled
    has to be used").
    """
    dead = dead_instructions(kernel)
    if not dead:
        return kernel, 0
    drop = set(dead)
    new_body = tuple(
        instr for pos, instr in enumerate(kernel.body) if pos not in drop
    )
    return kernel.with_body(new_body), len(dead)
