"""GPR live intervals over lowered ISA programs.

Per *physical* register intervals over the linearized clause stream.
The maximum number of simultaneously live intervals, plus the reserved
position register ``R0``, is what the paper reports as "GPRs used";
:func:`recomputed_gpr_count` derives it without consulting the register
allocator, so the verifier can cross-check ``regalloc``'s ``gpr_count``
(the number behind the paper's wavefront-residency results, Figs.
16-17).  The IL-level def-use index and liveness live in
:mod:`repro.il.defuse`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.clauses import (
    ALUClause,
    ExportClause,
    TEXClause,
    Value,
    ValueLocation,
)
from repro.isa.program import ISAProgram


@dataclass
class GPRInterval:
    """One live range of a physical GPR over the linearized program."""

    index: int  #: GPR number
    start: int  #: linear position of the write that opens the range
    end: int  #: linear position of the last read (== start if never read)
    reads: int = 0  #: how many reads the range received

    @property
    def dead(self) -> bool:
        return self.reads == 0


@dataclass
class _LinearWalk:
    """Accumulates intervals while walking the clause stream."""

    open: dict[int, GPRInterval] = field(default_factory=dict)
    closed: list[GPRInterval] = field(default_factory=list)
    pos: int = 0

    def read(self, index: int) -> None:
        interval = self.open.get(index)
        if interval is not None:
            interval.end = self.pos
            interval.reads += 1

    def write(self, index: int) -> None:
        previous = self.open.pop(index, None)
        if previous is not None:
            self.closed.append(previous)
        self.open[index] = GPRInterval(index, self.pos, self.pos)

    def finish(self) -> list[GPRInterval]:
        self.closed.extend(self.open.values())
        self.open.clear()
        return self.closed


def _gpr_reads(values: tuple[Value, ...]) -> list[int]:
    return [v.index for v in values if v.location is ValueLocation.GPR]


def gpr_live_intervals(program: ISAProgram) -> list[GPRInterval]:
    """Live intervals of every physical GPR, in linear program order.

    Positions advance exactly as the register allocator counts them: one
    per fetch, one per VLIW bundle, one per store.  Reads within a
    bundle attach to the *pre-bundle* interval (co-issue semantics), so
    a same-position read+write yields two intervals overlapping at that
    point — matching the allocator's closed-interval release rule.
    """
    walk = _LinearWalk()
    for clause in program.clauses:
        if isinstance(clause, TEXClause):
            for fetch in clause.fetches:
                if fetch.dest.location is ValueLocation.GPR:
                    walk.write(fetch.dest.index)
                walk.pos += 1
        elif isinstance(clause, ALUClause):
            for bundle in clause.bundles:
                writes = []
                for op in bundle.ops:
                    for index in _gpr_reads(op.sources):
                        walk.read(index)
                    if (
                        op.dest is not None
                        and op.dest.location is ValueLocation.GPR
                    ):
                        writes.append(op.dest.index)
                for index in writes:
                    walk.write(index)
                walk.pos += 1
        elif isinstance(clause, ExportClause):
            for store in clause.stores:
                for index in _gpr_reads((store.source,)):
                    walk.read(index)
                walk.pos += 1
    return walk.finish()


def max_live_gprs(program: ISAProgram) -> int:
    """Maximum number of simultaneously live GPR values (excluding R0)."""
    return peak_live_gprs(gpr_live_intervals(program))


def peak_live_gprs(intervals: list[GPRInterval]) -> int:
    """Most closed ``[start, end]`` intervals covering one position, R0 aside.

    A sweep line over the sorted starts and ends: at equal positions,
    starts are taken before ends, so two intervals that meet at a point
    overlap there (the allocator's closed-interval release rule).
    """
    starts = sorted(i.start for i in intervals if i.index != 0)
    ends = sorted(i.end for i in intervals if i.index != 0)
    best = 0
    closed = 0
    for opened, position in enumerate(starts, 1):
        # Every interval ends at or after its start, so fewer than
        # ``opened`` ends lie before ``position``.
        while ends[closed] < position:
            closed += 1
        best = max(best, opened - closed)
    return best


def recomputed_gpr_count(program: ISAProgram) -> int:
    """Independent "GPRs used" count: max-live values + the reserved R0.

    A program using no GPRs at all still occupies one (R0, the
    pre-loaded position/thread id) — matching ``regalloc``'s floor.
    """
    return max_live_gprs(program) + 1
