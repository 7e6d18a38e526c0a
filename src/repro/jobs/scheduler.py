"""The execution engine: fan units out, reassemble results in order.

:class:`JobEngine` takes a planned list of :class:`~repro.jobs.units
.WorkUnit` and returns their records *in submission order*, regardless of
completion order — callers rebuild ``ResultSet``/``GridResult`` shapes
that are bit-identical to a serial run.  Between planning and execution
it consults:

1. the **result cache** — content-addressed records from any earlier
   run, including a killed one: every unit is stored the moment it
   finishes, so rerunning an interrupted run over the same cache dir
   continues where it stopped,
2. the **scheduler** — everything still pending, deduplicated by cache
   key (identical launches shared between figures simulate once) and
   ordered by compile group (:func:`compile_groups`), run either inline
   (``jobs <= 1``, the deterministic default) or across a
   ``ProcessPoolExecutor`` — one task per compile group — with a
   per-unit timeout budget and one retry after a worker-pool crash.

Group order is what lets the compile cache hold one program: every
reuse of a compiled program follows the previous request for it.  Both
the inline loop and each pool task run a group through
:func:`repro.jobs.worker.run_group`, which asks a compile cache for each
unit's program and passes it to the launch.

Telemetry (when enabled) gets a ``scheduler`` span per ``run()`` call
carrying that call's own counts, a ``unit`` span per unit with its
resolution source, and the ``jobs.cache.hit`` / ``jobs.cache.miss`` /
``jobs.simulated`` counters documented in docs/telemetry.md.
"""

from __future__ import annotations

import concurrent.futures
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro import telemetry
from repro.compiler.pipeline import CompileOptions
from repro.jobs.cache import ResultCache
from repro.jobs.units import WorkUnit, record_point
from repro.jobs.worker import group_payload, run_group, run_payload


class JobError(RuntimeError):
    """The engine could not complete the run."""


class UnitTimeout(JobError):
    """A unit exceeded the per-unit timeout budget."""


@dataclass(frozen=True)
class JobOptions:
    """How to execute a planned run (CLI flags map onto this 1:1)."""

    #: worker processes; 0 or 1 runs inline for strict determinism of
    #: telemetry and exception timing (results are identical either way).
    jobs: int = 0
    #: cache root for results and compiled programs (they share it);
    #: ``None`` keeps nothing on disk.
    cache_dir: str | Path | None = None
    #: per-unit timeout in seconds for the pool; a pool task (one compile
    #: group of n units) gets n times this, measured from when the
    #: scheduler starts waiting on it (``None`` waits forever).
    timeout: float | None = None


class JobEngine:
    """One engine per logical run; share it across figures of a suite."""

    def __init__(self, options: JobOptions | None = None) -> None:
        from repro.compiler.cache import CompileCache, ProgramStore

        self.options = options or JobOptions()
        root = self.options.cache_dir
        self.cache = ResultCache(root) if root is not None else None
        #: compiles each distinct (IL, options) once per compile group
        #: (docs/compile-cache.md).
        self.programs = CompileCache(
            ProgramStore(root) if root is not None else None
        )
        self.simulated = 0

    # ---- execution -------------------------------------------------------
    def run(self, units: Sequence[WorkUnit]) -> list[dict]:
        """Execute ``units``; returns one record per unit, same order."""
        results: dict[str, dict] = {}
        pending: list[WorkUnit] = []
        seen: set[str] = set()
        uncacheable: list[WorkUnit] = []
        before = self._totals()

        with telemetry.span(
            "scheduler",
            jobs=self.options.jobs,
            units=len(units),
            cache=self.cache is not None,
        ) as span:
            for unit in units:
                if unit.sim.clause_stream is not None:
                    # Session wiring (trace callbacks) cannot be cached
                    # or shipped to a worker; always simulate inline.
                    uncacheable.append(unit)
                    continue
                key = unit.key
                if key in seen or key in results:
                    continue
                seen.add(key)
                record = self._replay(unit)
                if record is not None:
                    results[key] = record
                else:
                    pending.append(unit)

            groups = compile_groups(pending)
            try:
                if groups and self.options.jobs > 1:
                    self._run_pool(groups, results)
                else:
                    for group in groups:
                        for unit, raw in run_group(group, self.programs):
                            self._finish(unit, raw, results, "serial")
                for unit, raw in run_group(uncacheable, self.programs):
                    results[unit.key] = record_point(raw)
                    self.simulated += 1
                    self._count(
                        "jobs.simulated", unit.figure, mode="inline"
                    )
            finally:
                # The last compile group is done with its program.
                self.programs.release()

            if span:
                after = self._totals()
                span.set(
                    distinct=len(seen) + len(uncacheable),
                    # This call's own traffic; compile counts cover the
                    # inline path (pool workers keep their own counters).
                    **{name: after[name] - before[name] for name in after},
                )
        return [results[unit.key] for unit in units]

    def _totals(self) -> dict[str, int]:
        """Engine-lifetime counts, differenced per ``run()`` for its span."""
        return {
            "simulated": self.simulated,
            "cache_hits": self.cache.hits if self.cache else 0,
            "cache_misses": self.cache.misses if self.cache else 0,
            "compile_hits": self.programs.hits,
            "compile_misses": self.programs.misses,
        }

    def close(self, success: bool = True) -> None:
        """End the run.  Nothing is left to flush: every finished unit is
        already in the result cache, and ``run()`` releases the last
        compiled program.  ``success`` is accepted for callers that report
        the run's outcome; it changes nothing."""

    # ---- resolution ------------------------------------------------------
    def _replay(self, unit: WorkUnit) -> dict | None:
        """The unit's record from the result cache, if it holds one."""
        if self.cache is None:
            return None
        record = self.cache.get(unit.key)
        if record is not None:
            self._count("jobs.cache.hit", unit.figure)
            self._unit_span(unit, "hit")
            return record
        self._count("jobs.cache.miss", unit.figure)
        return None

    def _finish(
        self, unit: WorkUnit, raw: dict, results: dict, mode: str
    ) -> None:
        record = record_point(raw)
        results[unit.key] = record
        self.simulated += 1
        if self.cache is not None:
            self.cache.put(unit.key, record, figure=unit.figure)
        self._count("jobs.simulated", unit.figure, mode=mode)
        self._unit_span(unit, mode, seconds=record["seconds"])

    # ---- process pool ----------------------------------------------------
    def _run_pool(self, groups: list[list[WorkUnit]], results: dict) -> None:
        remaining = groups
        for attempt in (0, 1):
            try:
                self._pool_pass(remaining, results)
                return
            except BrokenProcessPool:
                remaining = [
                    [u for u in group if u.key not in results]
                    for group in remaining
                ]
                remaining = [group for group in remaining if group]
                if attempt or not remaining:
                    units = sum(len(group) for group in remaining)
                    raise JobError(
                        f"worker pool crashed twice; {units} units unfinished"
                    ) from None
                self._count("jobs.pool_retries", remaining[0][0].figure)

    def _pool_pass(self, groups: list[list[WorkUnit]], results: dict) -> None:
        root = self.options.cache_dir
        with ProcessPoolExecutor(max_workers=self.options.jobs) as pool:
            futures = [
                (group, pool.submit(run_payload, group_payload(group, root)))
                for group in groups
            ]
            timeout = self.options.timeout
            for group, future in futures:
                try:
                    raws = future.result(
                        timeout=None if timeout is None
                        else timeout * len(group)
                    )
                except concurrent.futures.TimeoutError:
                    for _, other in futures:
                        other.cancel()
                    unit = group[0]
                    raise UnitTimeout(
                        f"compile group of unit {unit.key[:12]} "
                        f"({unit.figure}/{unit.series} x={unit.value:g}) "
                        f"exceeded {timeout}s x {len(group)} units"
                    ) from None
                for unit, raw in zip(group, raws):
                    self._finish(unit, raw, results, "pool")

    # ---- telemetry -------------------------------------------------------
    @staticmethod
    def _count(name: str, figure: str, **labels) -> None:
        if telemetry.enabled():
            telemetry.metrics().counter(name, figure=figure, **labels).inc()

    @staticmethod
    def _unit_span(unit: WorkUnit, source: str, **attrs) -> None:
        if not telemetry.enabled():
            return
        with telemetry.span(
            "unit",
            key=unit.key[:12],
            figure=unit.figure,
            series=unit.series,
            x=unit.value,
            source=source,
            **attrs,
        ):
            pass


def compile_groups(units: Sequence[WorkUnit]) -> list[list[WorkUnit]]:
    """``units`` grouped by compiled program, in first-appearance order.

    A group is every unit with equal IL text, ``CompileOptions`` and
    verify flag — the compile cache key — so one compile (or one store
    load) serves it.  Within a group units keep their input order.
    """
    groups: dict[tuple, list[WorkUnit]] = {}
    for unit in units:
        key = (unit.il_text, CompileOptions.for_gpu(unit.gpu), unit.verify)
        groups.setdefault(key, []).append(unit)
    return list(groups.values())
