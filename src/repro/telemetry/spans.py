"""Zero-dependency span tracer.

A :class:`Span` is one timed region of the pipeline — a compile, a
simulated launch, a whole figure sweep — with structured attributes and a
parent link, so a run unrolls into a tree: ``figure`` >
``time_kernel`` > ``compile`` / ``simulate``.  Instrumented code calls
:func:`span` as a context manager; when telemetry is disabled (the
default) the call returns a shared no-op object and costs one dictionary
construction, which keeps the hot paths inside the <2% overhead budget
guarded by ``benchmarks/bench_telemetry_overhead.py``.

The module is deliberately stdlib-only: every other layer of the
repository imports it (directly or through :mod:`repro.telemetry`), so it
must sit at the bottom of the dependency graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed region: name, tree position, wall-time, attributes.

    ``start``/``end`` are seconds relative to the owning tracer's epoch
    (:attr:`Tracer.started_at` holds the epoch as Unix time), measured on
    the monotonic ``perf_counter`` clock.
    """

    name: str
    span_id: int
    parent_id: int | None
    depth: int
    start: float
    attributes: dict = field(default_factory=dict)
    end: float | None = None

    @property
    def duration(self) -> float:
        """Seconds the span was open (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def set(self, **attributes) -> "Span":
        """Attach attributes mid-flight (e.g. results known only at exit)."""
        self.attributes.update(attributes)
        return self

    def to_record(self) -> dict:
        """The span's JSONL manifest record."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "start": round(self.start, 9),
            "end": None if self.end is None else round(self.end, 9),
            "duration": round(self.duration, 9),
            "attrs": self.attributes,
        }


class _ActiveSpan:
    """Context manager binding one open span to its tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.attributes.setdefault("error", exc_type.__name__)
        self._tracer.finish(self._span)
        return False


class _NoopSpan:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopSpan()


class Tracer:
    """Collects spans for one run; supports arbitrary nesting.

    Nesting is tracked with an explicit stack: ``start`` pushes, ``finish``
    pops, and a span opened while another is open becomes its child.  The
    stack discipline matches context-manager use exactly; out-of-order
    ``finish`` calls are tolerated (the span is removed wherever it sits).
    """

    def __init__(self) -> None:
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self._next_id = 1
        self._stack: list[Span] = []
        self.spans: list[Span] = []

    # ---- clocks ----------------------------------------------------------
    def now(self) -> float:
        """Seconds since the tracer's epoch (monotonic)."""
        return time.perf_counter() - self._t0

    # ---- span lifecycle --------------------------------------------------
    def start(self, name: str, **attributes) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            depth=len(self._stack),
            start=self.now(),
            attributes=attributes,
        )
        self._next_id += 1
        self._stack.append(span)
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> Span:
        span.end = self.now()
        if span in self._stack:
            self._stack.remove(span)
        return span

    def span(self, name: str, **attributes) -> _ActiveSpan:
        """``with tracer.span("compile", kernel=...) as sp:`` — sp is the Span."""
        return _ActiveSpan(self, self.start(name, **attributes))

    # ---- views -----------------------------------------------------------
    @property
    def open_spans(self) -> list[Span]:
        return list(self._stack)

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s.end is not None]

    def records(self) -> list[dict]:
        return [s.to_record() for s in self.spans]


# ---- module-global state -----------------------------------------------------
#
# One flag, one tracer.  ``enabled()`` is the guard every instrumented
# call site checks; it must stay a plain attribute read.

_enabled: bool = False
_tracer: Tracer = Tracer()


def enabled() -> bool:
    """Whether telemetry collection is currently on."""
    return _enabled


def enable(fresh: bool = True) -> Tracer:
    """Turn collection on; ``fresh`` starts a new tracer (the default)."""
    global _enabled, _tracer
    if fresh:
        _tracer = Tracer()
    _enabled = True
    return _tracer


def disable() -> None:
    """Turn collection off (instrumentation reverts to no-ops)."""
    global _enabled
    _enabled = False


def get_tracer() -> Tracer:
    """The active tracer (meaningful while :func:`enabled`)."""
    return _tracer


def span(name: str, **attributes):
    """Open a span if telemetry is enabled, else a shared no-op.

    Usage::

        with span("compile", kernel=kernel.name) as sp:
            ...
            if sp:
                sp.set(gprs=result.gpr_count)

    ``sp`` is ``None`` on the disabled path, so result attributes are
    attached under an ``if sp:`` guard and cost nothing when off.
    """
    if not _enabled:
        return _NOOP
    return _tracer.span(name, **attributes)
