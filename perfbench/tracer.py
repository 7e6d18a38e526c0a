"""Outside-in layer tracer: wraps the names each caller actually resolves.

The program is not edited.  Instead, every layer boundary is a *site*:
the module attribute (or class method) through which the suite reaches
that layer.  A function imported with ``from x import f`` at module load
is a separate binding from ``x.f``, so both are listed wherever both are
used.  :meth:`Tracer.install` replaces each site with a timing wrapper
and raises if a site no longer exists, so a rename fails the benchmark
instead of silently reporting a zero layer.

After the run, :meth:`Tracer.reconcile` checks every site's count against
an independent count: the program's own telemetry spans and counters,
the engine's cache counters, or another layer's calls.  A site that the
program stopped calling (a new import path nobody wrapped) therefore
fails reconciliation too.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

#: (layer, module, attribute): module-level bindings, one per caller path.
FUNCTION_SITES: tuple[tuple[str, str, str], ...] = (
    ("suite", "repro.suite.runner", "run_benchmark"),
    ("cal.time_kernel", "repro.suite.base", "time_kernel"),
    ("cal.time_kernel", "repro.jobs.worker", "time_kernel"),
    ("compiler.compile", "repro.cal.context", "compile_kernel"),
    # CompileCache.get_or_compile imports it lazily from its home module.
    ("compiler.compile", "repro.compiler.pipeline", "compile_kernel"),
    # The pipeline binds its passes at import ...
    ("il.validate", "repro.compiler.pipeline", "validate_kernel"),
    ("compiler.dce", "repro.compiler.pipeline", "eliminate_dead_code"),
    ("compiler.segments", "repro.compiler.pipeline", "form_segments"),
    ("compiler.vliw", "repro.compiler.pipeline", "pack_bundles"),
    ("compiler.regalloc", "repro.compiler.pipeline", "allocate"),
    # ... while ILBuilder.build imports validate_kernel lazily.
    ("il.validate", "repro.il.validate", "validate_kernel"),
    # compile_kernel and verify_compiled import these lazily.
    ("verify", "repro.verify.engine", "verify_compiled"),
    ("verify.isa", "repro.verify.isa_checks", "check_program"),
    ("verify.diff", "repro.verify.differential", "check_il_pass"),
    ("verify.diff", "repro.verify.differential", "check_lowering"),
    ("verify.digest", "repro.isa.serialize", "program_digest"),
    # program_digest resolves program_to_json in its own module; the
    # compiled-program store binds both directions at import.
    ("isa.serialize", "repro.isa.serialize", "program_to_json"),
    ("isa.serialize", "repro.compiler.cache", "program_to_json"),
    ("isa.deserialize", "repro.compiler.cache", "program_from_json"),
    # cached_il_text resolves emit_il in its module; serialize binds it.
    ("il.emit", "repro.il.text", "emit_il"),
    ("il.emit", "repro.isa.serialize", "emit_il"),
    ("sim", "repro.cal.kernel_launch", "simulate_launch"),
)

#: (layer, module, class, method): methods reached through instances.
METHOD_SITES: tuple[tuple[str, str, str, str], ...] = (
    ("compiler.cache", "repro.compiler.cache", "CompileCache", "get_or_compile"),
    ("jobs.result", "repro.jobs.cache", "ResultCache", "get"),
    ("jobs.blob.read", "repro.jobs.blobstore", "BlobStore", "read"),
    ("jobs.blob.write", "repro.jobs.blobstore", "BlobStore", "write"),
)

#: Layers reported as ``<layer>.calls``, ``<layer>.self_s`` and
#: ``<layer>.self_instructions``.
LAYERS: tuple[str, ...] = (
    "kernels.build",
    "il.validate",
    "il.emit",
    "compiler.compile",
    "compiler.dce",
    "compiler.segments",
    "compiler.vliw",
    "compiler.regalloc",
    "compiler.cache",
    "verify",
    "verify.isa",
    "verify.diff",
    "verify.digest",
    "isa.serialize",
    "isa.deserialize",
    "jobs.blob.read",
    "jobs.blob.write",
    "jobs.result",
    "sim",
    "cal.time_kernel",
)


class TraceError(RuntimeError):
    """A site is missing, or the counts do not reconcile."""


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    self_instructions: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


def _benchmark_classes() -> list[type]:
    """Every benchmark class that defines ``build_kernel`` itself."""
    from repro.suite.base import MicroBenchmark
    from repro.suite.runner import BENCHMARKS

    classes: list[type] = []
    for factory in BENCHMARKS.values():
        owner = getattr(factory, "__self__", None)
        if not isinstance(owner, type) or not issubclass(owner, MicroBenchmark):
            raise TraceError(f"benchmark factory {factory!r} is not a classmethod")
        for cls in owner.__mro__:
            if cls is MicroBenchmark or not issubclass(cls, MicroBenchmark):
                continue
            if "build_kernel" in cls.__dict__ and cls not in classes:
                classes.append(cls)
    return classes


def _sites() -> list[tuple[str, object, str, str]]:
    """(layer, owner, attribute, site name) of every site.

    Every module is imported before the list is returned, so no module
    imported during patching can bind a wrapper instead of the original.
    """
    modules = {
        name: importlib.import_module(name)
        for name in sorted({site[1] for site in FUNCTION_SITES + METHOD_SITES})
    }
    sites = [(layer, modules[m], attr, f"{m}.{attr}") for layer, m, attr in FUNCTION_SITES]
    sites += [
        (layer, getattr(modules[m], cls), meth, f"{m}.{cls}.{meth}")
        for layer, m, cls, meth in METHOD_SITES
    ]
    sites += [
        ("kernels.build", cls, "build_kernel", f"{cls.__module__}.{cls.__name__}.build_kernel")
        for cls in _benchmark_classes()
    ]
    return sites


class Tracer:
    """Timing wrappers over every site, with self time per layer.

    ``instructions`` is a zero-argument callable returning the process's
    retired-instruction count; each layer's self instructions are counted
    the same way as its self time.  ``skip`` names sites (``"module.attr"``
    or ``"module.Class.method"``) to leave unwrapped; the self-tests use
    it to prove that a missing wrapper fails :meth:`reconcile`.
    """

    def __init__(self, instructions, skip: tuple[str, ...] = ()) -> None:
        self.instructions = instructions
        self.skip = set(skip)
        self.layers: dict[str, LayerStats] = {}
        self.site_calls: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # ---- installation ------------------------------------------------------
    def install(self) -> None:
        try:
            for layer, owner, attr, site in _sites():
                self._patch(layer, owner, attr, site)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, layer: str, owner: object, attr: str, site: str) -> None:
        original = (
            owner.__dict__.get(attr) if isinstance(owner, type)
            else getattr(owner, attr, None)
        )
        if not callable(original):
            raise TraceError(f"trace site {site} is gone; update perfbench/tracer.py")
        if getattr(original, "_perfbench_site", None):
            raise TraceError(f"trace site {site} is already wrapped")
        self.site_calls.setdefault(site, 0)
        if site in self.skip:
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, site, original))

    def _wrap(self, layer: str, site: str, fn):
        stack = self._stack
        site_calls = self.site_calls
        before_hook = _BEFORE.get(layer)
        after_hook = _AFTER.get(layer)
        clock = time.perf_counter
        retired = self.instructions
        if layer == "suite":
            stats_for = self._figure_stats
        else:
            stats = self.layers.setdefault(layer, LayerStats())

            def stats_for(args):
                return stats

        def wrapper(*args, **kwargs):
            before = before_hook(args) if before_hook else None
            children = [0.0, 0]
            stack.append(children)
            first = retired()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                count = retired() - first
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += count
                record = stats_for(args)
                record.calls += 1
                record.total_s += elapsed
                record.self_s += elapsed - children[0]
                record.self_instructions += count - children[1]
                site_calls[site] += 1
            if after_hook:
                after_hook(record, args, result, before)
            return result

        wrapper._perfbench_site = site  # type: ignore[attr-defined]
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _figure_stats(self, args) -> LayerStats:
        return self.layers.setdefault(f"suite.{args[0]}", LayerStats())

    # ---- results -----------------------------------------------------------
    def layer(self, name: str) -> LayerStats:
        return self.layers.get(name, LayerStats())

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics (the ``per_layer`` names, minus overhead)."""
        out: dict[str, float] = {}
        for name in LAYERS:
            stats = self.layer(name)
            out[f"{name}.calls"] = stats.calls
            out[f"{name}.self_s"] = stats.self_s
            out[f"{name}.self_instructions"] = stats.self_instructions
        out["compiler.dce.removed"] = self.layer("compiler.dce").extra.get("removed", 0)
        verify_calls = self.layer("verify").calls
        out["verify.useful_ratio"] = (
            self.layer("verify.isa").calls / verify_calls if verify_calls else 0.0
        )
        cache = self.layer("compiler.cache")
        for key in ("hits", "misses", "disk_hits"):
            out[f"compiler.cache.{key}"] = cache.extra.get(key, 0)
        out["compiler.cache.hit_ratio"] = (
            out["compiler.cache.hits"] / cache.calls if cache.calls else 0.0
        )
        out["jobs.blob.write.bytes"] = self.layer("jobs.blob.write").extra.get("bytes", 0)
        result = self.layer("jobs.result")
        for key in ("hits", "misses"):
            out[f"jobs.result.{key}"] = result.extra.get(key, 0)
        out["jobs.result.hit_ratio"] = (
            out["jobs.result.hits"] / result.calls if result.calls else 0.0
        )
        sim = self.layer("sim")
        wavefronts = sim.extra.get("wavefronts", 0)
        out["sim.wavefronts"] = wavefronts
        out["sim.ns_per_wavefront"] = sim.total_s * 1e9 / wavefronts if wavefronts else 0.0
        for name, stats in self.layers.items():
            if name.startswith("suite."):
                out[f"{name}.wall_s"] = stats.total_s
        return out

    # ---- reconciliation ----------------------------------------------------
    def reconcile(self, spans: dict[str, int], counters: dict[str, float],
                  engine=None, figures: int = 0) -> list[str]:
        """Every disagreement between wrapper counts and independent counts.

        ``spans`` counts finished telemetry spans by name, ``counters``
        sums telemetry counters by name over their labels, ``engine`` is
        the run's :class:`repro.jobs.JobEngine` (``None`` on the serial
        path) and ``figures`` the number of figures run.
        """
        calls = {name: stats.calls for name, stats in self.layers.items()}

        def n(layer: str) -> int:
            return calls.get(layer, 0)

        def site(name: str) -> int:
            return self.site_calls.get(name, 0)

        compiles = spans.get("compile", 0)
        verifies = spans.get("verify", 0)
        memo_miss = int(counters.get("verify.memo.miss", 0))
        memo_hit = int(counters.get("verify.memo.hit", 0))
        dce = self.layer("compiler.dce").extra
        programs = engine.programs if engine is not None else None
        results = engine.cache if engine is not None else None
        store = programs is not None and programs.store is not None
        builds = n("kernels.build")
        suite_calls = sum(c for name, c in calls.items() if name.startswith("suite."))
        pipeline_validate = site("repro.compiler.pipeline.validate_kernel")

        checks: list[tuple[str, float, float]] = [
            ("suite figures vs figure spans", suite_calls, spans.get("figure", 0)),
            ("suite figures vs figures run", suite_calls, figures),
            ("cal.time_kernel vs time_kernel spans", n("cal.time_kernel"), spans.get("time_kernel", 0)),
            ("sim vs simulate spans", n("sim"), spans.get("simulate", 0)),
            ("compiler.compile vs compile spans", n("compiler.compile"), compiles),
            ("pipeline validate_kernel vs 2 x compile spans", pipeline_validate, 2 * compiles),
            ("builder validate_kernel vs kernels.build",
             n("il.validate") - pipeline_validate, builds),
            ("compiler.dce vs compile spans", n("compiler.dce"), compiles),
            ("compiler.segments vs compile spans", n("compiler.segments"), compiles),
            ("compiler.vliw vs ALU segments formed", n("compiler.vliw"),
             self.layer("compiler.segments").extra.get("alu", 0)),
            ("compiler.regalloc vs compile spans", n("compiler.regalloc"), compiles),
            ("verify vs verify spans", n("verify"), verifies),
            ("verify spans vs verify.memo hit+miss", verifies, memo_hit + memo_miss),
            ("verify.isa vs verify.memo.miss", n("verify.isa"), memo_miss),
            ("check_lowering vs verify.memo.miss",
             site("repro.verify.differential.check_lowering"), memo_miss),
            ("check_il_pass vs DCE calls that removed code",
             site("repro.verify.differential.check_il_pass"), dce.get("changed", 0)),
            ("verify.digest vs verify spans", n("verify.digest"), verifies),
            ("digest serialisations vs verify.digest",
             site("repro.isa.serialize.program_to_json"), n("verify.digest")),
            ("serialize emit_il vs isa.serialize",
             site("repro.isa.serialize.emit_il"), n("isa.serialize")),
            ("kernels.build present when points ran",
             builds > 0, counters.get("suite.points", 0) > 0),
            ("cached_il_text renders at most once per built kernel",
             site("repro.il.text.emit_il") <= builds, True),
            ("cached_il_text renders when kernels are built",
             site("repro.il.text.emit_il") > 0, builds > 0),
        ]
        if engine is None:
            checks += [
                ("kernels.build vs suite.points (serial)", builds, counters.get("suite.points", 0)),
                ("compiler.cache unused (serial)", n("compiler.cache"), 0),
                ("jobs.result unused (serial)", n("jobs.result"), 0),
                ("jobs.blob.read unused (serial)", n("jobs.blob.read"), 0),
                ("jobs.blob.write unused (serial)", n("jobs.blob.write"), 0),
                ("store serialisations (serial)", site("repro.compiler.cache.program_to_json"), 0),
                ("store loads (serial)", n("isa.deserialize"), 0),
            ]
        else:
            cache = self.layer("compiler.cache").extra
            result = self.layer("jobs.result").extra
            result_hits = int(counters.get("jobs.cache.hit", 0))
            result_misses = int(counters.get("jobs.cache.miss", 0))
            store_loads = (programs.disk_hits + programs.misses) if store else 0
            checks += [
                ("compiler.cache vs engine compile-cache traffic",
                 n("compiler.cache"), programs.hits + programs.misses),
                ("compiler.cache.hits vs engine", cache.get("hits", 0), programs.hits),
                ("compiler.cache.misses vs engine", cache.get("misses", 0), programs.misses),
                ("compiler.cache.disk_hits vs engine", cache.get("disk_hits", 0), programs.disk_hits),
                ("compiler.compile vs compile-cache misses", n("compiler.compile"), programs.misses),
                ("isa.deserialize vs compile-cache disk hits", n("isa.deserialize"), programs.disk_hits),
                ("store serialisations vs compile-cache saves",
                 site("repro.compiler.cache.program_to_json"), programs.serialized),
                ("jobs.result vs jobs.cache hit+miss counters", n("jobs.result"), result_hits + result_misses),
                ("jobs.result.hits vs result cache", result.get("hits", 0), results.hits if results else 0),
                ("jobs.result.misses vs result cache", result.get("misses", 0), results.misses if results else 0),
                ("jobs.blob.read vs result gets + store loads",
                 n("jobs.blob.read"), n("jobs.result") + store_loads),
                ("jobs.blob.write vs result puts + store saves",
                 n("jobs.blob.write"), (results.puts if results else 0) + programs.serialized),
                ("kernels.build within suite.points (engine)",
                 0 < builds <= counters.get("suite.points", 0), True),
            ]
        return [
            f"{name}: wrappers={got} independent={want}"
            for name, got, want in checks
            if got != want
        ]


# ---- per-layer extras ---------------------------------------------------------
#
# ``_AFTER[layer](stats, args, result, before)`` reads a layer's extra counts
# off a successful call; ``_BEFORE[layer](args)`` snapshots state first.


def _dce(stats, args, result, before):
    kernel, removed = result
    stats.add("removed", removed)
    stats.add("changed", kernel is not args[0])


def _segments(stats, args, result, before):
    from repro.compiler.clauses import ALUSegment

    stats.add("alu", sum(isinstance(s, ALUSegment) for s in result))


def _sim(stats, args, result, before):
    stats.add("wavefronts", result.counters.wavefronts_simulated)


def _blob_write(stats, args, result, before):
    store, key = args[0], args[1]
    stats.add("bytes", store.blob_path(key).stat().st_size)


def _compile_cache_state(args):
    cache = args[0]
    return cache.memory_hits, cache.disk_hits, cache.misses


def _compile_cache(stats, args, result, before):
    memory_hits, disk_hits, misses = (
        after - prior for after, prior in zip(_compile_cache_state(args), before)
    )
    stats.add("hits", memory_hits + disk_hits)
    stats.add("disk_hits", disk_hits)
    stats.add("misses", misses)


def _result_cache(stats, args, result, before):
    stats.add("hits" if result is not None else "misses", 1)


_AFTER = {
    "compiler.dce": _dce,
    "compiler.segments": _segments,
    "sim": _sim,
    "jobs.blob.write": _blob_write,
    "compiler.cache": _compile_cache,
    "jobs.result": _result_cache,
}
_BEFORE = {"compiler.cache": _compile_cache_state}


def all_sites() -> list[str]:
    """Every site name :meth:`Tracer.install` wraps."""
    return [name for *_, name in _sites()]


def telemetry_counts() -> tuple[dict[str, int], dict[str, float]]:
    """Finished spans by name and counters summed over labels."""
    from repro import telemetry

    spans: dict[str, int] = {}
    for span in telemetry.get_tracer().finished():
        spans[span.name] = spans.get(span.name, 0) + 1
    counters: dict[str, float] = {}
    for metric in telemetry.metrics():
        if isinstance(metric, telemetry.Counter):
            base = metric.name.split("{", 1)[0]
            counters[base] = counters.get(base, 0) + metric.value
    return spans, counters
