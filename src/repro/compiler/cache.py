"""Content-addressed compiled-program cache (the JIT-kernel-cache analog).

The result cache (:mod:`repro.jobs`) made *simulation* content-addressed;
this module does the same for compilation.  A :class:`CompileCache`
fronts :func:`~repro.compiler.pipeline.compile_kernel` with two tiers:

1. the **current program** in memory — the jobs engine runs pending
   units in compile-group order (docs/jobs.md), so every reuse follows
   the previous request and one slot is all the memory tier needs;
2. an optional **on-disk shard store** (:class:`ProgramStore`, built on
   the same :class:`~repro.jobs.blobstore.BlobStore` machinery as the
   result cache) holding the stable JSON serialization from
   :mod:`repro.isa.serialize` — warm-start across processes and runs.

Keys hash everything compiled output depends on: the canonical IL text,
the clause-size options, the resolved verify flag,
:data:`~repro.jobs.units.CODE_VERSION` and the serialization schema.
The GPU is not part of the key: ``compile_kernel`` reads nothing from it
but the clause-size options, so chips with equal options share programs.
A cache hit therefore *is* the verified compile it replaces —
verification ran when the entry was created, under the same key — and
the differential round-trip tests prove deserialized programs execute
bitwise-identically.

The cache is never ambient: plain ``compile_kernel`` calls stay
uncached.  The jobs engine owns one (``JobEngine.programs``), and each
pool task builds its own; either asks it for a unit's program and hands
that program to the launch (``time_kernel(program=)``).  Traffic is
observable through the ``compile.cache.hit{layer=memory|disk}`` /
``compile.cache.miss`` / ``compile.cache.serialize`` counters
(docs/telemetry.md).
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro import telemetry
from repro.il.text import cached_il_text
from repro.jobs.blobstore import BlobStore
from repro.jobs.units import CODE_VERSION
from repro.isa.serialize import (
    SCHEMA_VERSION,
    SerializationError,
    program_from_json,
    program_to_json,
)

if TYPE_CHECKING:
    from repro.arch.specs import GPUSpec
    from repro.compiler.pipeline import CompileOptions
    from repro.il.module import ILKernel
    from repro.isa.program import ISAProgram

def compile_cache_key(
    il_text: str, options: "CompileOptions", verify: bool
) -> str:
    """The compiled program's content address (hex, 40 chars)."""
    material = {
        "version": CODE_VERSION,
        "schema": SCHEMA_VERSION,
        "il": hashlib.sha256(il_text.encode()).hexdigest(),
        "max_tex_per_clause": options.max_tex_per_clause,
        "max_alu_per_clause": options.max_alu_per_clause,
        "verify": bool(verify),
    }
    digest = hashlib.sha256(
        json.dumps(material, sort_keys=True).encode()
    ).hexdigest()
    return digest[:40]


class ProgramStore(BlobStore):
    """On-disk compiled programs: ``<root>/programs/ab/<key>.json``.

    Shares the result cache's root by default (``results/cache/``), in
    its own shard subtree, so ``repro cache stats/gc/clear`` maintain
    both tiers together.
    """

    def __init__(self, root: str | Path) -> None:
        super().__init__(root, subdir="programs", salt=CODE_VERSION)

    def load(
        self, key: str, kernel: "ILKernel | None" = None
    ) -> "ISAProgram | None":
        """Deserialize the stored program, or ``None`` (counted a miss).

        A corrupt or stale blob reads as a miss — the caller recompiles
        and the fresh ``save`` repairs the entry.  ``kernel`` attaches
        the caller's kernel instead of re-parsing the payload's IL text
        (sound whenever ``key`` was derived from that kernel's IL hash);
        this is what makes a warm load parse-free.
        """
        blob = self.read(key)
        if not self.fresh(blob):
            return None
        try:
            return program_from_json(blob["program"], kernel=kernel)
        except (KeyError, SerializationError):
            return None

    def save(self, key: str, program: "ISAProgram") -> None:
        self.write(
            key,
            {
                "key": key,
                "version": CODE_VERSION,
                "created": time.time(),
                "program": program_to_json(program),
            },
        )


class CompileCache:
    """Two-tier compile cache; one instance per engine / pool task."""

    def __init__(self, store: ProgramStore | None = None) -> None:
        self.store = store
        #: ``(key, program)`` of the most recent request, if any.
        self._current: tuple[str, "ISAProgram"] | None = None
        # Session traffic, mirrored into telemetry counters when enabled.
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.serialized = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def release(self) -> None:
        """Drop the in-memory program (its compile group is done)."""
        self._current = None

    # ---- the compile front door ------------------------------------------
    def get_or_compile(
        self,
        kernel: "ILKernel",
        gpu: "GPUSpec | None" = None,
        options: "CompileOptions | None" = None,
        verify: bool | None = None,
    ) -> "ISAProgram":
        """A compiled program for ``kernel``, compiling at most once per key
        while requests for that key arrive back to back (or ever, with a
        store).

        Resolves ``options``/``verify`` exactly like ``compile_kernel``
        so the key matches what an uncached compile would have done.  A
        hit (either tier) skips the compile *and* its verification — the
        key includes the verify flag, so the cached entry was produced
        under the same verification the caller asked for.
        """
        from repro.compiler.pipeline import CompileOptions, compile_kernel
        from repro.verify.engine import default_verify

        if verify is None:
            verify = default_verify()
        if options is None:
            options = (
                CompileOptions.for_gpu(gpu) if gpu is not None
                else CompileOptions()
            )
        key = compile_cache_key(cached_il_text(kernel), options, verify)

        if self._current is not None and self._current[0] == key:
            self.memory_hits += 1
            self._count("compile.cache.hit", layer="memory")
            return self._current[1]

        program = (
            self.store.load(key, kernel=kernel)
            if self.store is not None
            else None
        )
        if program is not None:
            self.disk_hits += 1
            self._count("compile.cache.hit", layer="disk")
        else:
            self.misses += 1
            self._count("compile.cache.miss")
            program = compile_kernel(kernel, gpu, options, verify=verify)
            if self.store is not None:
                self.store.save(key, program)
                self.serialized += 1
                self._count("compile.cache.serialize")
        self._current = (key, program)
        return program

    @staticmethod
    def _count(name: str, **labels) -> None:
        if telemetry.enabled():
            telemetry.metrics().counter(name, **labels).inc()


__all__ = [
    "CompileCache",
    "ProgramStore",
    "compile_cache_key",
]
