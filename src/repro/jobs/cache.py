"""On-disk result cache: content-addressed JSON blobs.

Layout (default root ``results/cache/``)::

    results/cache/
      objects/ab/<key>.json # one blob per unit record

Blobs are content-addressed by :func:`repro.jobs.units.cache_key`, so a
``get`` is a single path probe; ``stats`` and ``gc`` scan the blobs
themselves (each carries its figure and salt).  The sharded layout, atomic writes and salt-aware
maintenance live in :class:`repro.jobs.blobstore.BlobStore`, shared with
the compiled-program cache (:mod:`repro.compiler.cache`) — docs/jobs.md
describes the two-tier arrangement.

Because :data:`~repro.jobs.units.CODE_VERSION` participates in the key,
a compiler/simulator change makes old entries unreachable rather than
wrong; ``gc`` reaps blobs recorded under a different salt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.jobs.blobstore import BlobStore
from repro.jobs.units import CODE_VERSION, record_point

#: default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = Path("results") / "cache"


@dataclass
class CacheStats:
    """Aggregate cache state plus this session's traffic."""

    entries: int = 0
    bytes: int = 0
    stale: int = 0  #: blobs recorded under a different CODE_VERSION
    hits: int = 0
    misses: int = 0
    puts: int = 0
    by_figure: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "entries": self.entries,
            "bytes": self.bytes,
            "stale": self.stale,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "by_figure": dict(sorted(self.by_figure.items())),
        }


class ResultCache(BlobStore):
    """get/put/stats/gc over the blob store.

    Session hit/miss/put counts live on the instance; one instance is
    shared across every figure of a run so ``repro suite`` reports one
    coherent traffic summary.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        super().__init__(root, subdir="objects", salt=CODE_VERSION)
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # ---- core API --------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """The cached record for ``key`` (validated by
        :func:`~repro.jobs.units.record_point`), or ``None`` (a miss).

        A corrupt blob or a malformed record reads as a miss: the unit
        re-simulates and the fresh ``put`` repairs the entry.
        """
        try:
            record = record_point((self.read(key) or {})["record"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: dict, figure: str | None = None) -> None:
        """Store ``record`` under ``key`` atomically (temp file + rename)."""
        self.write(
            key,
            {
                "key": key,
                "version": CODE_VERSION,
                "figure": figure,
                "created": time.time(),
                "record": record,
            },
        )
        self.puts += 1

    # ---- maintenance -----------------------------------------------------
    def stats(self) -> CacheStats:
        """Scan the store and fold in this session's traffic counters."""
        stats = CacheStats(hits=self.hits, misses=self.misses, puts=self.puts)
        for path, blob in self.iter_blobs():
            stats.entries += 1
            try:
                stats.bytes += path.stat().st_size
            except OSError:
                pass
            if not self.fresh(blob):
                stats.stale += 1
                continue
            figure = blob.get("figure") or "?"
            stats.by_figure[figure] = stats.by_figure.get(figure, 0) + 1
        return stats
