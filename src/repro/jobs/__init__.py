"""Parallel, content-addressed, resumable execution for the suite.

The suite is embarrassingly parallel: 13 figures x ~10 series x dozens
of sweep points, every point an independent compile+simulate unit.  This
package turns a planned sweep into :class:`WorkUnit` values keyed by a
content address (canonical IL text + GPU spec + launch shape + SimConfig
+ code-version salt), replays any unit already present in the on-disk
:class:`ResultCache`, and fans the remainder across a process pool —
reassembling records in submission order so figures are bit-identical
to a serial run.  The cache stores each unit as it finishes, so
rerunning a killed run over the same cache dir continues where it
stopped.

Entry points:

* :meth:`repro.suite.base.MicroBenchmark.run` and
  :func:`repro.suite.runner.run_suite` accept an ``engine=``,
* ``repro figure/suite/grid --jobs N --cache`` on the CLI,
* ``repro cache stats|gc|clear`` for cache maintenance.

See docs/jobs.md for the cache-key specification and interrupted runs.
"""

from repro.jobs.cache import DEFAULT_CACHE_DIR, CacheStats, ResultCache
from repro.jobs.scheduler import JobEngine, JobError, JobOptions, UnitTimeout
from repro.jobs.units import CODE_VERSION, WorkUnit, cache_key, record_point
from repro.jobs.worker import simulate_unit

__all__ = [
    "CODE_VERSION",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "JobEngine",
    "JobError",
    "JobOptions",
    "ResultCache",
    "UnitTimeout",
    "WorkUnit",
    "cache_key",
    "record_point",
    "simulate_unit",
]
