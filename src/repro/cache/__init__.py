"""GPU-memory cache tier with readahead prefetching (see
docs/CACHING.md).

* :class:`GpuCache` — fixed-size cache lines in GPU DRAM, plan/commit
  access protocol, per-consumer readahead, ``cam_gpucache_*`` metrics;
* :class:`Residency` — the residency core every cache of the stack
  evicts through (:mod:`repro.cache.residency`);
* :mod:`repro.cache.readahead` — the stride detector + accuracy loop.
"""

from repro.cache.gpucache import CachePlan, GpuCache
from repro.cache.readahead import ReadaheadConfig, ReadaheadStream
from repro.cache.residency import Residency

__all__ = [
    "CachePlan",
    "GpuCache",
    "ReadaheadConfig",
    "ReadaheadStream",
    "Residency",
]
