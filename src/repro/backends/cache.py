"""Host-memory page cache wrapper (the Ginex / MariusGNN ingredient).

The paper's related work notes that the CPU-managed GNN systems "focus on
utilizing CPU memory to cache data to reduce the data amount to be
accessed in the SSD without considering the SSD access process".
:class:`CachedBackend` composes that idea with any control plane: an LRU
page cache in CPU DRAM sits in front of the SSDs.

* **hit** — the page is served from DRAM (one bus crossing, plus the
  host->GPU copy when the consumer is the GPU);
* **miss** — the underlying backend fetches the page and the cache
  admits it, evicting LRU pages when over capacity.

Writes go through (write-through) and update cached copies so reads
never observe stale data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.backends.base import StorageBackend
from repro.cache.residency import (
    Residency,
    integer_at_least,
    miss_window,
    pages_of,
)
from repro.sim.stats import Counter


@dataclass
class CacheCompletion:
    """Typed completion for requests fully served from the cache.

    Device completions are :class:`~repro.hw.nvme.CQE` objects whose
    ``command_id`` keys completion dispatchers and watchdogs; a cache
    hit never had a device command.  It used to be faked with the
    sentinel ``CQE(command_id=-1)`` — callers keying on ``command_id``
    (the blockio/SPDK/BaM dispatchers, coalesced-group owners) only ever
    see ids minted from real SQEs, but the sentinel could still collide
    in any future map keyed by completion id.  ``command_id`` is
    ``None`` here so an accidental lookup fails loudly instead.
    """

    pages: int = 0
    nbytes: int = 0
    status: int = 0
    complete_time: float = 0.0
    command_id: Optional[int] = None
    source: str = "host-cache"
    value: Any = None


class CachedBackend(StorageBackend):
    """LRU host cache in front of another backend."""

    def __init__(
        self,
        inner: StorageBackend,
        capacity_bytes: int,
        page_bytes: int = 4096,
        to_gpu: bool = True,
    ):
        page_bytes = integer_at_least("page_bytes", page_bytes)
        capacity_bytes = integer_at_least(
            "capacity_bytes", capacity_bytes, minimum=page_bytes
        )
        super().__init__(inner.platform, reliability=inner.reliability)
        self.inner = inner
        self.model_name = inner.model_name
        self.capacity_pages = capacity_bytes // page_bytes
        self.page_bytes = page_bytes
        self.to_gpu = to_gpu
        #: resident page ids, least recently used first
        self.residency = Residency(self.capacity_pages)
        self.hits = Counter(self.env)
        self.misses = Counter(self.env)
        self.evictions = Counter(self.env)
        #: (registry, hit counter, miss counter, hit-rate gauge) once
        #: the live metrics registry has been seen (lazy: the cache may
        #: be built before ``install_metrics`` runs)
        self._instruments = None

    @property
    def name(self) -> str:
        return f"{self.inner.name}+cache"

    def _touch(self, page: int) -> None:
        evicted = self.residency.admit(page)
        if evicted:
            self.evictions.add(len(evicted))

    def _publish(self) -> None:
        """Mirror the cache counters into the live metrics registry.

        Pure arithmetic on the registry (never touches the event heap),
        guarded on ``metrics.enabled`` like every hot-path push, so a
        metrics-on run stays bit-identical in simulated history.
        """
        metrics = self.env.metrics
        if not metrics.enabled:
            return
        registry = metrics.registry
        if self._instruments is None or self._instruments[0] is not registry:
            specs = (
                ("cam_cache_hits_total", "counter",
                 "host-cache pages served from DRAM"),
                ("cam_cache_misses_total", "counter",
                 "host-cache pages fetched from the inner backend"),
                ("cam_cache_hit_rate", "gauge",
                 "host-cache hits / lookups so far"),
            )
            children = []
            for name, kind, help_text in specs:
                family = registry.get(name)
                if family is None:
                    family = registry.register(name, kind, help=help_text)
                children.append(family.child())
            self._instruments = (registry, *children)
        _, hits, misses, hit_rate = self._instruments
        hits.set_total(self.hits.total)
        misses.set_total(self.misses.total)
        hit_rate.set(self.hit_rate())

    def io(
        self,
        lba: int,
        nbytes: int,
        is_write: bool = False,
        payload=None,
        target=None,
        target_offset: int = 0,
        ssd_index: Optional[int] = None,
    ) -> Generator:
        block = self.platform.config.ssd.block_size
        pages = pages_of(lba, nbytes, block, self.page_bytes)
        if is_write:
            # write-through: device write, cached copies refreshed
            cqe = yield from self.inner.io(
                lba, nbytes, is_write=True, payload=payload,
                target=target, target_offset=target_offset,
                ssd_index=ssd_index,
            )
            for page in pages:
                if page in self.residency:
                    self._touch(page)
            self._publish()
            return cqe

        missing = [page for page in pages if page not in self.residency]
        if not missing:
            self.hits.add(len(pages))
            self._publish()
            for page in pages:
                self._touch(page)
            # served from DRAM: one bus crossing (+ copy to GPU)
            yield from self.platform.dram.access(nbytes)
            if self.to_gpu:
                yield from self.platform.gpu.memcpy(nbytes)
            return CacheCompletion(
                pages=len(pages),
                nbytes=nbytes,
                complete_time=self.env.now,
            )

        # partial or full miss: hits and misses counted per page, and
        # only the miss window is charged to the inner backend
        self.hits.add(len(pages) - len(missing))
        self.misses.add(len(missing))
        self._publish()
        span_start, span_end = miss_window(
            lba, nbytes, missing, block, self.page_bytes
        )
        span_nbytes = span_end - span_start
        cqe = yield from self.inner.io(
            span_start // block, span_nbytes, is_write=False,
            payload=payload, target=target,
            target_offset=target_offset + (span_start - lba * block),
            ssd_index=ssd_index,
        )
        # admission costs one DRAM crossing for the staged copy
        yield from self.platform.dram.access(span_nbytes)
        hit_bytes = nbytes - span_nbytes
        if hit_bytes > 0:
            # the resident edges are served like a hit
            yield from self.platform.dram.access(hit_bytes)
            if self.to_gpu:
                yield from self.platform.gpu.memcpy(hit_bytes)
        for page in pages:
            self._touch(page)
        return cqe

    def hit_rate(self) -> float:
        total = self.hits.total + self.misses.total
        return self.hits.total / total if total else 0.0
