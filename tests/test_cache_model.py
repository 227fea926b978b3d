"""Differential test: CachedBackend vs a reference page-cache model.

A pure-Python LRU page cache (no simulation, no timing) replays the same
operation sequence and predicts hit/miss/eviction counts, the exact span
each read should charge to the inner backend, and write-through recency.
Hypothesis drives random op sequences through both and any divergence is
a bug in the accounting — this is the harness that pinned the partial-hit
and write-publish fixes.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import CacheCompletion, CachedBackend
from repro.backends.base import StorageBackend
from repro.config import PlatformConfig
from repro.hw.platform import Platform

PAGE = 4096
BLOCK = 512
LBAS_PER_PAGE = PAGE // BLOCK


class SpyBackend(StorageBackend):
    """Inner backend that records every fetch and costs ~nothing."""

    model_name = "spdk"  # any name the throughput model knows

    def __init__(self, platform):
        super().__init__(platform)
        self.calls = []

    @property
    def name(self) -> str:
        return "spy"

    def io(self, lba, nbytes, is_write=False, payload=None, target=None,
           target_offset=0, ssd_index=None):
        self.calls.append((lba, nbytes, bool(is_write), target_offset))
        yield self.env.timeout(1e-9)
        return CacheCompletion(nbytes=nbytes, complete_time=self.env.now)


class ReferenceCache:
    """What CachedBackend *should* do, in arithmetic only."""

    def __init__(self, capacity_pages):
        self.capacity_pages = capacity_pages
        self.lru = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.fetches = []  # (lba, nbytes, target_offset) per inner read

    def _touch(self, page):
        self.lru[page] = None
        self.lru.move_to_end(page)
        while len(self.lru) > self.capacity_pages:
            self.lru.popitem(last=False)
            self.evictions += 1

    def pages_of(self, lba, nbytes):
        start = lba * BLOCK
        first = start // PAGE
        last = (start + max(1, nbytes) - 1) // PAGE
        return list(range(first, last + 1))

    def write(self, lba, nbytes):
        for page in self.pages_of(lba, nbytes):
            if page in self.lru:
                self._touch(page)

    def read(self, lba, nbytes):
        pages = self.pages_of(lba, nbytes)
        missing = [p for p in pages if p not in self.lru]
        self.hits += len(pages) - len(missing)
        self.misses += len(missing)
        if missing:
            start_byte = lba * BLOCK
            end_byte = start_byte + nbytes
            span_start = max(start_byte, missing[0] * PAGE)
            span_lba = span_start // BLOCK
            span_start = span_lba * BLOCK
            span_end = min(end_byte, (missing[-1] + 1) * PAGE)
            self.fetches.append(
                (span_lba, span_end - span_start, span_start - start_byte)
            )
        for page in pages:
            self._touch(page)


def _build(capacity_pages=8):
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    spy = SpyBackend(platform)
    cached = CachedBackend(
        spy, capacity_bytes=capacity_pages * PAGE, page_bytes=PAGE,
        to_gpu=False,
    )
    return platform, spy, cached


def _replay(platform, cached, ops):
    def proc():
        for is_write, lba, nbytes in ops:
            yield from cached.io(lba, nbytes, is_write=is_write)

    platform.env.run(platform.env.process(proc()))


# ops: (is_write, lba, nbytes); lbas page-aligned or not, spans 1..6 pages
_op = st.tuples(
    st.booleans(),
    st.integers(min_value=0, max_value=24 * LBAS_PER_PAGE),
    st.integers(min_value=1, max_value=6 * PAGE),
)


_ops = st.lists(_op, min_size=1, max_size=40)
_capacity = st.integers(min_value=1, max_value=12)


@settings(max_examples=60, deadline=None)
@given(ops=_ops, capacity=_capacity)
def test_cached_backend_matches_reference_model(ops, capacity):
    _assert_matches_reference(ops, capacity)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(ops=_ops, capacity=_capacity)
def test_cached_backend_matches_reference_model_deep(ops, capacity):
    _assert_matches_reference(ops, capacity)


def _assert_matches_reference(ops, capacity):
    platform, spy, cached = _build(capacity)
    reference = ReferenceCache(capacity)

    _replay(platform, cached, ops)
    for is_write, lba, nbytes in ops:
        if is_write:
            reference.write(lba, nbytes)
        else:
            reference.read(lba, nbytes)

    assert cached.hits.total == reference.hits
    assert cached.misses.total == reference.misses
    assert cached.evictions.total == reference.evictions
    assert list(cached._lru) == list(reference.lru)
    reads = [(lba, nbytes, off) for lba, nbytes, w, off in spy.calls
             if not w]
    assert reads == reference.fetches


def test_partial_hit_regression_strided_read_over_half_resident_span():
    """Pin the partial-hit fix: pages 0-3 resident, then an 8-page read.

    Before the fix every page of a partially resident span was counted
    a miss and the whole span was refetched; now the resident half is
    per-page hits and only the missing 4-page window goes to the inner
    backend.
    """
    platform, spy, cached = _build(capacity_pages=16)

    def proc():
        # warm pages 0..3 one strided step at a time
        for page in range(4):
            yield from cached.io(page * LBAS_PER_PAGE, PAGE)
        spy.calls.clear()
        baseline_hits = cached.hits.total
        yield from cached.io(0, 8 * PAGE)
        return baseline_hits

    baseline_hits = platform.env.run(platform.env.process(proc()))
    assert cached.hits.total - baseline_hits == 4     # pages 0-3
    assert cached.misses.total == 4 + 4               # warmup + pages 4-7
    # exactly one fetch, covering only pages 4..7
    assert spy.calls == [(4 * LBAS_PER_PAGE, 4 * PAGE, False, 4 * PAGE)]


def test_interior_hit_is_refetched_within_one_span():
    """A resident page strictly inside the missing window is refetched
    (one contiguous inner request) but still counted as a hit."""
    platform, spy, cached = _build(capacity_pages=16)

    def proc():
        yield from cached.io(1 * LBAS_PER_PAGE, PAGE)  # page 1 resident
        spy.calls.clear()
        yield from cached.io(0, 3 * PAGE)              # pages 0..2

    platform.env.run(platform.env.process(proc()))
    assert cached.hits.total == 1
    assert cached.misses.total == 1 + 2
    assert spy.calls == [(0, 3 * PAGE, False, 0)]


def test_write_path_publishes_metrics():
    """Regression: writes used to skip _publish(), so cam_cache_* froze
    at the last read on write-heavy phases."""
    from repro.obs import install_metrics

    platform, spy, cached = _build()

    def warm():
        yield from cached.io(0, PAGE)              # miss, metrics off

    platform.env.run(platform.env.process(warm()))
    # metrics come up *after* the read: only the write's publish can
    # mirror the counters into the fresh registry
    metrics = install_metrics(platform.env)

    def proc():
        yield from cached.io(0, PAGE, is_write=True)

    platform.env.run(platform.env.process(proc()))
    snapshot = metrics.registry.snapshot()
    assert snapshot["cam_cache_misses_total"] == 1
    assert snapshot["cam_cache_hit_rate"] == 0.0


def test_write_through_refreshes_recency():
    """A write to a cached page must move it to MRU so it is not the
    next eviction victim."""
    platform, spy, cached = _build(capacity_pages=2)

    def proc():
        yield from cached.io(0, PAGE)                       # page 0
        yield from cached.io(LBAS_PER_PAGE, PAGE)           # page 1
        yield from cached.io(0, PAGE, is_write=True)        # refresh 0
        yield from cached.io(2 * LBAS_PER_PAGE, PAGE)       # evicts 1

    platform.env.run(platform.env.process(proc()))
    assert cached._cached(0)
    assert not cached._cached(1)


def test_full_hit_returns_typed_completion():
    platform, spy, cached = _build()

    def proc():
        yield from cached.io(0, PAGE)
        cqe = yield from cached.io(0, PAGE)
        return cqe

    cqe = platform.env.run(platform.env.process(proc()))
    assert isinstance(cqe, CacheCompletion)
    assert cqe.command_id is None
    assert cqe.source == "host-cache"
    assert cqe.pages == 1
