"""Differential tests: every cache's residency against one reference.

:class:`ReferenceResidency` states the residency rule on a bare
``OrderedDict``: over capacity, drop the oldest unpinned key, a dead one
first, and with every key pinned stay over capacity.

* ``CachedBackend`` runs against a pure-Python page-cache model built on
  it (no simulation, no timing) that predicts hit/miss/eviction counts,
  the exact span each read should charge to the inner backend, and
  write-through recency — the harness that pinned the partial-hit and
  write-publish fixes.
* ``GpuCache``, ``TieredBackend`` and ``KvBlockStore`` each run twice on
  one Hypothesis-drawn operation sequence, once on their own
  :class:`~repro.cache.residency.Residency` and once with the reference
  in its place, and must agree on every plan, the resident keys in
  order, the evicted keys and every counter.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import CacheCompletion, CachedBackend
from repro.backends.base import StorageBackend
from repro.cache import GpuCache, ReadaheadConfig
from repro.config import PlatformConfig
from repro.errors import ConfigurationError
from repro.hw.platform import Platform
from repro.net import build_disagg
from repro.serving import (
    KvBlockStore,
    KvLayout,
    LruPolicy,
    SlidingWindowPolicy,
)

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


class ReferenceResidency:
    """The residency rule, written for clarity rather than speed."""

    def __init__(self, capacity, pinned=(), dead=None):
        self.capacity = capacity
        self.pinned = pinned
        self.dead = dead
        self.keys = OrderedDict()

    def __contains__(self, key):
        return key in self.keys

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        return iter(self.keys)

    def touch(self, key):
        self.keys.move_to_end(key)

    def admit(self, key):
        self.keys[key] = None
        self.keys.move_to_end(key)
        evicted = []
        while len(self.keys) > self.capacity:
            unpinned = [k for k in self.keys if k not in self.pinned]
            if not unpinned:
                break  # every key pinned: over capacity
            dead = [k for k in unpinned if self.dead and self.dead(k)]
            victim = (dead or unpinned)[0]
            del self.keys[victim]
            evicted.append(victim)
        return evicted


def _record_evictions(consumer):
    """The list every key ``consumer``'s residency evicts is appended
    to, in eviction order."""
    evicted = []
    residency = consumer.residency
    admit = residency.admit

    def recording_admit(key):
        dropped = admit(key)
        evicted.extend(dropped)
        return dropped

    residency.admit = recording_admit
    return evicted


def _on_core(consumer, reference):
    """Move ``consumer`` onto the reference residency if asked; returns
    the list its residency records every evicted key in."""
    if reference:
        core = consumer.residency
        consumer.residency = ReferenceResidency(
            core.capacity, core.pinned, core.dead
        )
    return _record_evictions(consumer)


def _assert_same_on_both(outcome, *case):
    """``outcome(*case, reference)`` is plain data, so a failing example
    keeps no simulated platform alive; the core and the reference must
    give the same one, and count every key they evicted."""
    core = outcome(*case, reference=False)
    assert core == outcome(*case, reference=True)
    assert core["evictions"] == len(core["evicted"])


class ReferenceCache:
    """What CachedBackend *should* do, in arithmetic only."""

    def __init__(self, capacity_pages):
        self.lru = ReferenceResidency(capacity_pages)
        self.hits = 0
        self.misses = 0
        self.evicted = []
        self.fetches = []  # (lba, nbytes, target_offset) per inner read

    def _touch(self, page):
        self.evicted.extend(self.lru.admit(page))

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
    evicted = _record_evictions(cached)
    reference = ReferenceCache(capacity)

    _replay(platform, cached, ops)
    for is_write, lba, nbytes in ops:
        if is_write:
            reference.write(lba, nbytes)
        else:
            reference.read(lba, nbytes)

    assert cached.hits.total == reference.hits
    assert cached.misses.total == reference.misses
    assert cached.evictions.total == len(reference.evicted)
    assert evicted == reference.evicted
    assert list(cached.residency) == list(reference.lru)
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
    assert 0 in cached.residency
    assert 1 not in cached.residency


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


# -- GpuCache: plans, commits, aborts and fills ------------------------

LINE = 4096
LBAS_PER_LINE = LINE // BLOCK
#: predicts after two accesses and re-probes soon, so short drawn
#: sequences exercise speculative admission, use and waste
EAGER_READAHEAD = ReadaheadConfig(
    depth=2, min_run=2, min_accuracy=0.5, probation=4, cooldown=3
)

#: the lines of one batch: scattered, or a strided run the readahead
#: detector can follow
_gpu_lines = st.one_of(
    st.lists(st.integers(0, 15), min_size=1, max_size=6),
    st.builds(
        lambda start, count, stride: [
            start + i * stride for i in range(count)
        ],
        st.integers(0, 12), st.integers(1, 5), st.integers(1, 2),
    ),
)
_gpu_settle = st.tuples(
    st.sampled_from(["commit_demand", "abort_demand",
                     "commit_speculative", "abort_speculative"]),
    st.integers(0, 63),
)
_gpu_op = st.one_of(
    st.tuples(st.just("access"), _gpu_lines, st.integers(0, 1)),
    _gpu_settle,
    _gpu_settle,
    st.tuples(
        st.just("fill"),
        st.integers(0, 16 * LBAS_PER_LINE),
        st.integers(1, 3 * LINE),
    ),
    st.builds(  # a write-back of whole lines
        lambda line, count: ("fill", line * LBAS_PER_LINE, count * LINE),
        st.integers(0, 15), st.integers(1, 3),
    ),
)
_gpu_case = st.tuples(
    st.lists(_gpu_op, min_size=1, max_size=40),
    st.integers(1, 4),
    st.booleans(),
)


def _gpu_cache_outcome(ops, capacity, readahead, reference):
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    cache = GpuCache(
        platform, capacity_bytes=capacity * LINE, line_bytes=LINE,
        readahead=EAGER_READAHEAD if readahead else False,
    )
    evicted = _on_core(cache, reference)
    plans = []
    # plans whose demand / speculative lines are still unsettled
    unsettled = {"demand": [], "speculative": []}
    for op in ops:
        if op[0] == "access":
            lbas = [line * LBAS_PER_LINE for line in op[1]]
            plan = cache.access_batch(lbas, LINE, consumer=op[2])
            unsettled["demand"].append(plan)
            unsettled["speculative"].append(plan)
            plans.append((plan.hit_lbas, plan.missing_lbas,
                          plan.speculative_lbas))
        elif op[0] == "fill":
            cache.fill([op[1]], granularity=op[2])
        else:
            pending = unsettled[op[0].split("_")[1]]
            if pending:
                getattr(cache, op[0])(pending.pop(op[1] % len(pending)))
    return {
        "plans": plans, "resident": list(cache.residency),
        "evicted": evicted,
        **{counter: getattr(cache, counter) for counter in (
            "hits", "misses", "evictions", "fills", "readahead_issued",
            "readahead_used", "readahead_wasted",
        )},
    }


@settings(max_examples=60, deadline=None)
@given(case=_gpu_case)
def test_gpu_cache_matches_the_reference_residency(case):
    _assert_same_on_both(_gpu_cache_outcome, *case)


# -- TieredBackend: reads, writes and flushes on a healthy fabric ------

_tier_op = st.one_of(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(0, 12 * LBAS_PER_PAGE),
        st.integers(1, 3 * PAGE),
    ),
    st.tuples(st.just("flush"), st.integers(0, 3)),
)
_tier_case = st.tuples(
    st.lists(_tier_op, min_size=1, max_size=30),
    st.integers(1, 4),          # capacity in pages
    st.sampled_from([1, 4, 8]),  # page_blocks
    st.integers(1, 6),          # flush watermark
    st.integers(1, 3),          # flush burst
)


def _tier_outcome(ops, capacity, page_blocks, watermark, burst,
                  reference):
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    tier = build_disagg(
        platform, num_nodes=1, functional=False,
        capacity_bytes=capacity * page_blocks * BLOCK,
        page_blocks=page_blocks, flush_watermark=watermark,
        flush_burst=burst,
    )
    evicted = _on_core(tier, reference)

    def workload():
        for op in ops:
            if op[0] == "flush":
                yield from tier.flush(max_pages=op[1] or None)
            else:
                yield from tier.io(op[1], op[2], is_write=op[0] == "write")

    platform.env.run(platform.env.process(workload()))
    return {
        "resident": list(tier.residency), "evicted": evicted,
        "dirty": tier.dirty_pages(), "sim_end": platform.env.now,
        **{counter: getattr(tier, counter).total for counter in (
            "hits", "misses", "evictions", "flushed_pages",
        )},
    }


@settings(max_examples=60, deadline=None)
@given(case=_tier_case)
def test_tiered_backend_matches_the_reference_residency(case):
    _assert_same_on_both(_tier_outcome, *case)


# -- KvBlockStore: appends, acquires, admits and pins ------------------

TOKENS_PER_BLOCK = KvLayout().tokens_per_block

_kv_op = st.one_of(
    st.tuples(st.just("append"), st.integers(0, 3),
              st.integers(0, 6 * TOKENS_PER_BLOCK)),
    st.tuples(st.sampled_from(["begin", "end"]), st.integers(0, 3)),
    st.tuples(st.just("admit"), st.integers(0, 3), st.integers(0, 63)),
)
_kv_ops = st.lists(_kv_op, min_size=1, max_size=40)
#: (window_blocks, prefix_blocks) of a SlidingWindowPolicy
_kv_window = st.tuples(st.integers(1, 3), st.integers(0, 2))
_kv_case = st.tuples(_kv_ops, st.integers(1, 6), st.none() | _kv_window)


def _kv_store_outcome(ops, capacity, window, reference):
    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    store = KvBlockStore(
        platform, KvLayout(), capacity_blocks=capacity,
        policy=LruPolicy() if window is None
        else SlidingWindowPolicy(*window),
    )
    evicted = _on_core(store, reference)
    lookups = []
    pinned = {}  # session -> the blocks its in-flight turn pinned
    for op in ops:
        session = op[1]
        if op[0] == "append":
            store.append_tokens(session, op[2])
        elif op[0] == "begin":
            # the serving engine's turn: pin what it needs, load it
            hits, missing = store.acquire(session)
            lookups.append((hits, missing))
            pinned[session] = hits + [block for block, _ in missing]
            store.pin(pinned[session])
            for block, _ in missing:
                store.admit(block)
        elif op[0] == "end":
            store.unpin(pinned.pop(session, ()))
        else:
            blocks = store.session_blocks(session)
            if blocks:
                store.admit(blocks[op[2] % len(blocks)])
    return {
        "lookups": lookups, "resident": list(store.residency),
        "evicted": evicted,
        **{counter: getattr(store, counter) for counter in (
            "hits", "misses", "evictions", "overflow_admissions",
        )},
    }


@settings(max_examples=60, deadline=None)
@given(ops=_kv_ops, capacity=st.integers(1, 6))
def test_kv_block_store_matches_the_reference_residency(ops, capacity):
    _assert_same_on_both(_kv_store_outcome, ops, capacity, None)


@settings(max_examples=60, deadline=None)
@given(ops=_kv_ops, capacity=st.integers(1, 6), window=_kv_window)
def test_windowed_kv_block_store_matches_the_reference_residency(
    ops, capacity, window,
):
    _assert_same_on_both(_kv_store_outcome, ops, capacity, window)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(
    st.tuples(st.just(_gpu_cache_outcome), _gpu_case),
    st.tuples(st.just(_tier_outcome), _tier_case),
    st.tuples(st.just(_kv_store_outcome), _kv_case),
))
def test_every_consumer_matches_the_reference_residency_deep(case):
    outcome, args = case
    _assert_same_on_both(outcome, *args)


# -- geometry: one integer rule for every cache ------------------------

def _spy_cache(page_bytes, capacity_bytes=4096):
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    return CachedBackend(
        SpyBackend(platform), capacity_bytes, page_bytes=page_bytes
    )


def _gpu_cache():
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    return GpuCache(platform, capacity_bytes=4 * LINE, readahead=False)


def _gpu_access(granularity):
    cache = _gpu_cache()
    try:
        cache.access_batch([0], granularity=granularity)
    finally:
        assert cache.hits == cache.misses == 0


def _tier(page_blocks):
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    build_disagg(platform, num_nodes=1, functional=False,
                 page_blocks=page_blocks)


def _kv_store(capacity_blocks=8):
    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    return KvBlockStore(platform, capacity_blocks=capacity_blocks)


def _kv_append(tokens):
    store = _kv_store()
    try:
        store.append_tokens(0, tokens)
    finally:
        assert store.session_tokens(0) == 0
        assert store.allocated_blocks == 0


def _gpu_fill(granularity):
    cache = _gpu_cache()
    try:
        cache.fill([0, 8], granularity=granularity)
    finally:
        assert cache.fills == cache.resident_lines == 0


def _tier_capacity(capacity_bytes):
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    try:
        build_disagg(platform, num_nodes=1, functional=False,
                     capacity_bytes=capacity_bytes)
    finally:
        # no node was built: nothing was put on the event heap
        assert platform.env.peek() == float("inf")


@pytest.mark.parametrize("build", [
    pytest.param(lambda: _spy_cache(0), id="zero page_bytes"),
    pytest.param(lambda: _spy_cache(-4096), id="negative page_bytes"),
    pytest.param(lambda: _spy_cache(True), id="boolean page_bytes"),
    pytest.param(
        lambda: GpuCache(
            Platform(PlatformConfig(num_ssds=1), functional=False),
            capacity_bytes=4 * LINE, line_bytes=4096.0,
        ),
        id="float line_bytes",
    ),
    pytest.param(lambda: _gpu_access(100.5), id="fractional granularity"),
    pytest.param(lambda: _gpu_access(True), id="boolean granularity"),
    pytest.param(lambda: _tier(1.5), id="fractional page_blocks"),
    pytest.param(lambda: _kv_store(1.5), id="fractional capacity_blocks"),
    pytest.param(lambda: _kv_store(True), id="boolean capacity_blocks"),
    pytest.param(lambda: _kv_append(1.5), id="fractional token count"),
    # the capacities and the write-back fill size
    pytest.param(lambda: _gpu_fill(1.5), id="fractional fill granularity"),
    pytest.param(lambda: _gpu_fill(True), id="boolean fill granularity"),
    pytest.param(lambda: _gpu_fill(0), id="zero fill granularity"),
    pytest.param(lambda: _gpu_fill(-4096), id="negative fill granularity"),
    pytest.param(
        lambda: GpuCache(
            Platform(PlatformConfig(num_ssds=1), functional=False),
            capacity_bytes=16384.5,
        ),
        id="fractional GpuCache capacity_bytes",
    ),
    pytest.param(
        lambda: _spy_cache(PAGE, capacity_bytes=16384.5),
        id="fractional CachedBackend capacity_bytes",
    ),
    pytest.param(
        lambda: _tier_capacity(2 ** 20 + 0.5),
        id="fractional tier capacity_bytes",
    ),
])
def test_cache_geometry_rejects_a_non_integer_before_any_state_changes(
    build,
):
    with pytest.raises(ConfigurationError):
        build()


def test_cache_geometry_takes_numpy_integers():
    assert _spy_cache(np.int64(PAGE)).page_bytes == PAGE
    cache = _gpu_cache()
    assert cache.access_batch([0], granularity=np.int64(LINE)).missing_lbas
    store = _kv_store(np.int64(8))
    assert len(store.append_tokens(0, np.int64(TOKENS_PER_BLOCK))) == 2
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    tier = build_disagg(platform, num_nodes=1, functional=False,
                        page_blocks=np.int64(8))
    assert tier.page_bytes == 8 * BLOCK
    cache.fill([8], granularity=np.int64(LINE))
    assert cache.fills == 1
    assert GpuCache(
        platform, capacity_bytes=np.int64(4 * LINE)
    ).capacity_lines == 4
    host = _spy_cache(PAGE, capacity_bytes=np.int64(4 * PAGE))
    assert host.capacity_pages == 4
    tier = build_disagg(platform, num_nodes=1, functional=False,
                        capacity_bytes=np.int64(2 ** 20))
    assert tier.capacity_pages == 2 ** 20 // tier.page_bytes

