"""Property-based test: the CachedBackend's LRU against a reference."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import CachedBackend, make_backend
from repro.config import PlatformConfig
from repro.hw.platform import Platform


class _ReferenceLRU:
    """Straightforward LRU over page ids."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._pages = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, page):
        if page in self._pages:
            self.hits += 1
            self._pages.move_to_end(page)
        else:
            self.misses += 1
            self._pages[page] = None
            self._pages.move_to_end(page)
            while len(self._pages) > self.capacity:
                self._pages.popitem(last=False)


@given(
    capacity=st.integers(1, 8),
    accesses=st.lists(st.integers(0, 15), min_size=1, max_size=80),
)
@settings(max_examples=40, deadline=None)
def test_cache_hit_miss_sequence_matches_reference(capacity, accesses):
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    inner = make_backend("spdk", platform, to_gpu=False)
    cache = CachedBackend(inner, capacity_bytes=capacity * 4096,
                          to_gpu=False)
    reference = _ReferenceLRU(capacity)

    def workload():
        for page in accesses:
            yield from cache.io(page * 8, 4096)  # page-aligned 4 KiB

    platform.env.run(platform.env.process(workload()))
    for page in accesses:
        reference.access(page)
    assert cache.hits.total == reference.hits
    assert cache.misses.total == reference.misses


@given(
    capacity=st.integers(1, 6),
    reads=st.lists(st.integers(0, 9), min_size=1, max_size=40),
    write_page=st.integers(0, 9),
)
@settings(max_examples=30, deadline=None)
def test_cache_writes_never_admit_new_pages(capacity, reads, write_page):
    """Write-through updates cached copies but does not admit pages, so
    the resident set is determined by reads alone."""
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    inner = make_backend("spdk", platform, to_gpu=False)
    cache = CachedBackend(inner, capacity_bytes=capacity * 4096,
                          to_gpu=False)

    def workload():
        for page in reads:
            yield from cache.io(page * 8, 4096)
        resident_before = set(cache.residency)
        yield from cache.io(write_page * 8, 4096, is_write=True)
        assert set(cache.residency) == resident_before

    platform.env.run(platform.env.process(workload()))
