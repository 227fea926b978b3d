"""The residency core under every cache of the stack.

The host page cache (:class:`~repro.backends.cache.CachedBackend`), the
GPU cache (:class:`~repro.cache.gpucache.GpuCache`), the remote tier's
local pages (:class:`~repro.net.tiered.TieredBackend`) and the KV block
store (:class:`~repro.serving.kvstore.KvBlockStore`) each keep their
resident keys in one :class:`Residency` and evict by its one rule.
Each owner keeps its own counters and metric families.  The page
geometry of the three byte-addressed caches is :func:`pages_of`, and a
read that misses fetches the :func:`miss_window`.

Pure container state: nothing here touches the event heap.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Container, List, Optional, Sequence, Tuple

from repro.checks import as_integer
from repro.errors import ConfigurationError


class Residency(OrderedDict):
    """Resident keys in recency order, least recently used first, up to
    ``capacity``.

    Over capacity it drops the oldest key not in ``pinned``, preferring
    one that ``dead`` marks as never needed again.  With every key
    pinned it stays over capacity rather than drop one.  ``pinned`` is
    the owner's live container, read at each eviction.

    A dict subclass, so ``key in residency`` stays the C-level lookup.
    """

    def __init__(
        self,
        capacity: int,
        pinned: Container = (),
        dead: Optional[Callable[[object], bool]] = None,
    ):
        super().__init__()
        self.capacity = capacity
        self.pinned = pinned
        self.dead = dead

    #: mark a resident key most recently used (``KeyError`` if it is not
    #: resident); it never evicts
    touch = OrderedDict.move_to_end

    def admit(self, key) -> List:
        """Make ``key`` resident and most recently used; returns the keys
        dropped to get back within capacity, in eviction order."""
        self[key] = None
        self.move_to_end(key)
        evicted = []
        while len(self) > self.capacity:
            victim = self._victim()
            if victim is None:
                break
            del self[victim]
            evicted.append(victim)
        return evicted

    def _victim(self):
        """The oldest unpinned key, or the oldest unpinned dead one if
        any; ``None`` when every key is pinned."""
        pinned, dead = self.pinned, self.dead
        fallback = None
        for key in self:
            if key in pinned:
                continue
            if dead is None or dead(key):
                return key
            if fallback is None:
                fallback = key
        return fallback


def pages_of(lba: int, nbytes: int, block_bytes: int,
             page_bytes: int) -> range:
    """The pages an access of ``nbytes`` at ``lba`` touches (at least
    one)."""
    start = lba * block_bytes
    return range(
        start // page_bytes, (start + max(1, nbytes) - 1) // page_bytes + 1
    )


def miss_window(lba: int, nbytes: int, missing: Sequence[int],
                block_bytes: int, page_bytes: int) -> Tuple[int, int]:
    """The one fetch that covers a read's ``missing`` pages (ascending),
    clipped to the read, as a byte range ``(start, end)`` whose start is
    block-aligned.  Resident pages at the edges are never refetched;
    resident pages between two misses are."""
    start_byte = lba * block_bytes
    start = max(start_byte, missing[0] * page_bytes)
    start -= start % block_bytes
    end = min(start_byte + nbytes, (missing[-1] + 1) * page_bytes)
    return start, end


def integer_at_least(name: str, value, minimum: int = 1) -> int:
    """``value`` as an ``int`` if it is an integer (booleans excluded,
    see :func:`~repro.checks.as_integer`) of at least ``minimum``, else
    :class:`~repro.errors.ConfigurationError`."""
    checked = as_integer(value)
    if checked is None or checked < minimum:
        raise ConfigurationError(
            f"{name} must be an integer >= {minimum}, not {value!r}"
        )
    return checked
