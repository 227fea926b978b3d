"""I/O mapping layer: kernel page pin/unpin accounting.

The kernel stacks pin destination pages before DMA and unpin after — per
request, because "they don't know the total request size ahead of time, so
they can't map once in a single batching access" (paper Section II-A).
CAM's opportunity-for-improvement is precisely mapping once per *batch*.
"""

from __future__ import annotations

from repro.config import KernelIOConfig
from repro.sim.core import Environment
from repro.sim.stats import Counter

_PAGE = 4096


class IOMapper:
    """Charges pin/unpin CPU time and counts mapped pages."""

    def __init__(self, env: Environment, config: KernelIOConfig):
        self.env = env
        self.config = config
        self.pages_pinned = Counter(env)
        self.pin_operations = Counter(env)

    def pages_for(self, nbytes: int) -> int:
        return max(1, -(-nbytes // _PAGE))

    def pin_time(self, nbytes: int) -> float:
        """Per-request pin + unpin CPU time.

        The configured ``iomap_time`` covers a single-page (<= 4 KiB)
        request — the dominant case in the paper's workloads; additional
        pages add 15% each (get_user_pages walks per page but amortizes
        locking).
        """
        pages = self.pages_for(nbytes)
        return self.config.iomap_time * (1.0 + 0.15 * (pages - 1))

    def pin(self, nbytes: int):
        """Process: pin the pages backing one request."""
        self.pages_pinned.add(self.pages_for(nbytes))
        self.pin_operations.add()
        return self.env.timeout(self.pin_time(nbytes))
