"""The four pre-allocated GPU<->CPU synchronization memory regions.

Paper Section III-B:

1. **LBA region** — the array of logical blocks to process; written by GPU
   threads, read by the CPU (unified memory).
2. **Args region** — batch arguments (request count, destination address,
   granularity); written by the leading GPU thread (unified memory).
3. **Doorbell region** — "GPU finished writing block IDs"; written only by
   the GPU, polled by the CPU (unified memory).
4. **Completion region** — "CPU processed all requests"; written by the
   CPU, checked by the GPU; lives in GPU memory with a CPU-side copy.

The reproduction keeps regions 1-2 *functional* (real numpy arrays, so a
batch's LBAs round-trip exactly) and models the polling handshakes of
regions 3-4 with events plus the configured poll-interval delay — the
cost without the event-storm of literal busy-waiting.  The CAM manager
times the handshakes itself and never waits on the region 3/4 events,
so each is created only when someone asks for it: a batch nobody
watches puts no region event on the heap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.errors import APIUsageError
from repro.sim.core import Environment, Event


@dataclass
class BatchArgs:
    """Region 2 contents: what the CPU needs to process one batch."""

    request_count: int
    dest_physical_address: int
    granularity: int
    is_write: bool
    payload: Any = None


class SyncRegions:
    """The four regions plus doorbell/completion handshake machinery."""

    def __init__(self, env: Environment, max_requests: int):
        if max_requests <= 0:
            raise APIUsageError("max_requests must be positive")
        self.env = env
        self.max_requests = max_requests
        #: region 1: LBA array (unified memory)
        self.lba_region = np.zeros(max_requests, dtype=np.int64)
        #: region 2: batch arguments
        self.args: Optional[BatchArgs] = None
        #: region 3: GPU -> CPU doorbell (event models the polled flag),
        #: created by :meth:`doorbell_event`
        self._doorbell: Optional[Event] = None
        #: region 4: CPU -> GPU completion flag, created by
        #: :meth:`completion_event`
        self._completion: Optional[Event] = None
        self.batches_rung = 0

    # -- GPU side ------------------------------------------------------------
    def write_lbas(self, lbas: np.ndarray) -> None:
        """GPU threads fill region 1 before the prefetch call."""
        lbas = np.asarray(lbas, dtype=np.int64)
        if lbas.ndim != 1 or len(lbas) == 0:
            raise APIUsageError("LBA array must be a non-empty 1-D array")
        if len(lbas) > self.max_requests:
            raise APIUsageError(
                f"batch of {len(lbas)} exceeds region capacity "
                f"{self.max_requests}"
            )
        self.lba_region[: len(lbas)] = lbas

    def ring_doorbell(self, args: BatchArgs) -> None:
        """Leading GPU thread: write region 2, then flag region 3."""
        if self.args is not None:
            raise APIUsageError(
                "doorbell rung while the previous batch is still pending"
            )
        if args.request_count <= 0 or args.request_count > self.max_requests:
            raise APIUsageError(
                f"invalid request count {args.request_count}"
            )
        self.args = args
        self.batches_rung += 1
        if self._doorbell is not None:
            self._doorbell.succeed(args)

    def completion_event(self) -> Event:
        """Region 4, as the event the GPU-side synchronize waits on."""
        if self._completion is None:
            self._completion = self.env.event()
        return self._completion

    # -- CPU side ------------------------------------------------------------
    def doorbell_event(self) -> Event:
        """Region 3, as the event the CPU poller waits on; it fires when
        the doorbell is rung (at once if it already was)."""
        if self._doorbell is None:
            self._doorbell = self.env.event()
            if self.args is not None:
                self._doorbell.succeed(self.args)
        return self._doorbell

    def take_batch(self) -> tuple:
        """CPU poller: consume regions 1+2 for the rung batch."""
        if self.args is None:
            raise APIUsageError("no batch pending")
        args = self.args
        lbas = self.lba_region[: args.request_count].copy()
        return lbas, args

    def signal_completion(self) -> None:
        """CPU poller: flag region 4 and re-arm for the next batch."""
        if self.args is None:
            raise APIUsageError("completing a batch that was never rung")
        self.args = None
        completion, self._completion = self._completion, None
        self._doorbell = None
        if completion is not None:
            completion.succeed()
