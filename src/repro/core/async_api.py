"""CAM's raw asynchronous API (CAM-Async in Fig. 11).

The synchronous-feeling Table II API allows one outstanding prefetch and
one outstanding write-back.  The raw flavour exposes *tickets* so any
number of batches can be in flight — more power, less programmability;
Fig. 11 shows the sync wrapper gives the same performance, which is the
point of the paper's Goal 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.core.control import BatchRequest
from repro.errors import APIUsageError
from repro.hw.gpu import GPUBuffer
from repro.sim.core import Event

_ticket_ids = itertools.count(1)


@dataclass
class CamTicket:
    """Handle for one in-flight asynchronous batch."""

    ticket_id: int
    done: Event
    request_count: int
    total_bytes: int

    @property
    def completed(self) -> bool:
        return self.done.processed


class CamAsyncAPI:
    """Ticketed batch submission over the same CAM manager."""

    def __init__(self, context):
        self.context = context
        self.env = context.env
        self._outstanding = {}

    def submit(
        self,
        lbas: np.ndarray,
        buffer: Optional[GPUBuffer],
        granularity: int = 4096,
        is_write: bool = False,
        payloads=None,
    ) -> Generator:
        """Process: ring the doorbell, return a :class:`CamTicket`.

        Costs only the doorbell time on the GPU, like the sync API.
        """
        context = self.context
        lbas = context.check_batch(lbas, buffer, granularity, payloads)
        yield self.env.timeout(context.config.doorbell_time)
        batch = BatchRequest(
            lbas=lbas,
            granularity=granularity,
            is_write=is_write,
            dest=buffer,
            payloads=payloads,
        )
        done = context.manager.ring(batch)
        ticket = CamTicket(
            ticket_id=next(_ticket_ids),
            done=done,
            request_count=len(lbas),
            total_bytes=len(lbas) * granularity,
        )
        self._outstanding[ticket.ticket_id] = ticket
        return ticket

    def wait(self, ticket: CamTicket) -> Generator:
        """Process: block until the ticket's batch completed."""
        if ticket.ticket_id not in self._outstanding:
            raise APIUsageError(f"unknown or already-waited ticket {ticket}")
        try:
            yield ticket.done
        finally:
            # a failed batch still consumes its ticket: waiting reaps the
            # outcome either way, like joining a thread that raised
            del self._outstanding[ticket.ticket_id]

    def wait_all(self) -> Generator:
        """Process: drain every outstanding ticket."""
        tickets = list(self._outstanding.values())
        for ticket in tickets:
            yield from self.wait(ticket)

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)
