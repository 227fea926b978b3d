"""CAM's raw asynchronous API (CAM-Async in Fig. 11).

The raw flavour exposes *tickets*, so any number of batches can be in
flight — more power, less programmability.  :meth:`CamAsyncAPI.submit`
is the one way a device API initiates a batch: the synchronous-feeling
Table II API (:class:`~repro.core.api.CamDeviceAPI`) is this API with
one outstanding ticket per direction, and Fig. 11 shows it gives the
same performance, which is the point of the paper's Goal 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.core.control import BatchRequest
from repro.errors import APIUsageError
from repro.hw.gpu import GPUBuffer
from repro.obs.causal import mint_context
from repro.sim.core import Event

_ticket_ids = itertools.count(1)


@dataclass
class CamTicket:
    """Handle for one in-flight asynchronous batch."""

    ticket_id: int
    done: Event
    request_count: int
    total_bytes: int
    #: simulated time the doorbell was rung
    rung_at: float = 0.0
    #: the :class:`~repro.obs.causal.RequestContext` the API minted for
    #: the batch and finishes at wait; ``None`` when the batch joined
    #: the caller's context or tracing is off
    trace_ctx: object = None

    @property
    def completed(self) -> bool:
        return self.done.processed


class CamAsyncAPI:
    """Ticketed batch submission over the same CAM manager."""

    def __init__(self, context):
        self.context = context
        self.env = context.env
        self._outstanding = {}
        #: caller-bound :class:`~repro.obs.causal.RequestContext`; when
        #: set (e.g. by the serving engine for one turn), batches join
        #: that request instead of minting their own context
        self.trace_ctx = None

    def submit(
        self,
        lbas: np.ndarray,
        buffer: Optional[GPUBuffer],
        granularity: int = 4096,
        is_write: bool = False,
        payloads=None,
    ) -> Generator:
        """Process: ring the doorbell, return a :class:`CamTicket`.

        The batch is checked before the doorbell: the context is open,
        it is within ``max_batch_requests``, and
        :meth:`~repro.core.control.CamManager.check` holds.  Only the
        *leading thread*'s doorbell write costs GPU time; the call
        returns right after, and no SM is spent while the CPU manages
        the SSDs.
        """
        context = self.context
        context._check_open()
        batch = BatchRequest(
            lbas=lbas,
            granularity=granularity,
            is_write=is_write,
            dest=buffer,
            payloads=payloads,
        )
        manager = context.manager
        manager.check(batch)
        count = batch.request_count
        if count > context.max_batch_requests:
            raise APIUsageError(
                f"batch of {count} exceeds max_batch_requests "
                f"{context.max_batch_requests}"
            )
        env = self.env
        yield env.timeout(context.config.doorbell_time)

        # the device API is a causal entry point: join the bound request
        # context if the caller set one, otherwise mint a fresh one that
        # the matching wait will finish
        trace_ctx = self.trace_ctx
        minted = None
        tracer = env.tracer
        if tracer.enabled and trace_ctx is None:
            trace_ctx = minted = mint_context(
                tracer, "write_back" if is_write else "prefetch",
                requests=count,
            )
        batch.context = trace_ctx
        try:
            done = manager.ring(batch)
        except Exception:
            # shed at admission: close a context we minted ourselves so
            # the active-context gauge cannot leak on the retry path
            if minted is not None:
                minted.finish(shed=True)
            raise
        ticket = CamTicket(
            ticket_id=next(_ticket_ids),
            done=done,
            request_count=count,
            total_bytes=batch.total_bytes,
            rung_at=env.now,
            trace_ctx=minted,
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
            if ticket.trace_ctx is not None:
                ticket.trace_ctx.finish()

    def wait_all(self) -> Generator:
        """Process: drain every outstanding ticket."""
        tickets = list(self._outstanding.values())
        for ticket in tickets:
            yield from self.wait(ticket)

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)
