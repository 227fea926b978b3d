"""NVMe protocol objects: commands, completions and queue pairs.

A :class:`QueuePair` is a submission ring + completion ring attached to one
SSD.  Control planes (OS kernel stacks, SPDK reactors, BaM GPU threads, CAM
CPU managers) differ in *who* builds SQEs, rings doorbells and polls CQEs —
the rings themselves are identical, mirroring real NVMe.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import QueueFullError
from repro.sim.core import Environment
from repro.sim.resources import Store

_command_ids = itertools.count(1)


class NVMeOpcode(enum.Enum):
    """Subset of NVMe I/O opcodes the reproduction needs."""

    READ = "read"
    WRITE = "write"
    FLUSH = "flush"

    @property
    def is_write(self) -> bool:
        return self is NVMeOpcode.WRITE


# SQEs and CQEs are the two hottest allocations in a simulation run, so
# both are slotted: no per-entry dict
@dataclass(slots=True)
class SQE:
    """Submission Queue Entry.

    ``target`` names where the data lands (a GPU buffer, a host buffer, or
    ``None`` for pure timing runs); ``target_offset`` is the byte offset
    inside it.  ``payload`` carries write data for functional runs.
    """

    opcode: NVMeOpcode
    lba: int
    num_blocks: int
    target: Any = None
    target_offset: int = 0
    payload: Any = None
    command_id: int = field(default_factory=lambda: next(_command_ids))
    submit_time: float = 0.0
    #: parent span for the device's ``nvme_io`` span (tracing only);
    #: rides on the SQE because the command crosses from the submitting
    #: control plane to the device-side handler through the ring
    trace_span: Any = None

    def nbytes(self, block_size: int) -> int:
        return self.num_blocks * block_size


@dataclass(slots=True)
class CQE:
    """Completion Queue Entry."""

    command_id: int
    status: int = 0  # 0 == success
    value: Any = None
    complete_time: float = 0.0
    #: device attempts the control plane spent on this command (set by
    #: reliability-aware drivers; 1 means first-try)
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == 0


class QueuePair:
    """One SQ/CQ ring pair bound to an SSD.

    The rings are :class:`~repro.sim.resources.Store` objects so submission
    naturally backpressures when the ring is full.  ``submit`` offers both a
    blocking (process) flavour and a non-blocking ``try_submit`` used by
    polling submitters that would rather spin than sleep.
    """

    def __init__(self, env: Environment, qid: int, depth: int):
        self.env = env
        self.qid = qid
        self.depth = depth
        self.sq: Store = Store(env, capacity=depth)
        self.cq: Store = Store(env, capacity=depth)
        self.inflight = 0
        #: optional ``CQE -> bool`` hook consulted before the CQ ring; a
        #: completion dispatcher with no per-completion CPU cost installs
        #: itself here so grouped completions skip the ring hop (the CQE
        #: is stamped and accounted identically either way).  Returning
        #: False sends the CQE through the ring as usual.
        self.completion_sink: Optional[Callable[["CQE"], bool]] = None

    def submit(self, sqe: SQE):
        """Blocking submit: yields until a ring slot is free."""
        sqe.submit_time = self.env.now
        self.inflight += 1
        return self.sq.put(sqe)

    def try_submit(self, sqe: SQE) -> bool:
        """Non-blocking submit; returns False when the ring is full."""
        if len(self.sq.items) >= self.depth:
            return False
        sqe.submit_time = self.env.now
        self.inflight += 1
        self.sq.put(sqe)
        return True

    def pop_completion(self):
        """Blocking reap: yields until a CQE is available."""
        return self.cq.get()

    def try_pop_completion(self) -> Optional[CQE]:
        """Non-blocking reap used by pollers."""
        if not self.cq.items:
            return None
        return self.cq.items.pop(0)

    def post_completion(self, cqe: CQE) -> None:
        """Device side: publish a completion.

        ``inflight`` counts submitted-but-not-completed commands, so it is
        decremented here rather than at reap time.
        """
        cqe.complete_time = self.env.now
        self.inflight -= 1
        sink = self.completion_sink
        if sink is not None and sink(cqe):
            return
        self.cq.put(cqe)

    @property
    def sq_occupancy(self) -> int:
        return len(self.sq.items)

    @property
    def cq_occupancy(self) -> int:
        return len(self.cq.items)

    def require_slot(self) -> None:
        """Raise :class:`QueueFullError` when the SQ has no free slot."""
        if len(self.sq.items) >= self.depth:
            raise QueueFullError(f"queue pair {self.qid} submission ring full")
