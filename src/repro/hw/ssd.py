"""NVMe SSD device model (Intel P5510 calibration).

Timing model per command (see :class:`~repro.config.SSDConfig` for the
constants and the paper figures they calibrate):

1. **FTL / controller** — a serial per-SSD stage costing ``ftl_time`` per
   SQE.  This is what makes IOPS the binding constraint at small
   granularity and why larger accesses win (paper Section IV-B, third
   observation).
2. **Flash array** — ``flash_channels`` parallel units; each command holds
   one channel for ``media_latency + bytes / per_channel_bandwidth``.
3. **Data movement** — the payload crosses the shared PCIe fabric to/from
   the destination buffer (GPU or host memory); writes move data *before*
   the media program, reads after the media read.

The device is also *functional*: a sparse :class:`BlockStore` keeps real
bytes so end-to-end workloads (mergesort, GEMM) verify correct results.

A command is a state machine, not a process: one slotted
:class:`_Command` record that heap-event callbacks advance through the
FTL, flash-channel and PCIe stages.  The record is itself the event
each stage boundary schedules, and each FIFO hand-off is a same-instant
grant event created at release time, so the heap sees the very events —
same times, priorities and relative order — that a per-command
generator process would create, minus that process's start hop.  The
stages stay separate events on purpose: collapsing them into one
closed-form service time would change how same-instant PCIe arrivals
are ordered, and with it the simulated timeline.
"""

from __future__ import annotations

from heapq import heappush
from typing import Dict, Generator, List, Optional

import numpy as np

from repro.config import SSDConfig
from repro.errors import InvalidLBAError, SimulationError
from repro.hw.nvme import CQE, SQE, NVMeOpcode, QueuePair
from repro.sim.core import NORMAL, Environment, Event
from repro.sim.links import BandwidthLink
from repro.sim.resources import Fifo
from repro.sim.stats import Counter, LatencyStat

_PAGE_BYTES = 64 * 1024


class BlockStore:
    """Sparse byte store addressed by byte offset (LBA * block_size).

    Pages are materialized on first write; reads of never-written ranges
    return zeros, like a freshly formatted device.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise SimulationError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._pages: Dict[int, np.ndarray] = {}

    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.capacity_bytes:
            raise InvalidLBAError(
                f"range [{offset}, {offset + nbytes}) outside device "
                f"of {self.capacity_bytes} bytes"
            )

    def write(self, offset: int, data: np.ndarray) -> None:
        """Store ``data`` (any dtype; written as raw bytes) at ``offset``."""
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        self._check_range(offset, raw.nbytes)
        position = offset
        cursor = 0
        while cursor < raw.nbytes:
            page_index, page_offset = divmod(position, _PAGE_BYTES)
            take = min(_PAGE_BYTES - page_offset, raw.nbytes - cursor)
            page = self._pages.get(page_index)
            if page is None:
                page = np.zeros(_PAGE_BYTES, dtype=np.uint8)
                self._pages[page_index] = page
            page[page_offset : page_offset + take] = raw[cursor : cursor + take]
            position += take
            cursor += take

    def read(self, offset: int, nbytes: int) -> np.ndarray:
        """Return ``nbytes`` raw bytes starting at ``offset``."""
        self._check_range(offset, nbytes)
        out = np.zeros(nbytes, dtype=np.uint8)
        position = offset
        cursor = 0
        while cursor < nbytes:
            page_index, page_offset = divmod(position, _PAGE_BYTES)
            take = min(_PAGE_BYTES - page_offset, nbytes - cursor)
            page = self._pages.get(page_index)
            if page is not None:
                out[cursor : cursor + take] = page[
                    page_offset : page_offset + take
                ]
            position += take
            cursor += take
        return out

    @property
    def resident_bytes(self) -> int:
        """Bytes of pages actually materialized (for memory hygiene tests)."""
        return len(self._pages) * _PAGE_BYTES

    def trim(self) -> None:
        """Discard all stored data (like an NVMe format)."""
        self._pages.clear()


class _Command(Event):
    """One command in flight, and the heap event of its next stage.

    ``callbacks`` holds the stage that runs when the record is popped —
    one of the SSD's callback lists, built once per device — so a
    command allocates this record and its CQE, and no process,
    generator, request or timeout.
    """

    __slots__ = (
        "qp", "sqe", "nbytes", "is_write", "flush", "status", "span",
        "tracer", "link_span", "link_left", "on_moved",
    )

    def __init__(self, qp, sqe, nbytes, is_write, flush, span):
        self.callbacks = None
        self._ok = True
        self._value = None
        self.qp = qp
        self.sqe = sqe
        self.nbytes = nbytes
        self.is_write = is_write
        self.flush = flush
        #: the fault injector's non-zero status for a failed command
        self.status = 0
        self.span = span


class SSD:
    """One NVMe SSD: queue pairs, timing pipeline and functional store."""

    def __init__(
        self,
        env: Environment,
        config: SSDConfig,
        pcie: Optional[BandwidthLink],
        ssd_id: int = 0,
        functional: bool = True,
        fault_injector=None,
    ):
        self.env = env
        self.config = config
        self.pcie = pcie
        self.ssd_id = ssd_id
        self.functional = functional
        self.store = BlockStore(config.capacity_bytes) if functional else None
        #: optional :class:`~repro.hw.faults.FaultInjector`
        self.fault_injector = fault_injector
        self.faults_reported = 0

        self._ftl = Fifo(env, capacity=1)
        self._channels = Fifo(env, capacity=config.flash_channels)
        per_channel_read = config.seq_read_bw / config.flash_channels
        per_channel_write = config.seq_write_bw / config.flash_channels
        self._channel_bw = {
            False: per_channel_read,
            True: per_channel_write,
        }
        # per-request timing constants, precomputed once (the config is a
        # frozen dataclass, so these cannot change after construction)
        self._ftl_time = {
            False: config.ftl_time(False),
            True: config.ftl_time(True),
        }
        self._media_latency = {
            False: config.media_latency(False),
            True: config.media_latency(True),
        }
        # the command pipeline's stages, bound once: a _Command waiting
        # on the heap or in a FIFO carries one of these callback lists
        self._on_ftl_grant = [self._ftl_granted]
        self._on_ftl_done = [self._ftl_done]
        self._on_channel_grant = [self._channel_granted]
        self._on_channel_done = [self._channel_done]
        self._after_link = self._moved
        self._after_traced_link = self._traced_moved
        self._queue_pairs: List[QueuePair] = []
        self._next_qid = 0

        self.reads_completed = Counter(env)
        self.writes_completed = Counter(env)
        self.bytes_read = Counter(env)
        self.bytes_written = Counter(env)
        self.read_latency = LatencyStat()
        self.write_latency = LatencyStat()

    # -- queue pair management ---------------------------------------------
    def create_queue_pair(self, depth: Optional[int] = None) -> QueuePair:
        """Create a queue pair and start its device-side consumer."""
        qp = QueuePair(
            self.env, self._next_qid, depth or self.config.queue_depth
        )
        self._next_qid += 1
        self._queue_pairs.append(qp)
        self.env.process(self._consume(qp))
        return qp

    @property
    def queue_pairs(self) -> List[QueuePair]:
        return list(self._queue_pairs)

    # -- device-side processing ----------------------------------------------
    def submit_direct(self, qp: QueuePair, sqe: SQE) -> None:
        """Hand ``sqe`` straight to the device, skipping the SQ ring.

        Used by coalesced submitters: the ring's consumer starts a command
        the same instant the SQE lands anyway (its getter is always
        parked because commands start without blocking), so starting it
        here is timing-equivalent and saves the consumer wakeup.  The SQE
        is stamped and ``inflight`` accounted exactly as
        :meth:`QueuePair.submit` would.  The command runs synchronously
        up to its first wait; a bad command (an out-of-range LBA) fails
        as an event, never as an exception into the caller.
        """
        sqe.submit_time = self.env._now
        qp.inflight += 1
        self._start(qp, sqe)

    def _consume(self, qp: QueuePair) -> Generator:
        """Drain a queue pair forever, starting each command as it lands."""
        start = self._start
        while True:
            sqe = yield qp.sq.get()
            start(qp, sqe)

    def _start(self, qp: QueuePair, sqe: SQE) -> None:
        """Admit ``sqe`` and run its pipeline up to the first wait."""
        opcode = sqe.opcode
        is_write = opcode is NVMeOpcode.WRITE
        flush = opcode is NVMeOpcode.FLUSH
        nbytes = sqe.num_blocks * self.config.block_size
        tracer = self.env.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "nvme_io",
                parent=sqe.trace_span,
                ssd=self.ssd_id,
                lba=sqe.lba,
                bytes=nbytes,
                is_write=is_write,
                opcode=sqe.opcode.value,
            )

        if self.store is not None and not flush:
            # validate range up-front so bad requests fail loudly
            try:
                self.store._check_range(
                    sqe.lba * self.config.block_size, nbytes
                )
            except InvalidLBAError as error:
                self._fail(error)
                return

        injector = self.fault_injector
        if injector is not None and injector._offline and injector.is_offline(
            self.ssd_id
        ):
            # the device dropped off the bus: the command — a flush as
            # much as a read — is swallowed and no CQE ever arrives; a
            # completion watchdog (repro.reliability) is the only way the
            # host learns
            injector.offline_drops += 1
            self.faults_reported += 1
            if span is not None:
                tracer.end(span, offline=True)
            return

        cmd = _Command(qp, sqe, nbytes, is_write, flush, span)
        if span is not None:
            cmd.tracer = tracer
        if flush:
            # a flush drains the device write path: model as one FTL pass
            self._media(cmd)
            return
        if injector is not None and (
            # peek before calling check(): the fault-free hot path must
            # not pay per-request set scans and RNG guards
            injector._one_shot or injector._persistent or injector.error_rate
        ):
            # a failed command still costs its media attempt before the
            # error is reported back
            cmd.status = injector.check(
                self.ssd_id, sqe.lba, sqe.num_blocks, is_write
            )
        if is_write and not cmd.status:
            # host/GPU -> SSD data movement first, then the media program
            self._transfer(cmd)
        else:
            self._media(cmd)

    # -- pipeline stages ----------------------------------------------------
    def _media(self, cmd: _Command) -> None:
        """FTL serialization, then (but for a flush) flash-channel
        occupancy."""
        cmd.callbacks = self._on_ftl_grant
        if self._ftl.acquire(cmd):
            self._ftl_granted(cmd)

    def _ftl_granted(self, cmd: _Command) -> None:
        env = self.env
        cmd.callbacks = self._on_ftl_done
        env._eid += 1
        heappush(env._heap, (
            env._now + self._ftl_time[cmd.is_write or cmd.flush],
            NORMAL, env._eid, cmd,
        ))

    def _ftl_done(self, cmd: _Command) -> None:
        self._ftl.release()
        if cmd.flush:
            self._finish(cmd)
            return
        cmd.callbacks = self._on_channel_grant
        if self._channels.acquire(cmd):
            self._channel_granted(cmd)

    def _channel_granted(self, cmd: _Command) -> None:
        env = self.env
        is_write = cmd.is_write
        transfer = cmd.nbytes / self._channel_bw[is_write]
        # health episodes (GC pauses, thermal throttling) stretch the
        # media time by the injector's active latency factor; peek at
        # the episode table first so the fault-free hot path skips the
        # per-request factor computation entirely
        injector = self.fault_injector
        if injector is not None and injector._episodes:
            factor = injector.latency_factor(self.ssd_id, env._now)
        else:
            factor = 1.0
        cmd.callbacks = self._on_channel_done
        env._eid += 1
        heappush(env._heap, (
            env._now + (self._media_latency[is_write] + transfer) * factor,
            NORMAL, env._eid, cmd,
        ))

    def _channel_done(self, cmd: _Command) -> None:
        self._channels.release()
        if cmd.is_write or cmd.status:
            self._finish(cmd)
        else:
            self._transfer(cmd)

    def _transfer(self, cmd: _Command) -> None:
        """The payload's PCIe crossing (a span of its own when tracing),
        then :meth:`_moved`."""
        pcie = self.pcie
        if pcie is None or not cmd.nbytes:
            self._moved(cmd)
            return
        if cmd.span is None:
            cmd.on_moved = self._after_link
        else:
            cmd.link_span = cmd.tracer.begin(
                "pcie_transfer", parent=cmd.span, ssd=self.ssd_id,
                bytes=cmd.nbytes,
            )
            cmd.on_moved = self._after_traced_link
        pcie.start(cmd, cmd.nbytes)

    def _traced_moved(self, cmd: _Command) -> None:
        cmd.tracer.end(cmd.link_span)
        self._moved(cmd)

    def _moved(self, cmd: _Command) -> None:
        """Functional data movement once the payload has crossed: store
        a write and go on to the media program, or deliver a read."""
        store = self.store
        sqe = cmd.sqe
        offset = sqe.lba * self.config.block_size
        if cmd.is_write:
            if store is not None and sqe.payload is not None:
                try:
                    store.write(offset, sqe.payload)
                except Exception as error:  # noqa: BLE001 - surfaced below
                    self._fail(error)
                    return
            self._media(cmd)
            return
        value = None
        if store is not None:
            try:
                value = self._deliver(sqe, store.read(offset, cmd.nbytes))
            except Exception as error:  # noqa: BLE001 - surfaced below
                self._fail(error)
                return
        self._finish(cmd, value)

    def _finish(self, cmd: _Command, value=None) -> None:
        """Close the span, account the command and post its CQE."""
        sqe = cmd.sqe
        span = cmd.span
        status = cmd.status
        if status:
            self.faults_reported += 1
            if span is not None:
                cmd.tracer.end(span, status=status)
            cmd.qp.post_completion(
                CQE(command_id=sqe.command_id, status=status)
            )
            return
        if span is not None:
            cmd.tracer.end(span)
        if not cmd.flush:
            latency = self.env._now - sqe.submit_time
            if cmd.is_write:
                self.writes_completed.add()
                self.bytes_written.add(cmd.nbytes)
                self.write_latency.record(latency)
            else:
                self.reads_completed.add()
                self.bytes_read.add(cmd.nbytes)
                self.read_latency.record(latency)
        cmd.qp.post_completion(CQE(command_id=sqe.command_id, value=value))

    def _fail(self, error: Exception) -> None:
        """Surface ``error`` as a failed same-instant event.

        As with an exception escaping a process, nothing waits on the
        event, so :meth:`Environment.run` raises ``error``, while the
        submitter and the queue pair's consumer live on.
        """
        Event(self.env).fail(error)

    def _deliver(self, sqe: SQE, data: np.ndarray):
        """Place read data into the destination buffer, if one was given."""
        if sqe.target is None:
            return data
        sqe.target.write_bytes(sqe.target_offset, data)
        return None

    # -- reporting --------------------------------------------------------
    def read_throughput(self) -> float:
        return self.bytes_read.rate()

    def write_throughput(self) -> float:
        return self.bytes_written.rate()

    def reset_stats(self) -> None:
        for counter in (
            self.reads_completed,
            self.writes_completed,
            self.bytes_read,
            self.bytes_written,
        ):
            counter.reset()
        self.read_latency.reset()
        self.write_latency.reset()

    def __repr__(self) -> str:
        return f"<SSD#{self.ssd_id} {self.config.name}>"
