"""Bandwidth-shared interconnect model.

:class:`BandwidthLink` models a pipe (PCIe link, DRAM bus, SSD internal bus)
as a serializing server: each transfer occupies the link for
``bytes / effective_bandwidth`` seconds.  Serializing at full link speed gives
the correct *aggregate* throughput under contention — exactly the quantity
the paper's figures report — while per-transfer chunking keeps large
transfers from starving small ones.

A per-transfer ``overhead_time`` models protocol latency (PCIe TLP setup,
DMA descriptor handling), and a payload-efficiency curve models header
overhead for small transfers (a 512 B PCIe payload carries proportionally
more TLP header bytes than a 128 KiB one).
"""

from __future__ import annotations

from heapq import heappush
from typing import Generator

from repro.errors import SimulationError
from repro.sim.core import NORMAL, Environment, Timeout
from repro.sim.resources import Fifo
from repro.sim.stats import Counter, TimeWeightedStat


class BandwidthLink:
    """A shared, serializing pipe with utilization accounting."""

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth: float,
        overhead_time: float = 0.0,
        header_bytes: int = 0,
        max_payload: int = 0,
        transaction_bytes: int = 0,
        chunk_bytes: int = 256 * 1024,
    ):
        """
        Parameters
        ----------
        bandwidth:
            Raw link bandwidth in bytes/second.
        overhead_time:
            Fixed per-transfer setup time in seconds (not link-occupying).
        header_bytes / max_payload:
            If both non-zero, each ``max_payload`` chunk of data also carries
            ``header_bytes`` of protocol header through the link, modelling
            the efficiency loss of small payloads.
        transaction_bytes:
            Fixed wire bytes per *transfer* (request + completion TLPs,
            doorbell traffic), charged once regardless of size — this is
            what makes 512 B transfers less efficient than 128 KiB ones
            even when both are payload-aligned.
        chunk_bytes:
            Fairness quantum: transfers occupy the link at most this many
            bytes at a time so concurrent transfers interleave.
        """
        if bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive: {bandwidth}")
        if chunk_bytes <= 0:
            raise SimulationError("chunk_bytes must be positive")
        self.env = env
        self.name = name
        self.bandwidth = bandwidth
        self.overhead_time = overhead_time
        self.header_bytes = header_bytes
        self.max_payload = max_payload
        self.transaction_bytes = transaction_bytes
        self.chunk_bytes = chunk_bytes
        #: one FIFO for both flavours of transfer (:meth:`transfer` and
        #: :meth:`start`), so they queue behind each other
        self._server = Fifo(env, capacity=1)
        self.bytes_moved = Counter(env)
        self.busy = TimeWeightedStat(env)
        #: occupancy-time memo keyed by transfer size — workloads use a
        #: handful of distinct sizes but millions of transfers
        self._occupancy_cache: dict = {}
        # the stages of :meth:`start`, as callback lists built once
        self._on_setup = [self._acquire]
        self._on_grant = [self._occupy]
        self._on_chunk = [self._chunk_done]

    def wire_bytes(self, payload_bytes: int) -> float:
        """Bytes that actually cross the wire, including protocol headers."""
        if payload_bytes < 0:
            raise SimulationError("negative transfer size")
        total = float(payload_bytes) + self.transaction_bytes
        if self.header_bytes and self.max_payload:
            packets = -(-payload_bytes // self.max_payload)  # ceil division
            total += packets * self.header_bytes
        return total

    def occupancy_time(self, payload_bytes: int) -> float:
        """Link-occupancy time for a transfer of ``payload_bytes``."""
        return self.wire_bytes(payload_bytes) / self.bandwidth

    def effective_bandwidth(self, payload_bytes: int) -> float:
        """Payload bytes/second a stream of such transfers can sustain."""
        per = self.occupancy_time(payload_bytes)
        if per <= 0:
            return self.bandwidth
        return payload_bytes / per

    def transfer(
        self, num_bytes: int, extra_latency: float = 0.0
    ) -> Generator:
        """Simulated process: move ``num_bytes`` through the link.

        Yields until the transfer completes.  ``extra_latency`` is added once
        at the start (e.g. device-side DMA setup) without occupying the link.
        """
        if num_bytes < 0:
            raise SimulationError("negative transfer size")
        env = self.env
        setup = self.overhead_time + extra_latency
        if setup > 0:
            yield Timeout(env, setup)
        remaining = int(num_bytes)
        if remaining <= self.chunk_bytes:
            # fast path: the overwhelmingly common single-chunk transfer
            # (4-128 KiB requests against a 256 KiB chunk) skips the loop
            occupancy = self._occupancy_cache.get(remaining)
            if occupancy is None:
                occupancy = self.occupancy_time(remaining)
                self._occupancy_cache[remaining] = occupancy
            # hand-inlined ``with request()`` (hot path): skip the context
            # manager and the yield on an already-granted slot
            server = self._server
            slot = server.request()
            try:
                if slot.callbacks is not None:
                    yield slot
                self.busy.record(1.0)
                yield Timeout(env, occupancy)
                if server.queued == 0:
                    self.busy.record(0.0)
            finally:
                server.release(slot)
            self.bytes_moved.add(remaining)
            return num_bytes
        while True:
            chunk = min(remaining, self.chunk_bytes)
            with self._server.request() as slot:
                yield slot
                self.busy.record(1.0)
                yield self.env.timeout(self.occupancy_time(chunk))
                if self._server.queued == 0:
                    self.busy.record(0.0)
            self.bytes_moved.add(chunk)
            remaining -= chunk
            if remaining <= 0:
                break
        return num_bytes

    # -- callback-driven transfers -----------------------------------------
    def start(self, waiter, num_bytes: int) -> None:
        """Move ``num_bytes`` for a callback-driven state machine.

        The event-driven twin of :meth:`transfer` (without
        ``extra_latency``).  ``waiter`` is an event-shaped record (the
        SSD's in-flight command) that nothing else schedules meanwhile.
        It is pushed onto the heap for the setup delay, for each hand-off
        of the link and for each chunk's occupancy — the events
        :meth:`transfer` schedules, at the same instants and in the same
        order — with the bytes still to move in ``waiter.link_left``.
        Once the last chunk has crossed, ``waiter.on_moved(waiter)`` runs
        in the same callback, where code after ``yield from
        link.transfer(...)`` would resume.
        """
        if num_bytes < 0:
            raise SimulationError("negative transfer size")
        waiter.link_left = int(num_bytes)
        setup = self.overhead_time
        if setup > 0:
            waiter.callbacks = self._on_setup
            env = self.env
            env._eid += 1
            heappush(env._heap, (env._now + setup, NORMAL, env._eid, waiter))
        else:
            self._acquire(waiter)

    def _acquire(self, waiter) -> None:
        waiter.callbacks = self._on_grant
        if self._server.acquire(waiter):
            self._occupy(waiter)

    def _occupy(self, waiter) -> None:
        chunk = min(waiter.link_left, self.chunk_bytes)
        occupancy = self._occupancy_cache.get(chunk)
        if occupancy is None:
            occupancy = self.occupancy_time(chunk)
            self._occupancy_cache[chunk] = occupancy
        self.busy.record(1.0)
        waiter.callbacks = self._on_chunk
        env = self.env
        env._eid += 1
        heappush(env._heap, (env._now + occupancy, NORMAL, env._eid, waiter))

    def _chunk_done(self, waiter) -> None:
        server = self._server
        if not server._waiters:
            self.busy.record(0.0)
        server.release()
        chunk = min(waiter.link_left, self.chunk_bytes)
        self.bytes_moved.add(chunk)
        waiter.link_left -= chunk
        if waiter.link_left > 0:
            self._acquire(waiter)
        else:
            waiter.on_moved(waiter)

    def utilization(self) -> float:
        """Fraction of the observation window the link was busy."""
        return self.busy.mean()

    def throughput(self) -> float:
        """Payload bytes/second moved over the observation window."""
        return self.bytes_moved.rate()

    def reset_stats(self) -> None:
        self.bytes_moved.reset()
        self.busy.reset()

    def __repr__(self) -> str:
        return f"<BandwidthLink {self.name} {self.bandwidth / 1e9:.1f}GB/s>"
