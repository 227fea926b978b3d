"""Reference differential for the SSD device model.

The oracle is the per-command generator process the device ran before
it became a state machine, kept here verbatim except for one fix (an
offline device swallows a FLUSH too).  It runs on its own ``Resource``
FIFOs and on a link whose ``transfer`` is the generator over a
``Resource`` server.  Random command mixes go through both models; the
state machine must reproduce every completion (time, status, value),
every span, and the oracle's heap-event count minus exactly one
process-start hop per command.
"""

import hashlib
from typing import Generator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import PCIeConfig, SSDConfig
from repro.hw.faults import FaultInjector
from repro.hw.nvme import CQE, SQE, NVMeOpcode
from repro.hw.ssd import SSD
from repro.obs.tracer import install_tracer
from repro.sim.core import Environment, Process, Timeout
from repro.sim.links import BandwidthLink
from repro.sim.resources import Resource
from repro.units import KiB, US

BLOCK = 512
#: submission instants are multiples of an irrational step, so they never
#: coincide with a device stage boundary (FTL, media, PCIe times)
STEP = 3 ** 0.5 * US
INSTANTS = 16


class OracleLink(BandwidthLink):
    """A link whose transfers are the generator over a ``Resource``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._server = Resource(self.env, capacity=1)

    def transfer(self, num_bytes: int, extra_latency: float = 0.0):
        env = self.env
        setup = self.overhead_time + extra_latency
        if setup > 0:
            yield Timeout(env, setup)
        remaining = int(num_bytes)
        if remaining <= self.chunk_bytes:
            occupancy = self._occupancy_cache.get(remaining)
            if occupancy is None:
                occupancy = self.occupancy_time(remaining)
                self._occupancy_cache[remaining] = occupancy
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


class OracleSSD(SSD):
    """The SSD with one generator process per command."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ftl = Resource(self.env, capacity=1)
        self._channels = Resource(
            self.env, capacity=self.config.flash_channels
        )

    def submit_direct(self, qp, sqe):
        env = self.env
        sqe.submit_time = env._now
        qp.inflight += 1
        Process(env, self._handle(qp, sqe))

    def _consume(self, qp):
        while True:
            sqe = yield qp.sq.get()
            self.env.process(self._handle(qp, sqe))

    def _handle(self, qp, sqe) -> Generator:
        is_write = sqe.opcode.is_write
        block_size = self.config.block_size
        nbytes = sqe.num_blocks * block_size
        offset = sqe.lba * block_size
        tracer = self.env.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "nvme_io", parent=sqe.trace_span, ssd=self.ssd_id,
                lba=sqe.lba, bytes=nbytes, is_write=is_write,
                opcode=sqe.opcode.value,
            )
        flush = sqe.opcode is NVMeOpcode.FLUSH
        if self.store is not None and not flush:
            self.store._check_range(offset, nbytes)
        injector = self.fault_injector
        if injector is not None and injector.is_offline(self.ssd_id):
            injector.offline_drops += 1
            self.faults_reported += 1
            if span is not None:
                tracer.end(span, offline=True)
            return
        if flush:
            with self._ftl.request() as slot:
                yield slot
                yield self.env.timeout(self.config.ftl_time(True))
            if span is not None:
                tracer.end(span)
            qp.post_completion(CQE(command_id=sqe.command_id))
            return
        if injector is not None:
            status = injector.check(
                self.ssd_id, sqe.lba, sqe.num_blocks, is_write
            )
            if status:
                yield from self._media_process(nbytes, is_write)
                self.faults_reported += 1
                if span is not None:
                    tracer.end(span, status=status)
                qp.post_completion(
                    CQE(command_id=sqe.command_id, status=status)
                )
                return
        value = None
        pcie = self.pcie
        if is_write:
            if pcie is not None and nbytes:
                yield from self._traced_transfer(nbytes, span)
            if self.store is not None and sqe.payload is not None:
                self.store.write(offset, sqe.payload)
            yield from self._media_process(nbytes, True)
        else:
            yield from self._media_process(nbytes, False)
            if pcie is not None and nbytes:
                yield from self._traced_transfer(nbytes, span)
            if self.store is not None:
                value = self._deliver(sqe, self.store.read(offset, nbytes))
        if span is not None:
            tracer.end(span)
        latency = self.env.now - sqe.submit_time
        if is_write:
            self.writes_completed.add()
            self.bytes_written.add(nbytes)
            self.write_latency.record(latency)
        else:
            self.reads_completed.add()
            self.bytes_read.add(nbytes)
            self.read_latency.record(latency)
        qp.post_completion(CQE(command_id=sqe.command_id, value=value))

    def _traced_transfer(self, nbytes, parent) -> Generator:
        tracer = self.env.tracer
        span = None
        if parent is not None:
            span = tracer.begin(
                "pcie_transfer", parent=parent, ssd=self.ssd_id, bytes=nbytes
            )
        yield from self.pcie.transfer(nbytes)
        if span is not None:
            tracer.end(span)

    def _media_process(self, nbytes, is_write) -> Generator:
        env = self.env
        ftl = self._ftl
        slot = ftl.request()
        try:
            if slot.callbacks is not None:
                yield slot
            yield Timeout(env, self._ftl_time[is_write])
        finally:
            ftl.release(slot)
        channels = self._channels
        channel = channels.request()
        try:
            if channel.callbacks is not None:
                yield channel
            transfer = nbytes / self._channel_bw[is_write]
            injector = self.fault_injector
            if injector is not None and injector._episodes:
                factor = injector.latency_factor(self.ssd_id, env.now)
            else:
                factor = 1.0
            yield Timeout(
                env, (self._media_latency[is_write] + transfer) * factor
            )
        finally:
            channels.release(channel)


def _run(scenario, oracle):
    """Drive ``scenario`` through one device model; return what it saw."""
    ssd_cls, link_cls = (OracleSSD, OracleLink) if oracle else (SSD, BandwidthLink)
    env = Environment()
    tracer = install_tracer(env) if scenario["tracing"] else None
    pcie = PCIeConfig()
    link = link_cls(
        env, "pcie", pcie.bandwidth, overhead_time=pcie.link_latency,
        header_bytes=pcie.header_bytes, max_payload=pcie.max_payload,
        transaction_bytes=pcie.transaction_bytes,
        chunk_bytes=scenario["chunk_bytes"],
    )
    injector = FaultInjector(
        error_rate=scenario["error_rate"], seed=scenario["seed"]
    )
    n_ssds = scenario["n_ssds"]
    for ssd_id, lba, persistent in scenario["planted"]:
        injector.inject_lba(ssd_id % n_ssds, lba, persistent=persistent)
    for ssd_id, factor, start, steps in scenario["degrade"]:
        injector.degrade(
            ssd_id % n_ssds, factor, start=start * STEP,
            duration=steps * STEP,
        )
    ssds = [
        ssd_cls(env, SSDConfig(), pcie=link, ssd_id=i,
                fault_injector=injector)
        for i in range(n_ssds)
    ]
    qps = [ssd.create_queue_pair() for ssd in ssds]
    index_of = {}
    completions = []

    def sink(cqe):
        value = cqe.value
        digest = (
            None if value is None
            else hashlib.sha1(value.tobytes()).hexdigest()
        )
        completions.append(
            (index_of[cqe.command_id], cqe.complete_time, cqe.status, digest)
        )
        return True

    for qp in qps:
        qp.completion_sink = sink

    by_instant = {}
    for index, command in enumerate(scenario["commands"]):
        by_instant.setdefault(command[0], []).append((index, command))

    def submitter():
        for instant in sorted(by_instant):
            yield env.timeout(max(0.0, instant * STEP - env.now))
            for index, (_, ssd, opcode, blocks, slot, direct) in (
                by_instant[instant]
            ):
                ssd %= n_ssds
                payload = None
                if opcode is NVMeOpcode.WRITE:
                    payload = np.full(blocks * BLOCK, index % 251 + 1,
                                      dtype=np.uint8)
                sqe = SQE(opcode, lba=slot * 64, num_blocks=blocks,
                          payload=payload)
                index_of[sqe.command_id] = index
                if direct:
                    ssds[ssd].submit_direct(qps[ssd], sqe)
                else:
                    assert qps[ssd].try_submit(sqe)

    def offline_switch():
        for instant, ssd, offline in sorted(scenario["offline"]):
            yield env.timeout(max(0.0, instant * STEP - env.now))
            injector.set_offline(ssd % n_ssds, offline)

    def link_hog():
        # a process-side user queues on the same link FIFO as the devices
        for instant, nbytes in sorted(scenario["hog"]):
            yield env.timeout(max(0.0, instant * STEP - env.now))
            yield from link.transfer(nbytes)

    env.process(submitter())
    env.process(offline_switch())
    env.process(link_hog())
    env.run()

    spans = []
    if tracer is not None:
        recorded = list(tracer.spans())
        by_id = {span.span_id: span for span in recorded}
        for span in recorded:
            parent = by_id.get(span.parent_id)
            spans.append((
                span.name, span.begin, span.end, sorted(span.tags.items()),
                None if parent is None else (parent.name, parent.begin),
            ))
    counters = (
        [(ssd.faults_reported, ssd.reads_completed.total,
          ssd.writes_completed.total, ssd.read_latency._samples,
          ssd.write_latency._samples) for ssd in ssds],
        injector.offline_drops, injector.faults_delivered,
        link.bytes_moved.total, link.busy.mean(), env.now,
    )
    return completions, spans, env.events_processed, counters


_command = st.tuples(
    st.integers(0, INSTANTS - 1),                    # submission instant
    st.integers(0, 2),                               # target SSD
    st.sampled_from(list(NVMeOpcode)),
    st.integers(1, 256 * KiB // BLOCK),              # 512 B .. 256 KiB
    st.integers(0, 63),                              # LBA slot (x 64)
    st.booleans(),                                   # submit_direct?
)

_scenario = st.fixed_dictionaries({
    "n_ssds": st.integers(1, 3),
    "commands": st.lists(_command, min_size=1, max_size=40),
    "chunk_bytes": st.sampled_from([64 * KiB, 256 * KiB]),
    "tracing": st.booleans(),
    "error_rate": st.sampled_from([0.0, 0.0, 1e-3, 2e-2]),
    "seed": st.integers(0, 2 ** 16),
    "planted": st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 4600), st.booleans()),
        max_size=4,
    ),
    "degrade": st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from([1.5, 4.0]),
                  st.integers(0, INSTANTS), st.integers(1, INSTANTS)),
        max_size=2,
    ),
    "offline": st.lists(
        st.tuples(st.integers(0, INSTANTS), st.integers(0, 2),
                  st.booleans()),
        max_size=3,
    ),
    "hog": st.lists(
        st.tuples(st.integers(0, INSTANTS), st.integers(1, 512 * KiB)),
        max_size=3,
    ),
})


def _assert_matches_oracle(scenario):
    completions, spans, events, counters = _run(scenario, oracle=False)
    (oracle_completions, oracle_spans, oracle_events,
     oracle_counters) = _run(scenario, oracle=True)
    assert completions == oracle_completions
    assert spans == oracle_spans
    assert counters == oracle_counters
    # one process-start hop per command is the only event that went
    assert oracle_events - events == len(scenario["commands"])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenario)
def test_state_machine_matches_generator_oracle(scenario):
    _assert_matches_oracle(scenario)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenario)
def test_state_machine_matches_generator_oracle_deep(scenario):
    _assert_matches_oracle(scenario)


def test_oracle_sees_offline_flushes_and_faults():
    """Pin that the drawn scenarios reach the paths the oracle covers."""
    scenario = {
        "n_ssds": 2, "chunk_bytes": 64 * KiB, "tracing": True,
        "error_rate": 0.0, "seed": 1,
        "planted": [(0, 0, True)],
        "degrade": [(1, 4.0, 0, INSTANTS)],
        "offline": [(2, 1, True)],
        "hog": [(0, 300 * KiB)],
        "commands": [
            (0, 0, NVMeOpcode.READ, 8, 0, True),     # persistent fault
            (0, 1, NVMeOpcode.WRITE, 512, 1, False),  # multi-chunk write
            (1, 1, NVMeOpcode.READ, 512, 1, True),
            (3, 1, NVMeOpcode.FLUSH, 0, 0, True),     # swallowed: offline
            (3, 0, NVMeOpcode.FLUSH, 0, 0, False),
        ],
    }
    completions, spans, events, counters = _run(scenario, oracle=False)
    oracle = _run(scenario, oracle=True)
    assert (completions, spans, counters) == oracle[:2] + oracle[3:]
    assert oracle[2] - events == len(scenario["commands"])
    statuses = {index: status for index, _, status, _ in completions}
    assert statuses[0] != 0 and statuses[4] == 0
    assert 3 not in statuses
    assert {name for name, *_ in spans} == {"nvme_io", "pcie_transfer"}
