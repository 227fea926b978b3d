"""Reference differential for the fail-fast CAM batch pipeline.

The oracle is the pipeline as it was before batches and reactor walks
became heap-callback records, kept here verbatim: a poller that spawns
one handler process per batch, a handler that slices and groups the
batch, one ``io_batch`` generator per reactor group (a process of its
own, joined by an ``AllOf``, when a slice spans several reactors), and
sync regions whose doorbell and completion events exist from the start.
Random compositions of SSDs, reactors, submitters, admission slicing,
elastic remaps, reactor crashes, media faults, tracing and metrics run
through both.  The records must reproduce every batch outcome, every
completion in order, every span, metric, counter and accountant value,
and the oracle's heap-event count minus exactly the hops they removed:
one handler start per batch, one walk start per group of a slice that
spans several reactors, and the two region events of a batch that
carries regions.
"""

from typing import Generator, Optional

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import PlatformConfig
from repro.core.control import BatchRequest, CamManager
from repro.core.regions import BatchArgs, SyncRegions
from repro.errors import (
    ConfigurationError,
    DeviceError,
    OverloadError,
    ReactorOfflineError,
)
from repro.hw.faults import FaultInjector
from repro.hw.nvme import SQE, NVMeOpcode
from repro.hw.platform import Platform
from repro.obs.metrics import install_metrics
from repro.obs.tracer import install_tracer
from repro.reliability.admission import AdmissionController
from repro.sim.core import Process, Timeout
from repro.units import KiB, US

GRANULARITY = 4 * KiB
#: submission instants; several batches may share one
STEP = 5 * US
#: reactor crashes land on a finer grid, so they fall mid-group
CRASH_TICK = 0.3 * US


class OracleRegions(SyncRegions):
    """The sync regions with both handshake events created up front."""

    def __init__(self, env, max_requests, log):
        super().__init__(env, max_requests)
        self._doorbell = env.event()
        self._completion = env.event()
        #: counts the region events put on the heap
        self.log = log

    def ring_doorbell(self, args):
        super().ring_doorbell(args)  # succeeds the doorbell event
        self.log["region_events"] += 1

    def signal_completion(self):
        super().signal_completion()  # succeeds the completion event
        self._completion = self.env.event()
        self._doorbell = self.env.event()
        self.log["region_events"] += 1


def oracle_io_batch(
    driver,
    items,
    granularity: int,
    is_write: bool = False,
    target=None,
    parent_span=None,
    epoch: Optional[int] = None,
) -> Generator:
    """``SpdkDriver.io_batch`` as the generator it was."""
    if not items:
        return []
    if epoch is None:
        epoch = driver.resize_epoch
    block_size = driver.platform.config.ssd.block_size
    num_blocks = max(1, -(-granularity // block_size))
    poll_iterations = driver._poll_iterations(is_write)
    opcode = NVMeOpcode.WRITE if is_write else NVMeOpcode.READ
    handles = driver._handles
    ssds = driver.platform.ssds
    reactor = handles[items[0][1]].reactor
    env = driver.env
    tracer = env.tracer
    groups = {}  # ssd_index -> CompletionGroup
    owners = {}  # command_id -> orig_index

    per_request_cpu = driver.config.per_request_cpu
    tracing = tracer.enabled
    submitted = 0
    slot = reactor._serial.request()
    granted = False
    try:
        try:
            yield slot
            granted = True
        except ReactorOfflineError:
            pass  # every item becomes a typed outcome below
        if granted:
            for orig_index, ssd_index, local_lba, payload in items:
                if reactor.crashed:
                    break
                handle = handles[ssd_index]
                if handle.reactor is not reactor:
                    if driver.resize_epoch == epoch:
                        raise ConfigurationError(
                            f"io_batch group mixes reactors: SSD "
                            f"{ssd_index} is owned by reactor "
                            f"{handle.reactor.reactor_id}, group "
                            f"started on {reactor.reactor_id}"
                        )
                span = None
                if tracing:
                    span = tracer.begin(
                        "submit",
                        parent=parent_span,
                        reactor=reactor.reactor_id,
                    )
                yield Timeout(env, per_request_cpu)
                reactor.busy_seconds += per_request_cpu
                if tracing:
                    cost = reactor.account_request(
                        poll_iterations=poll_iterations
                    )
                    span.tags["ssd"] = ssd_index
                    span.tags["is_write"] = is_write
                    span.tags.update(cost)
                    tracer.end(span)
                sqe = SQE(
                    opcode=opcode,
                    lba=local_lba,
                    num_blocks=num_blocks,
                    payload=payload,
                    target=target,
                    target_offset=orig_index * granularity,
                    trace_span=parent_span,
                )
                group = groups.get(ssd_index)
                if group is None:
                    group = handle.dispatcher.open_group()
                    groups[ssd_index] = group
                handle.dispatcher.expect(group, sqe.command_id)
                owners[sqe.command_id] = orig_index
                ssds[ssd_index].submit_direct(handle.queue_pair, sqe)
                submitted += 1
    finally:
        if granted:
            reactor._serial.release(slot)
        elif not slot.triggered:
            slot.cancel()
    reactor.requests.add(submitted)
    if not tracing and submitted:
        reactor.account_batch(submitted, poll_iterations=poll_iterations)
    metrics = env.metrics
    if metrics.enabled and submitted:
        metrics.coalesced_group(reactor.reactor_id, submitted)

    results = []
    for ssd_index, group in groups.items():
        handles[ssd_index].dispatcher.seal(group)
    for group in groups.values():
        cqes = yield group.event
        for command_id, cqe in cqes.items():
            results.append((owners[command_id], cqe))
    for orig_index, ssd_index, local_lba, payload in items[submitted:]:
        results.append((
            orig_index,
            ReactorOfflineError(
                f"reactor {reactor.reactor_id} crashed before "
                f"submitting ssd {ssd_index} lba {local_lba}",
                reactor_id=reactor.reactor_id,
                ssd_id=ssd_index,
                lba=local_lba,
            ),
        ))
    driver.requests_done.add(submitted)
    driver.bytes_done.add(submitted * granularity)
    results.sort(key=lambda pair: pair[0])
    return results


class OracleManager(CamManager):
    """The fail-fast manager with a handler process per batch."""

    def __init__(self, platform, log, **kwargs):
        #: counts the handler and walk start hops the oracle creates
        self.log = log
        super().__init__(platform, **kwargs)

    def _poll_loop(self) -> Generator:
        while True:
            batch = yield self._inbox.get()
            tracer = self.env.tracer
            poll_span = (
                tracer.begin("doorbell_poll", parent=batch.trace_span)
                if tracer.enabled
                else None
            )
            yield self.env.timeout(
                self.config.poll_interval / 2 + self.config.batch_setup_time
            )
            if poll_span is not None:
                tracer.end(poll_span)
            self.log["start_hops"] += 1
            self.env.process(self._handle_batch(batch))

    def _handle_batch(self, batch: BatchRequest) -> Generator:
        try:
            failures = yield from self._process_batch(batch)
        finally:
            if self.admission is not None:
                self.admission.release(
                    batch.request_count, batch.total_bytes
                )
        io_time = self.env.now - batch.submit_time
        self.last_io_time = io_time
        self.batch_io_time.record(io_time)
        self.batches_done.add()
        self.requests_done.add(batch.request_count)
        self.bytes_done.add(batch.total_bytes)
        metrics = self.env.metrics
        if metrics.enabled:
            metrics.batch_done(
                "write" if batch.is_write else "read",
                io_time,
                batch.request_count,
                batch.total_bytes,
                len(failures),
                trace_id=(
                    batch.context.trace_id
                    if batch.context is not None else None
                ),
            )
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant(
                "completion_signal",
                parent=batch.trace_span,
                requests=batch.request_count,
                failures=len(failures),
            )
            if batch.trace_span is not None:
                tracer.end(batch.trace_span, failures=len(failures))
            if batch.context is not None and batch.context_owned:
                batch.context.finish(failures=len(failures))
        if batch.regions is not None:
            batch.regions.signal_completion()
        if failures:
            batch.done.fail(self._batch_error(batch, failures))
        else:
            batch.done.succeed(io_time)

    def _process_batch(self, batch: BatchRequest) -> Generator:
        limit = (
            self.admission.batch_limit()
            if self.admission is not None
            else None
        )
        count = batch.request_count
        if limit is None or limit >= count:
            return (yield from self._process_batch_coalesced(batch))
        failures = []
        for start in range(0, count, limit):
            stop = min(start + limit, count)
            part = yield from self._process_batch_coalesced(
                batch, start, stop
            )
            failures.extend(part)
        return failures

    def _payload(self, batch: BatchRequest, index: int):
        if batch.payloads is not None:
            return batch.payloads[index]
        if batch.is_write and batch.dest is not None:
            return batch.dest.read_bytes(
                index * batch.granularity, batch.granularity
            )
        return None

    def _process_batch_coalesced(
        self,
        batch: BatchRequest,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> Generator:
        driver = self.driver
        platform = self.platform
        handles = driver._handles
        epoch = driver.resize_epoch
        stop = batch.request_count if stop is None else stop
        groups: dict = {}
        for index in range(start, stop):
            lba = batch.lbas[index]
            ssd, local_lba = platform.ssd_for_lba(int(lba))
            reactor = handles[ssd.ssd_id].reactor
            items = groups.get(reactor)
            if items is None:
                items = groups[reactor] = []
            items.append(
                (index, ssd.ssd_id, local_lba, self._payload(batch, index))
            )
        grouped = list(groups.values())
        walk = dict(
            granularity=batch.granularity,
            is_write=batch.is_write,
            target=batch.dest,
            parent_span=batch.trace_span,
            epoch=epoch,
        )
        if len(grouped) == 1:
            results = yield from oracle_io_batch(driver, grouped[0], **walk)
        else:
            self.log["start_hops"] += len(grouped)
            procs = [
                self.env.process(oracle_io_batch(driver, items, **walk))
                for items in grouped
            ]
            done = yield self.env.all_of(procs)
            results = []
            for proc in procs:
                results.extend(done[proc])
            results.sort(key=lambda pair: pair[0])
        failures = []
        for index, outcome in results:
            if isinstance(outcome, DeviceError):
                failures.append(
                    (
                        int(batch.lbas[index]),
                        getattr(outcome, "status", None) or 0,
                        getattr(outcome, "attempts", 1),
                        outcome,
                    )
                )
            elif not outcome.ok:
                failures.append(
                    (
                        int(batch.lbas[index]),
                        outcome.status,
                        outcome.attempts,
                        None,
                    )
                )
        return failures


def _run(scenario, oracle):
    """Drive ``scenario`` through one pipeline; return what it saw."""
    num_ssds = scenario["num_ssds"]
    platform = Platform(PlatformConfig(num_ssds=num_ssds), functional=False)
    env = platform.env
    tracer = install_tracer(env) if scenario["tracing"] else None
    metrics = install_metrics(env) if scenario["metrics"] else None
    if scenario["error_rate"]:
        injector = FaultInjector(
            error_rate=scenario["error_rate"], seed=scenario["seed"]
        )
        platform.fault_injector = injector
        for ssd in platform.ssds:
            ssd.fault_injector = injector
    admission = None
    if scenario["admission"] is not None:
        max_requests, limit, high_water = scenario["admission"]
        admission = AdmissionController(
            env, max_inflight_requests=max_requests,
            max_inflight_bytes=1 << 40, degraded_batch_limit=limit,
            high_water=high_water,
        )
    log = {"start_hops": 0, "region_events": 0}
    kwargs = dict(num_cores=scenario["num_reactors"], admission=admission)
    manager = (
        OracleManager(platform, log, **kwargs) if oracle
        else CamManager(platform, **kwargs)
    )
    driver = manager.driver
    num_reactors = driver.num_reactors

    completions = []
    for handle in driver._handles:
        queue_pair = handle.queue_pair

        def sink(cqe, inner=queue_pair.completion_sink,
                 ssd=handle.ssd_index):
            completions.append((ssd, cqe.complete_time, cqe.status))
            return inner(cqe)

        queue_pair.completion_sink = sink

    outcomes = []
    typed = manager._batch_error

    def batch_error(batch, failures):
        # the whole failure list, not just the first failure the typed
        # error names
        outcomes.append([
            (lba, status, attempts,
             None if error is None else type(error).__name__)
            for lba, status, attempts, error in failures
        ])
        return typed(batch, failures)

    manager._batch_error = batch_error
    rng = np.random.default_rng(scenario["seed"])

    def submitter(index, instant, count, is_write, with_regions):
        yield env.timeout(instant * STEP)
        lbas = rng.integers(0, 1 << 16, size=count).astype(np.int64)
        regions = None
        if with_regions:
            regions = (
                OracleRegions(env, count, log) if oracle
                else SyncRegions(env, count)
            )
            regions.write_lbas(lbas)
            regions.ring_doorbell(
                BatchArgs(count, 0, GRANULARITY, is_write)
            )
        batch = BatchRequest(
            lbas=lbas, granularity=GRANULARITY, is_write=is_write,
            regions=regions,
        )
        try:
            done = manager.ring(batch)
        except OverloadError:
            outcomes.append((index, env.now, "shed"))
            return
        try:
            io_time = yield done
        except DeviceError as error:
            outcomes.append(
                (index, env.now, type(error).__name__, str(error))
            )
        else:
            outcomes.append((index, env.now, "ok", io_time))

    def remapper():
        for instant, count in scenario["remaps"]:
            yield env.timeout(max(0.0, instant * STEP - env.now))
            try:
                manager.set_active_reactors(1 + count % num_reactors)
            except ReactorOfflineError:
                pass  # every reactor crashed: nothing to spread over

    def crasher():
        for tick, reactor_id, failover in scenario["crashes"]:
            yield env.timeout(max(0.0, tick * CRASH_TICK - env.now))
            reactor_id %= num_reactors
            if failover:
                driver.fail_reactor(reactor_id)
            else:
                driver.pool.reactors[reactor_id].crash()

    for index, (instant, count, is_write, with_regions) in enumerate(
        scenario["batches"]
    ):
        env.process(submitter(index, instant, count, is_write, with_regions))
    env.process(remapper())
    env.process(crasher())
    env.run()

    spans = []
    if tracer is not None:
        spans = [
            (span.span_id, span.name, span.begin, span.end,
             span.parent_id, sorted(span.tags.items()))
            for span in tracer.spans()
        ]
    telemetry = None
    if metrics is not None:
        telemetry = (
            metrics.registry.snapshot(), metrics.registry.exemplars(),
        )
    reactors = [
        (
            reactor.busy_seconds,
            reactor.requests.total,
            reactor.accountant.requests,
            sorted(
                (name, sample.instructions, sample.cycles)
                for name, sample in reactor.accountant.samples.items()
            ),
        )
        for reactor in driver.pool.reactors
    ]
    counters = (
        manager.batches_done.total, manager.requests_done.total,
        manager.bytes_done.total, manager.batch_io_time._samples,
        manager.last_io_time, driver.requests_done.total,
        driver.bytes_done.total, driver.duplicate_completions,
        None if admission is None else (
            admission.inflight_requests, admission.inflight_bytes,
            admission.shed_requests.total,
        ),
        [(ssd.read_latency._samples, ssd.write_latency._samples,
          ssd.faults_reported) for ssd in platform.ssds],
        env.now,
    )
    observed = (outcomes, completions, spans, telemetry, reactors, counters)
    return observed, env.events_processed, log


_batch = st.tuples(
    st.integers(0, 6),                  # submission instant (x STEP)
    st.integers(1, 512),                # requests
    st.booleans(),                      # write?
    st.booleans(),                      # carries sync regions?
)

_scenario = st.fixed_dictionaries({
    "num_ssds": st.integers(1, 12),
    "num_reactors": st.integers(1, 6),
    "batches": st.lists(_batch, min_size=1, max_size=6),
    "seed": st.integers(0, 2 ** 16),
    "error_rate": st.sampled_from([0.0, 0.0, 1e-3, 3e-2]),
    "admission": st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from([600, 1 << 20]),        # in-flight bound
            st.sampled_from([None, 1, 7, 64]),      # slice size
            st.sampled_from([0.001, 0.05, 0.5]),    # high water
        ),
    ),
    "remaps": st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 5)), max_size=3,
    ),
    "crashes": st.lists(
        st.tuples(st.integers(0, 600), st.integers(0, 5), st.booleans()),
        max_size=2,
    ),
    "tracing": st.booleans(),
    "metrics": st.booleans(),
})


def _assert_matches_oracle(scenario):
    observed, events, _ = _run(scenario, oracle=False)
    oracle_observed, oracle_events, log = _run(scenario, oracle=True)
    assert observed == oracle_observed
    removed = log["start_hops"] + log["region_events"]
    assert oracle_events - events == removed
    return observed, log


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenario)
def test_batch_records_match_generator_oracle(scenario):
    _assert_matches_oracle(scenario)


def test_oracle_sees_slices_crashes_remaps_and_faults():
    """Pin that the drawn scenarios reach the paths the oracle covers."""
    scenario = {
        "num_ssds": 6, "num_reactors": 3, "seed": 3, "error_rate": 3e-2,
        "admission": (1 << 20, 7, 0.001),
        "batches": [
            (0, 200, False, True),    # sliced, multi-reactor, regions
            (0, 1, True, False),      # single request, same instant
            (0, 64, True, True),
            (2, 300, False, False),
            (6, 5, False, True),
        ],
        "remaps": [(1, 0), (3, 2)],
        "crashes": [(30, 1, False), (900, 2, True)],
        "tracing": True, "metrics": True,
    }
    observed, log = _assert_matches_oracle(scenario)
    outcomes, completions, spans, *_ = observed
    assert {
        outcome[2] for outcome in outcomes if isinstance(outcome, tuple)
    } == {"ok", "MediaError"}
    failed = {
        kind for entry in outcomes if isinstance(entry, list)
        for _, _, _, kind in entry
    }
    # error CQEs (no exception) and requests a crash kept off the wire
    assert failed == {None, "ReactorOfflineError"}
    assert any(status for _, _, status in completions)
    assert log["region_events"] == 2 * 3
    assert log["start_hops"] > len(scenario["batches"])
    assert {"batch", "doorbell_poll", "submit", "nvme_io"} <= {
        span[1] for span in spans
    }


def test_fail_fast_batches_spawn_no_process(monkeypatch):
    platform = Platform(PlatformConfig(num_ssds=6), functional=False)
    admission = AdmissionController(
        platform.env, degraded_batch_limit=5, high_water=0.001
    )
    manager = CamManager(platform, num_cores=3, admission=admission)
    spawned = []
    original = Process.__init__

    def spawn(process, env, generator):
        spawned.append(generator.gi_code.co_name)
        original(process, env, generator)

    monkeypatch.setattr(Process, "__init__", spawn)
    lbas = np.arange(64, dtype=np.int64) * 8
    for is_write in (False, True):
        platform.env.run(manager.ring(
            BatchRequest(lbas=lbas, granularity=GRANULARITY,
                         is_write=is_write)
        ))
    assert manager.batches_done.total == 2
    assert spawned == []
