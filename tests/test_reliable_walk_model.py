"""Reference differential for the reliable coalesced walk.

The oracle is the reliable batch path as it was before reliable batches
became heap-callback records, kept here verbatim: a handler process per
batch that slices and groups the batch, and one ``io_batch_reliable``
generator per reactor group (a process of its own, joined by an
``AllOf``, when a slice spans several reactors) whose watchdog
deadlines, completion sinks and re-drives are closures.  Random
compositions of SSDs, reactors, submitters, reads and writes with
payloads, admission slicing, media faults (rate, one-shot and
persistent), devices going offline, reactor crashes, elastic remaps,
breaker trips, tracing and metrics run through both.  The records must
reproduce every batch outcome, every request's outcome, every device
completion in order, every reliability counter, span, metric and
accountant value, and the oracle's heap-event count minus exactly the
process-start hops they removed: one handler start per batch and one
walk start per group of a slice that spans several reactors.
"""

import gc
import hashlib
import sys
from collections import Counter
from typing import Generator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import PlatformConfig
from repro.core.control import BatchRequest, CamManager
from repro.errors import (
    ConfigurationError,
    DeviceError,
    DeviceOfflineError,
    DeviceTimeoutError,
    OverloadError,
    ReactorOfflineError,
)
from repro.hw.faults import FaultInjector
from repro.hw.nvme import SQE, NVMeOpcode
from repro.hw.platform import Platform
from repro.obs.metrics import install_metrics
from repro.obs.tracer import install_tracer
from repro.reliability import Reliability
from repro.reliability.admission import AdmissionController
from repro.reliability.health import HealthTracker
from repro.sim.core import Timeout
from repro.spdk import driver as spdk_driver
from repro.spdk.driver import SpdkDriver
from repro.units import KiB, US

GRANULARITY = 4 * KiB
#: 4 KiB pages per SSD the batches draw from, so planted faults get hit
PAGES = 64
#: submission instants; several batches may share one
STEP = 5 * US
#: crashes, remaps and offline devices land on a finer grid, so they
#: fall mid-group
TICK = 0.3 * US


def oracle_io_batch_reliable(
    driver,
    items,
    granularity: int,
    is_write: bool = False,
    target=None,
    parent_span=None,
) -> Generator:
    """``SpdkDriver.io_batch_reliable`` as the generator it was."""
    reliability = driver.reliability
    if reliability is None:
        raise ConfigurationError(
            "io_batch_reliable needs a reliability bundle; "
            "use io_batch"
        )
    if not items:
        return []
    env = driver.env
    opcode, num_blocks, poll_iterations = driver._shape(
        granularity, is_write
    )
    handles = driver._handles
    reactor = handles[items[0][1]].reactor
    tracer = env.tracer
    tracing = tracer.enabled
    per_request_cpu = driver.config.per_request_cpu
    watchdog = reliability.watchdog
    injector = driver.platform.fault_injector

    by_index = {item[0]: item for item in items}
    outcomes = {}  # orig_index -> CQE | DeviceError
    #: orig_indexes whose first CQE arrived (disarms the watchdog;
    #: retries arm their own guards inside _attempt)
    first_done = set()
    all_done = env.event()
    state = {"remaining": len(items)}

    def settle(orig_index, outcome):
        if orig_index in outcomes:
            # invariant: a request terminates exactly once
            driver.duplicate_completions += 1
            return
        outcomes[orig_index] = outcome
        state["remaining"] -= 1
        if state["remaining"] == 0:
            all_done.succeed()

    def make_attempt(orig_index, ssd_index, local_lba, payload):
        def attempt():
            # re-fetch the handle: after a failover the SSD may
            # have been re-homed onto a surviving reactor
            return driver._attempt(
                driver._handles[ssd_index], ssd_index, local_lba,
                num_blocks, granularity, is_write, payload, target,
                orig_index * granularity, parent_span,
            )
        return attempt

    metrics = env.metrics

    def link_redrive(ssd_index, local_lba):
        # flow-link the redrive back to the originating request so
        # cam-trace can attribute retry latency to its trace_id
        if tracing and parent_span is not None:
            tracer.instant(
                "redrive_link",
                parent=parent_span,
                ssd=ssd_index,
                lba=local_lba,
                trace_id=parent_span.tags.get("trace_id"),
                links=parent_span.tags.get("links"),
            )

    def redrive(orig_index, ssd_index, local_lba, payload):
        """Process: the full per-request reliable path for one item
        (used for items that never reached the wire)."""
        if metrics.enabled:
            metrics.redrive()
        link_redrive(ssd_index, local_lba)
        try:
            cqe = yield from reliability.run(
                make_attempt(orig_index, ssd_index, local_lba, payload),
                ssd_id=ssd_index,
                lba=local_lba,
                is_write=is_write,
                parent_span=parent_span,
            )
        except DeviceTimeoutError as error:
            reliability.health.mark_offline(ssd_index)
            settle(orig_index, error)
            return
        except DeviceError as error:
            settle(orig_index, error)
            return
        settle(orig_index, cqe)

    def redrive_failed(hop, orig_index, ssd_index, local_lba, payload,
                       first_cqe):
        """Process: re-drive one failed command through the retry loop,
        after replaying the fan-out path's three same-instant hops."""
        if metrics.enabled:
            metrics.redrive()
        link_redrive(ssd_index, local_lba)
        yield hop                # CQ-ring -> dispatcher wake
        yield env.timeout(0.0)   # per-command waiter event
        yield env.timeout(0.0)   # watchdog AnyOf condition
        try:
            cqe = yield from reliability.run(
                make_attempt(orig_index, ssd_index, local_lba, payload),
                ssd_id=ssd_index,
                lba=local_lba,
                is_write=is_write,
                parent_span=parent_span,
                first_cqe=first_cqe,
            )
        except DeviceTimeoutError as error:
            reliability.health.mark_offline(ssd_index)
            settle(orig_index, error)
            return
        except DeviceError as error:
            settle(orig_index, error)
            return
        settle(orig_index, cqe)

    def make_sink(ssd_index):
        def sink(cqe):
            orig_index = owners[cqe.command_id]
            if orig_index in outcomes:
                return  # watchdog already settled it
            first_done.add(orig_index)
            if cqe.ok:
                # mirror Reliability.run's first-attempt success
                cqe.attempts = 1
                reliability.health.record_success(ssd_index)
                settle(orig_index, cqe)
                return
            item = by_index[orig_index]
            hop = env.timeout(0.0)
            env.process(
                redrive_failed(
                    hop, orig_index, ssd_index, item[2], item[3], cqe
                )
            )
        return sink

    def arm_watchdog(orig_index, ssd_index, local_lba):
        # same deadline the fan-out guard would race the CQE against
        deadline = watchdog.deadline(granularity)
        timer = env.timeout(deadline)

        def expire(_event):
            if orig_index in first_done or orig_index in outcomes:
                return
            watchdog.timeouts_fired += 1
            error = watchdog.classify(
                ssd_ids=(ssd_index,),
                fault_injector=injector,
                deadline=deadline,
                description=f"spdk ssd {ssd_index} lba {local_lba}",
            )
            if tracer.enabled:
                tracer.instant(
                    "watchdog_timeout",
                    parent=parent_span,
                    deadline=deadline,
                    offline=isinstance(error, DeviceOfflineError),
                )
            reliability.health.mark_offline(ssd_index)
            first_done.add(orig_index)
            settle(orig_index, error)

        timer.callbacks.append(expire)

    groups = {}  # ssd_index -> CompletionGroup
    owners = {}  # command_id -> orig_index
    submitted = 0
    slot = reactor._serial.request()
    granted = False
    try:
        try:
            yield slot
            granted = True
        except ReactorOfflineError:
            pass  # whole group re-drives below
        if granted:
            last = len(items) - 1
            for pos, (orig_index, ssd_index, local_lba, payload) in (
                enumerate(items)
            ):
                if reactor.crashed:
                    break
                handle = handles[ssd_index]
                if handle.reactor is not reactor:
                    # a failover re-homed this SSD between grouping
                    # and submission: peel it off to the per-request
                    # path instead of charging the wrong reactor
                    env.process(
                        redrive(orig_index, ssd_index, local_lba, payload)
                    )
                    submitted += 1
                    continue
                span = None
                if tracing:
                    span = tracer.begin(
                        "submit",
                        parent=parent_span,
                        reactor=reactor.reactor_id,
                    )
                yield Timeout(env, per_request_cpu)
                reactor.busy_seconds += per_request_cpu
                reactor.last_progress = env.now
                if tracing:
                    cost = reactor.account_request(
                        poll_iterations=poll_iterations
                    )
                    span.tags["ssd"] = ssd_index
                    span.tags["is_write"] = is_write
                    span.tags.update(cost)
                    tracer.end(span)
                # the grant-analog hop: scheduled before the SQE goes on
                # the wire, popped before the next item's timer exists
                hop = env.timeout(0.0) if pos != last else None
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
                    group.sink = make_sink(ssd_index)
                    groups[ssd_index] = group
                handle.dispatcher.expect(group, sqe.command_id)
                owners[sqe.command_id] = orig_index
                # through the SQ ring (not submit_direct): retries
                # share these rings
                yield handle.queue_pair.submit(sqe)
                if watchdog is not None:
                    arm_watchdog(orig_index, ssd_index, local_lba)
                submitted += 1
                if hop is not None:
                    yield hop
    finally:
        if granted:
            reactor._serial.release(slot)
        elif not slot.triggered:
            slot.cancel()
    # reactor accounting covers only wire-submitted items (len(owners));
    # peeled/leftover items charge their own reactor inside _attempt
    reactor.requests.add(len(owners))
    if not tracing and len(owners):
        reactor.account_batch(
            len(owners), poll_iterations=poll_iterations
        )
    if metrics.enabled and owners:
        metrics.coalesced_group(reactor.reactor_id, len(owners))
    for ssd_index, group in groups.items():
        handles[ssd_index].dispatcher.seal(group)
    # unsubmitted leftovers ride the full per-request reliable path
    # (charge waits out a failover, every attempt gets its own guard)
    for orig_index, ssd_index, local_lba, payload in items[submitted:]:
        env.process(
            redrive(orig_index, ssd_index, local_lba, payload)
        )
    if state["remaining"]:
        yield all_done
    results = sorted(outcomes.items())
    completed = sum(
        1 for _, outcome in results
        if not isinstance(outcome, DeviceError)
    )
    driver.requests_done.add(completed)
    driver.bytes_done.add(completed * granularity)
    return results


class OracleManager(CamManager):
    """The reliable manager with a handler process per batch."""

    def __init__(self, platform, log, **kwargs):
        #: counts the handler and walk start hops the oracle creates
        self.log = log
        super().__init__(platform, **kwargs)

    def _start(self, batch: BatchRequest) -> None:
        self.log["start_hops"] += 1
        self.env.process(self._oracle_batch(batch))

    def _oracle_batch(self, batch: BatchRequest) -> Generator:
        try:
            count = batch.request_count
            step = self._slice_limit() or count
            failures = []
            for start in range(0, count, step):
                stop = min(start + step, count)
                results = yield from self._walk_reliable(batch, start, stop)
                failures.extend(self._failures(batch, results))
        finally:
            self._release(batch)
        self._complete(batch, failures)

    def _walk_reliable(
        self, batch: BatchRequest, start: int, stop: int
    ) -> Generator:
        walks = [
            oracle_io_batch_reliable(
                self.driver,
                items,
                batch.granularity,
                is_write=batch.is_write,
                target=batch.dest,
                parent_span=batch.trace_span,
            )
            for items in self._group(batch, start, stop)
        ]
        if len(walks) == 1:
            return (yield from walks[0])
        self.log["start_hops"] += len(walks)
        procs = [self.env.process(walk) for walk in walks]
        done = yield self.env.all_of(procs)
        results = []
        for proc in procs:
            results.extend(done[proc])
        results.sort(key=lambda pair: pair[0])
        return results


def _run(scenario, oracle):
    """Drive ``scenario`` through one pipeline; return what it saw."""
    num_ssds = scenario["num_ssds"]
    injector = FaultInjector(
        error_rate=scenario["error_rate"], seed=scenario["seed"]
    )
    for ssd_id, page, persistent in scenario["planted"]:
        injector.inject_lba(
            ssd_id % num_ssds, page % PAGES * 8, persistent=persistent
        )
    platform = Platform(
        PlatformConfig(num_ssds=num_ssds),
        functional=scenario["functional"], fault_injector=injector,
    )
    env = platform.env
    tracer = install_tracer(env) if scenario["tracing"] else None
    metrics = install_metrics(env) if scenario["metrics"] else None
    threshold = scenario["failure_threshold"]
    reliability = Reliability(
        platform,
        health=HealthTracker(
            env, num_ssds, failure_threshold=threshold,
            degraded_after=min(2, threshold),
        ),
        watchdog_timeout=50e-3 if scenario["watchdog"] else None,
    )
    admission = None
    if scenario["admission"] is not None:
        max_requests, limit, high_water = scenario["admission"]
        admission = AdmissionController(
            env, max_inflight_requests=max_requests,
            max_inflight_bytes=1 << 40, degraded_batch_limit=limit,
            high_water=high_water,
        )
    log = {"start_hops": 0}
    kwargs = dict(
        num_cores=scenario["num_reactors"], admission=admission,
        reliability=reliability,
    )
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
    requests = []
    batch_ids = {}
    failures_of = manager._failures

    def failures(batch, results):
        # every request's outcome, as the slice that carried it ends
        for index, outcome in results:
            if isinstance(outcome, DeviceError):
                entry = (type(outcome).__name__, str(outcome))
            else:
                entry = (outcome.status, outcome.attempts,
                         outcome.complete_time)
            requests.append((batch_ids[id(batch)], index, env.now, entry))
        return failures_of(batch, results)

    manager._failures = failures
    rng = np.random.default_rng(scenario["seed"])

    def submitter(index, instant, count, is_write, with_payloads):
        yield env.timeout(instant * STEP)
        lbas = rng.integers(0, num_ssds * PAGES, size=count) * 8
        payloads = None
        if is_write and with_payloads:
            payloads = [
                np.full(GRANULARITY, (index * 7 + k) % 251, dtype=np.uint8)
                for k in range(count)
            ]
        batch = BatchRequest(
            lbas=lbas.astype(np.int64), granularity=GRANULARITY,
            is_write=is_write, payloads=payloads,
        )
        batch_ids[id(batch)] = index
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
        for tick, count in scenario["remaps"]:
            yield env.timeout(max(0.0, tick * TICK - env.now))
            try:
                manager.set_active_reactors(1 + count % num_reactors)
            except ReactorOfflineError:
                pass  # every reactor crashed: nothing to spread over

    def crasher():
        for tick, reactor_id, failover in scenario["crashes"]:
            yield env.timeout(max(0.0, tick * TICK - env.now))
            reactor_id %= num_reactors
            if failover:
                driver.fail_reactor(reactor_id)
            else:
                driver.pool.reactors[reactor_id].crash()

    def unplugger():
        for tick, ssd_id in scenario["offline"]:
            yield env.timeout(max(0.0, tick * TICK - env.now))
            injector.set_offline(ssd_id % num_ssds)

    for index, (instant, count, is_write, with_payloads) in enumerate(
        scenario["batches"]
    ):
        env.process(
            submitter(index, instant, count, is_write, with_payloads)
        )
    env.process(remapper())
    env.process(crasher())
    env.process(unplugger())
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
            reactor.last_progress,
            reactor.requests.total,
            reactor.accountant.requests,
            sorted(
                (name, sample.instructions, sample.cycles)
                for name, sample in reactor.accountant.samples.items()
            ),
        )
        for reactor in driver.pool.reactors
    ]
    health = reliability.health
    watchdog = reliability.watchdog
    stores = []
    for ssd in platform.ssds:
        digest = hashlib.sha256()
        if ssd.store is not None:
            for page_index, page in sorted(ssd.store._pages.items()):
                digest.update(page_index.to_bytes(8, "little"))
                digest.update(page.tobytes())
        stores.append(digest.hexdigest())
    counters = (
        manager.batches_done.total, manager.requests_done.total,
        manager.bytes_done.total, manager.batch_io_time._samples,
        manager.last_io_time, driver.requests_done.total,
        driver.bytes_done.total, driver.duplicate_completions,
        reliability.retries.total, reliability.fail_fasts.total,
        health.breaker_trips.total, health.breaker_resets.total,
        None if watchdog is None else watchdog.timeouts_fired,
        health.snapshot(),
        [
            (device.total_successes, device.total_failures,
             device.consecutive_failures, device.open_until)
            for device in health._devices.values()
        ],
        injector.faults_delivered, injector.offline_drops,
        injector.pending_one_shot,
        None if admission is None else (
            admission.inflight_requests, admission.inflight_bytes,
            admission.shed_requests.total,
        ),
        [(ssd.read_latency._samples, ssd.write_latency._samples,
          ssd.faults_reported) for ssd in platform.ssds],
        stores,
        env.now,
    )
    observed = (
        outcomes, requests, completions, spans, telemetry, reactors,
        counters,
    )
    return observed, env.events_processed, log


_batch = st.tuples(
    st.integers(0, 6),                  # submission instant (x STEP)
    st.integers(1, 512),                # requests
    st.booleans(),                      # write?
    st.booleans(),                      # a write carries payloads?
)

_scenario = st.fixed_dictionaries({
    "num_ssds": st.integers(1, 12),
    "num_reactors": st.integers(1, 6),
    "batches": st.lists(_batch, min_size=1, max_size=6),
    "seed": st.integers(0, 2 ** 16),
    "functional": st.booleans(),
    "error_rate": st.sampled_from([0.0, 0.0, 1e-3, 3e-2]),
    "planted": st.lists(
        st.tuples(
            st.integers(0, 11), st.integers(0, PAGES - 1), st.booleans()
        ),
        max_size=4,
    ),
    "offline": st.lists(
        st.tuples(st.integers(0, 2000), st.integers(0, 11)), max_size=1,
    ),
    "failure_threshold": st.sampled_from([1, 2, 5]),
    "watchdog": st.booleans(),
    "admission": st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from([600, 1 << 20]),        # in-flight bound
            st.sampled_from([None, 1, 7, 64]),      # slice size
            st.sampled_from([0.001, 0.05, 0.5]),    # high water
        ),
    ),
    "remaps": st.lists(
        st.tuples(st.integers(0, 2000), st.integers(0, 5)), max_size=3,
    ),
    "crashes": st.lists(
        st.tuples(st.integers(0, 2000), st.integers(0, 5), st.booleans()),
        max_size=2,
    ),
    "tracing": st.booleans(),
    "metrics": st.booleans(),
})


def _assert_matches_oracle(scenario):
    observed, events, _ = _run(scenario, oracle=False)
    oracle_observed, oracle_events, log = _run(scenario, oracle=True)
    assert observed == oracle_observed
    assert oracle_events - events == log["start_hops"]
    counters = observed[-1]
    assert counters[7] == 0  # duplicate_completions
    return observed, log


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenario)
def test_reliable_walk_records_match_generator_oracle(scenario):
    _assert_matches_oracle(scenario)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenario)
def test_reliable_walk_records_match_generator_oracle_deep(scenario):
    _assert_matches_oracle(scenario)


def test_oracle_sees_retries_timeouts_crashes_remaps_and_breakers(
    monkeypatch,
):
    """Pin that the drawn scenarios reach the paths the oracle covers:
    failed CQEs re-driven, requests peeled off by a remap mid-group,
    a walk whose queued serial slot a crash refused, watchdog timeouts
    on an offline device, retries, fail-fasts and breaker trips."""
    redrives = []
    refused = []
    redrive = spdk_driver._redrive
    granted = spdk_driver._reliable_granted

    def spy_redrive(walk, item, first_cqe=None, hop=None):
        redrives.append(sys._getframe(1).f_code.co_name)
        return redrive(walk, item, first_cqe, hop)

    def spy_granted(walk):
        refused.append(not walk._ok)
        granted(walk)

    monkeypatch.setattr(spdk_driver, "_redrive", spy_redrive)
    monkeypatch.setattr(spdk_driver, "_ON_RELIABLE_GRANT", [spy_granted])
    scenario = {
        "num_ssds": 6, "num_reactors": 3, "seed": 3, "functional": True,
        "error_rate": 3e-2, "planted": [(0, 3, True), (1, 5, False)],
        "offline": [(6000, 4)], "failure_threshold": 2, "watchdog": True,
        "admission": (1 << 20, 64, 0.001),
        "batches": [
            (0, 300, False, False),     # sliced, multi-reactor
            (0, 200, True, True),       # queued behind it, payloads
            (0, 64, False, False),
            (2, 512, True, True),
        ],
        "remaps": [(45, 1)],                     # mid-group shrink
        "crashes": [(30, 1, False), (700, 2, True)],
        "tracing": True, "metrics": True,
    }
    observed, log = _assert_matches_oracle(scenario)
    outcomes, requests, _, spans, _, _, counters = observed
    assert {outcome[2] for outcome in outcomes} == {
        "RetryExhaustedError", "DeviceOfflineError",
    }
    kinds = Counter(
        entry[0] if isinstance(entry[0], str) else entry[0] != 0
        for _, _, _, entry in requests
    )
    assert kinds[False] and kinds[True] and kinds["DeviceOfflineError"]
    # spies count both runs; each path is reached in each
    assert set(redrives) == {
        "_reliable_sink", "_reliable_step", "_reliable_close",
    }
    assert any(refused)
    retries, fail_fasts, trips, _, timeouts = counters[8:13]
    assert retries and fail_fasts and trips and timeouts
    assert log["start_hops"] > len(scenario["batches"])
    assert {"batch", "submit", "nvme_io", "retry", "watchdog_timeout",
            "redrive_link"} <= {span[1] for span in spans}


def test_full_sq_ring_waits_for_the_put_before_arming(monkeypatch):
    """A put into a full SQ ring is waited on before the watchdog is
    armed, and the parity hop pops first: both walks see the same
    completions and the same number of heap events."""
    waits = []
    put_done = spdk_driver._ReliableWalk._put_done

    def spy(walk, event):
        waits.append(walk.position)
        put_done(walk, event)

    monkeypatch.setattr(spdk_driver._ReliableWalk, "_put_done", spy)

    def run(oracle):
        platform = Platform(PlatformConfig(num_ssds=1), functional=False)
        driver = SpdkDriver(platform, reliability=Reliability(platform))
        env = platform.env
        env.run(until=0.0)  # the ring's consumer parks on its get
        ring = driver._handles[0].queue_pair.sq
        # an SQE parked in a one-slot ring: the walk's first put finds
        # it full and waits until the consumer takes this one
        ring.capacity = 1
        ring.items.append(
            SQE(opcode=NVMeOpcode.READ, lba=512, num_blocks=8)
        )
        items = [(index, 0, index * 8, None) for index in range(3)]
        walk = (
            oracle_io_batch_reliable(driver, items, GRANULARITY) if oracle
            else driver.io_batch_reliable(items, GRANULARITY)
        )
        results = env.run(env.process(walk))
        return (
            [(index, cqe.status, cqe.attempts, cqe.complete_time)
             for index, cqe in results],
            env.events_processed, env.now,
        )

    assert run(False) == run(True)
    assert waits == [0]


# -- the deadline timer -------------------------------------------------------


def _offline_tie_run(oracle):
    """Four requests on an offline SSD, each deadline tied by a probe.

    A probe is a ``Timeout`` of the watchdog's deadline made right after
    a request's SQE went on the wire, so it lands on that request's
    deadline at the same instant and priority but was created after the
    deadline was armed: the deadline must pop first.  Nothing completes
    on an offline SSD, so ``inflight`` counts the SQEs on the wire, and
    each goes on in the same heap pop that arms its deadline.
    """
    injector = FaultInjector()
    injector.set_offline(0)
    platform = Platform(
        PlatformConfig(num_ssds=1), functional=False,
        fault_injector=injector,
    )
    env = platform.env
    tracer = install_tracer(env)
    reliability = Reliability(platform, watchdog_timeout=50e-3)
    driver = SpdkDriver(platform, reliability=reliability)
    watchdog = reliability.watchdog
    deadline = watchdog.deadline(GRANULARITY)
    queue_pair = driver._handles[0].queue_pair
    items = [(index, 0, index * 8, None) for index in range(4)]
    walk = (
        oracle_io_batch_reliable(driver, items, GRANULARITY) if oracle
        else driver.io_batch_reliable(items, GRANULARITY)
    )
    process = env.process(walk)
    seen = []

    def probe(_event):
        tracer.instant("probe")
        seen.append((
            env.now, watchdog.timeouts_fired,
            reliability.health.snapshot(),
        ))

    probes = 0
    while probes < len(items):
        env.step()
        while probes < queue_pair.inflight:
            probes += 1
            Timeout(env, deadline).callbacks.append(probe)
    results = env.run(process)
    spans = [
        (span.name, span.begin, sorted(span.tags.items()))
        for span in tracer.spans()
        if span.name in ("probe", "watchdog_timeout")
    ]
    outcomes = [
        (index, type(outcome).__name__) for index, outcome in results
    ]
    return seen, spans, outcomes, env.events_processed, env.now


def test_each_deadline_pops_before_a_tie_created_after_it_was_armed():
    """Pinned tie: a deadline waiting behind an earlier one of its walk
    keeps the heap key it was armed with, so it still pops before an
    event created later for the same instant.  A fresh sequence number
    on each re-push would let the probe run first."""
    seen, spans, outcomes, events, now = _offline_tie_run(oracle=False)
    assert (seen, spans, outcomes, events, now) == _offline_tie_run(
        oracle=True
    )
    assert [fired for _, fired, _ in seen] == [1, 2, 3, 4]
    assert [name for name, _, _ in spans] == [
        "watchdog_timeout", "probe",
    ] * 4
    assert outcomes == [(index, "DeviceOfflineError") for index in range(4)]


def _deadline_entries(env):
    """The deadline timers on the heap, one entry each."""
    return [
        entry[3] for entry in env._heap
        if isinstance(entry[3], spdk_driver._DeadlineTimer)
    ]


def _reliable_manager(planted):
    """A reliable manager over 4 SSDs and 2 reactors, with one-shot
    media faults at ``planted`` ``(ssd, lba)`` pairs."""
    injector = FaultInjector()
    for ssd_id, lba in planted:
        injector.inject_lba(ssd_id, lba)
    platform = Platform(
        PlatformConfig(num_ssds=4), functional=False,
        fault_injector=injector,
    )
    reliability = Reliability(platform, watchdog_timeout=50e-3)
    manager = CamManager(platform, num_cores=2, reliability=reliability)
    return platform.env, manager, reliability


def test_a_reliable_walk_has_at_most_one_deadline_on_the_heap():
    """Every request a walk puts on the wire arms a deadline, yet at no
    pop does a walk have more than one of them on the heap."""
    env, manager, reliability = _reliable_manager([(0, 8), (1, 16)])
    batches = [
        BatchRequest(
            lbas=np.arange(count, dtype=np.int64) * 8,
            granularity=GRANULARITY, is_write=is_write,
        )
        for count, is_write in ((256, False), (96, True))
    ]
    for batch in batches:
        manager.ring(batch)
    timers = {}
    while env._heap:
        env.step()
        entries = _deadline_entries(env)
        assert len(entries) == len({id(timer) for timer in entries})
        for timer in entries:
            timers[id(timer)] = timer
    # one timer per walk: two reactors per batch
    assert len(timers) == 2 * len(batches)
    assert sum(len(timer.expiries) for timer in timers.values()) == 352
    assert all(timer.walk is None for timer in timers.values())
    assert reliability.retries.total == 2
    assert manager.batches_done.total == len(batches)


def test_a_finished_walk_is_freed_while_its_deadlines_are_pending():
    """Once a batch completed, nothing holds its walks: the deadlines
    still on the heap let go of them, and no reference cycle is left
    for the collector (it stays off from before the run)."""
    gc.collect()
    gc.disable()
    try:
        env, manager, reliability = _reliable_manager([(0, 8), (3, 24)])
        batch = BatchRequest(
            lbas=np.arange(512, dtype=np.int64) * 8,
            granularity=GRANULARITY, is_write=False,
        )
        env.run(manager.ring(batch))
        assert _deadline_entries(env)
        assert reliability.retries.total == 2
        assert not [
            obj for obj in gc.get_objects()
            if isinstance(obj, spdk_driver._ReliableWalk)
        ]
    finally:
        gc.enable()
    # the deadlines still pop, as no-ops
    finished = env.now
    env.run()
    assert env.now > finished + 50e-3
    assert reliability.watchdog.timeouts_fired == 0
