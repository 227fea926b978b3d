"""Tests for the raw async API and the pipeline helper."""

import numpy as np
import pytest

from repro.config import PlatformConfig
from repro.core import (
    CamAsyncAPI,
    CamContext,
    DoubleBuffer,
    run_prefetch_pipeline,
)
from repro.errors import APIUsageError
from repro.hw.platform import Platform
from repro.obs import install_tracer
from repro.units import KiB
from repro.workloads.vdisk import VirtualDisk


def _context(num_ssds=4, functional=False):
    platform = Platform(PlatformConfig(num_ssds=num_ssds),
                        functional=functional)
    return platform, CamContext(platform)


# --- async API -----------------------------------------------------------

def test_async_tickets_allow_multiple_outstanding():
    platform, context = _context()
    api = CamAsyncAPI(context)
    buffer = context.alloc(512 * KiB)
    env = platform.env
    lbas = np.arange(32, dtype=np.int64) * 8

    def driver():
        t1 = yield from api.submit(lbas, buffer, 4096)
        t2 = yield from api.submit(lbas + 256, buffer, 4096)
        assert api.outstanding == 2
        yield from api.wait(t1)
        yield from api.wait(t2)
        assert api.outstanding == 0

    env.run(env.process(driver()))
    assert context.manager.batches_done.total == 2


def test_async_wait_all():
    platform, context = _context()
    api = CamAsyncAPI(context)
    buffer = context.alloc(512 * KiB)
    lbas = np.arange(16, dtype=np.int64) * 8

    def driver():
        for offset in range(3):
            yield from api.submit(lbas + offset * 1024, buffer, 4096)
        yield from api.wait_all()

    platform.env.run(platform.env.process(driver()))
    assert api.outstanding == 0
    assert context.manager.batches_done.total == 3


def test_async_double_wait_rejected():
    platform, context = _context()
    api = CamAsyncAPI(context)
    buffer = context.alloc(64 * KiB)

    def driver():
        ticket = yield from api.submit(
            np.array([0], dtype=np.int64), buffer, 4096
        )
        yield from api.wait(ticket)
        with pytest.raises(APIUsageError):
            yield from api.wait(ticket)

    platform.env.run(platform.env.process(driver()))


def test_traced_async_batches_are_prefetch_requests_finished_at_wait():
    """A traced async batch is a causal entry point, as a sync one is:
    a ``prefetch`` request context minted at submit and finished at
    wait, with the batch span in its trace."""
    platform, context = _context()
    env = platform.env
    tracer = install_tracer(env)
    api = CamAsyncAPI(context)
    buffer = context.alloc(64 * KiB)
    lbas = np.arange(8, dtype=np.int64) * 8
    tickets, waited = [], []

    def driver():
        for offset in (0, 256):
            tickets.append((yield from api.submit(lbas + offset, buffer)))
        assert tracer.contexts_active == 2
        yield from api.wait(tickets[0])
        waited.append(env.now)
        yield from api.wait_all()
        waited.append(env.now)

    env.run(env.process(driver()))
    assert tracer.contexts_active == 0
    spans = list(tracer.spans())
    roots = [span for span in spans if span.name == "request"]
    assert sorted(root.tags["kind"] for root in roots) == ["prefetch"] * 2
    for ticket, finished in zip(tickets, waited):
        root = ticket.trace_ctx.root
        assert root in roots
        assert root.end == finished
        (batch,) = [
            span for span in spans
            if span.name == "batch"
            and span.tags["trace_id"] == ticket.trace_ctx.trace_id
        ]
        assert batch.end <= finished


def test_sync_matches_async_throughput():
    """Fig. 11's claim at the unit level: same bytes, same clock."""
    from repro.experiments.fig11_sync_vs_async import (
        _batched_read_throughput,
    )

    sync = _batched_read_throughput("cam-sync", 4, batches=4,
                                    batch_requests=1024)
    raw = _batched_read_throughput("cam-async", 4, batches=4,
                                   batch_requests=1024)
    assert sync == pytest.approx(raw, rel=0.15)


# --- pipeline helper --------------------------------------------------------

def test_double_buffer_swap():
    platform, context = _context()
    buffers = DoubleBuffer(context, 64 * KiB)
    a, b = buffers.read_buffer, buffers.compute_buffer
    buffers.swap()
    assert buffers.read_buffer is b
    assert buffers.compute_buffer is a
    buffers.release()


def test_prefetch_pipeline_overlaps_io_and_compute():
    platform, context = _context(num_ssds=12)
    env = platform.env
    batches = [np.arange(512, dtype=np.int64) * 8 for _ in range(6)]
    compute_time = 1e-3
    compute_calls = []

    def compute(index, buffer):
        compute_calls.append(index)
        yield env.timeout(compute_time)

    total = env.run(
        env.process(
            run_prefetch_pipeline(
                context, batches, compute, buffer_size=512 * 4096
            )
        )
    )
    assert compute_calls == list(range(6))
    # I/O per batch (~0.45 ms) hides under the 1 ms compute: the pipeline
    # runs in ~fill + 6 x compute, far below the serial sum
    serial_floor = 6 * compute_time + 6 * 0.4e-3
    assert total < serial_floor
    assert total == pytest.approx(6 * compute_time, rel=0.5)


def test_prefetch_pipeline_rejects_empty():
    platform, context = _context()

    def compute(index, buffer):
        yield platform.env.timeout(0)

    with pytest.raises(APIUsageError):
        platform.env.run(
            platform.env.process(
                run_prefetch_pipeline(context, [], compute, 4096)
            )
        )


def test_prefetch_pipeline_functional_data():
    platform, context = _context(functional=True)
    vdisk = VirtualDisk(platform)
    staged = (np.arange(16 * 4096) % 256).astype(np.uint8)
    vdisk.write_direct(0, staged)
    batches = [
        np.arange(8, dtype=np.int64) * 8,
        np.arange(8, dtype=np.int64) * 8 + 64,
    ]
    seen = []

    def compute(index, buffer):
        seen.append(buffer.read_bytes(0, 8 * 4096))
        yield platform.env.timeout(0)

    platform.env.run(
        platform.env.process(
            run_prefetch_pipeline(context, batches, compute, 8 * 4096)
        )
    )
    assert np.array_equal(seen[0], staged[: 8 * 4096])
    assert np.array_equal(seen[1], staged[8 * 4096 :])
