"""Unit tests for the SSD device model and block store."""

import numpy as np
import pytest

from repro.config import SSDConfig
from repro.errors import InvalidLBAError, SimulationError
from repro.hw.nvme import SQE, NVMeOpcode
from repro.hw.ssd import SSD, BlockStore
from repro.sim import Environment
from repro.units import GiB, KiB, US


# --- BlockStore -------------------------------------------------------------

def test_blockstore_roundtrip():
    store = BlockStore(capacity_bytes=1 * GiB)
    data = np.arange(1024, dtype=np.uint8)
    store.write(4096, data)
    assert np.array_equal(store.read(4096, 1024), data)


def test_blockstore_unwritten_reads_zero():
    store = BlockStore(capacity_bytes=1 * GiB)
    assert not store.read(0, 4096).any()


def test_blockstore_cross_page_write():
    store = BlockStore(capacity_bytes=1 * GiB)
    data = np.full(200 * KiB, 7, dtype=np.uint8)  # spans multiple 64K pages
    store.write(63 * KiB, data)
    assert np.array_equal(store.read(63 * KiB, 200 * KiB), data)
    # neighbours untouched
    assert not store.read(0, 63 * KiB).any()


def test_blockstore_rejects_out_of_range():
    store = BlockStore(capacity_bytes=1024)
    with pytest.raises(InvalidLBAError):
        store.read(1000, 100)
    with pytest.raises(InvalidLBAError):
        store.write(-8, np.zeros(8, dtype=np.uint8))


def test_blockstore_trim_discards():
    store = BlockStore(capacity_bytes=1 * GiB)
    store.write(0, np.ones(4096, dtype=np.uint8))
    assert store.resident_bytes > 0
    store.trim()
    assert store.resident_bytes == 0
    assert not store.read(0, 4096).any()


def test_blockstore_typed_data_roundtrip():
    store = BlockStore(capacity_bytes=1 * GiB)
    values = np.arange(100, dtype=np.int32)
    store.write(512, values)
    back = store.read(512, values.nbytes).view(np.int32)
    assert np.array_equal(back, values)


def test_blockstore_rejects_zero_capacity():
    with pytest.raises(SimulationError):
        BlockStore(capacity_bytes=0)


# --- SSD timing --------------------------------------------------------------

def _make_ssd(env, functional=True):
    # pcie=None isolates device-internal timing
    return SSD(env, SSDConfig(), pcie=None, functional=functional)


def _run_requests(env, ssd, count, opcode, blocks=8, payload=None):
    """Submit `count` commands and wait for all completions."""
    qp = ssd.create_queue_pair()

    def submitter():
        for index in range(count):
            sqe = SQE(
                opcode=opcode,
                lba=index * blocks,
                num_blocks=blocks,
                payload=payload,
            )
            yield qp.submit(sqe)

    def reaper():
        for _ in range(count):
            yield qp.pop_completion()
        return env.now

    env.process(submitter())
    reap = env.process(reaper())
    return env.run(reap)


def test_read_latency_near_calibration():
    env = Environment()
    ssd = _make_ssd(env)
    elapsed = _run_requests(env, ssd, count=1, opcode=NVMeOpcode.READ)
    # one 4 KiB read: ftl + media latency + channel transfer
    assert 15 * US <= elapsed <= 35 * US


def test_write_slower_than_read():
    env1 = Environment()
    read_time = _run_requests(
        env1, _make_ssd(env1), 1, NVMeOpcode.READ
    )
    env2 = Environment()
    write_time = _run_requests(
        env2, _make_ssd(env2), 1, NVMeOpcode.WRITE
    )
    assert write_time > read_time * 3


def test_random_read_iops_near_calibration():
    env = Environment()
    ssd = _make_ssd(env, functional=False)
    count = 3000
    elapsed = _run_requests(env, ssd, count, NVMeOpcode.READ, blocks=8)
    iops = count / elapsed
    # calibration: ~700K IOPS at 4 KiB, channel model gives ~600-700K
    assert 500_000 <= iops <= 750_000


def test_random_write_iops_near_calibration():
    env = Environment()
    ssd = _make_ssd(env, functional=False)
    count = 1200
    elapsed = _run_requests(env, ssd, count, NVMeOpcode.WRITE, blocks=8)
    iops = count / elapsed
    assert 120_000 <= iops <= 180_000


def test_large_reads_approach_sequential_bandwidth():
    env = Environment()
    ssd = _make_ssd(env, functional=False)
    blocks = 256  # 128 KiB
    count = 400
    elapsed = _run_requests(env, ssd, count, NVMeOpcode.READ, blocks=blocks)
    throughput = count * blocks * 512 / elapsed
    assert throughput >= 0.8 * SSDConfig().seq_read_bw
    assert throughput <= 1.05 * SSDConfig().seq_read_bw


def test_functional_write_then_read_roundtrip():
    env = Environment()
    ssd = _make_ssd(env)
    qp = ssd.create_queue_pair()
    payload = np.arange(4096, dtype=np.uint8) % 251

    def proc():
        yield qp.submit(
            SQE(NVMeOpcode.WRITE, lba=100, num_blocks=8, payload=payload)
        )
        yield qp.pop_completion()
        yield qp.submit(SQE(NVMeOpcode.READ, lba=100, num_blocks=8))
        cqe = yield qp.pop_completion()
        return cqe.value

    data = env.run(env.process(proc()))
    assert np.array_equal(data, payload)


def test_read_out_of_range_lba_fails_loudly():
    env = Environment()
    config = SSDConfig()
    ssd = SSD(env, config, pcie=None)
    qp = ssd.create_queue_pair()
    bad_lba = config.capacity_bytes // config.block_size  # one past the end

    def proc():
        yield qp.submit(SQE(NVMeOpcode.READ, lba=bad_lba, num_blocks=8))
        yield qp.pop_completion()

    env.process(proc())
    with pytest.raises(InvalidLBAError):
        env.run()


@pytest.mark.parametrize("direct", [False, True])
def test_out_of_range_lba_fails_without_killing_the_queue_pair(direct):
    """The bad command surfaces from ``env.run()`` as a failed event, not
    as an exception into the submitter or the ring's consumer: resumed,
    the run completes the next command on the same queue pair."""
    env = Environment()
    config = SSDConfig()
    ssd = SSD(env, config, pcie=None)
    qp = ssd.create_queue_pair()
    bad_lba = config.capacity_bytes // config.block_size
    bad = SQE(NVMeOpcode.READ, lba=bad_lba, num_blocks=8)
    good = SQE(NVMeOpcode.READ, lba=0, num_blocks=8)
    for sqe in (bad, good):
        if direct:
            ssd.submit_direct(qp, sqe)
        else:
            qp.try_submit(sqe)
    with pytest.raises(InvalidLBAError):
        env.run()
    env.run()
    assert [cqe.command_id for cqe in qp.cq.items] == [good.command_id]
    assert ssd.reads_completed.total == 1


def test_stats_counters_track_requests():
    env = Environment()
    ssd = _make_ssd(env, functional=False)
    _run_requests(env, ssd, 10, NVMeOpcode.READ, blocks=8)
    assert ssd.reads_completed.total == 10
    assert ssd.bytes_read.total == 10 * 8 * 512
    assert ssd.read_latency.count == 10
