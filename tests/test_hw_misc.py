"""Unit tests for cycle accounting, DRAM, PCIe and Platform assembly."""

import numpy as np
import pytest

from repro.config import (
    DRAMConfig,
    PCIeConfig,
    PlatformConfig,
)
from repro.errors import ConfigurationError, SimulationError
from repro.hw.cpu import CycleAccountant
from repro.hw.dram import DRAM
from repro.hw.pcie import PCIeFabric
from repro.hw.platform import Platform
from repro.sim import Environment
from repro.units import GB, KiB


# --- cycle accounting -----------------------------------------------------

def test_cycle_accountant_ipc_model():
    accountant = CycleAccountant()
    accountant.charge("submit", 450, ipc=2.25)
    accountant.charge("poll", 120, ipc=3.0)
    accountant.complete_request(2)
    assert accountant.total_instructions == pytest.approx(570)
    assert accountant.total_cycles == pytest.approx(200 + 40)
    assert accountant.instructions_per_request() == pytest.approx(285)
    breakdown = accountant.breakdown()
    assert breakdown["submit"] == pytest.approx(200 / 240)


def test_cycle_accountant_rejects_bad_ipc():
    accountant = CycleAccountant()
    with pytest.raises(SimulationError):
        accountant.charge("submit", 100, ipc=0)


# --- DRAM -----------------------------------------------------------------

def test_dram_bandwidth_scales_with_channels():
    env = Environment()
    two = DRAM(env, DRAMConfig(channels=2))
    sixteen = DRAM(env, DRAMConfig(channels=16))
    assert sixteen.bandwidth == pytest.approx(8 * two.bandwidth)


def test_dram_bounce_counts_double():
    env = Environment()
    dram = DRAM(env, DRAMConfig(channels=16))

    def proc():
        yield from dram.bounce(1000)

    env.run(env.process(proc()))
    assert dram.bounce_bytes.total == 2000
    assert dram.link.bytes_moved.total == 2000


def test_dram_bounce_takes_two_crossing_times():
    env = Environment()
    dram = DRAM(env, DRAMConfig(channels=1, per_channel_bw=1 * GB))

    def proc():
        yield from dram.bounce(500_000_000)
        return env.now

    assert env.run(env.process(proc())) == pytest.approx(1.0)


# --- PCIe -----------------------------------------------------------------

def test_pcie_efficiency_grows_with_payload():
    env = Environment()
    fabric = PCIeFabric(env, PCIeConfig())
    assert fabric.effective_bandwidth(512) < fabric.effective_bandwidth(
        128 * KiB
    )
    assert fabric.effective_bandwidth(128 * KiB) < fabric.config.bandwidth


# --- Platform ---------------------------------------------------------------

def test_platform_assembles_table_iii():
    platform = Platform(PlatformConfig(num_ssds=3), functional=False)
    assert platform.num_ssds == 3
    assert platform.gpu.config.num_sms == 108
    assert platform.pcie is not platform.gpu_pcie


def test_platform_ssd_index_bounds():
    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    assert platform.ssd(1).ssd_id == 1
    with pytest.raises(ConfigurationError):
        platform.ssd(2)


def test_raid0_striping_round_robins():
    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    platform.stripe_blocks = 8
    seen = set()
    for stripe in range(8):
        ssd, local = platform.ssd_for_lba(stripe * 8)
        seen.add(ssd.ssd_id)
        assert local == (stripe // 4) * 8
    assert seen == {0, 1, 2, 3}


def test_striping_offset_within_stripe_preserved():
    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    ssd, local = platform.ssd_for_lba(13, stripe_blocks=8)
    assert ssd.ssd_id == 1
    assert local == 5


def test_negative_lba_rejected():
    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    with pytest.raises(ConfigurationError):
        platform.ssd_for_lba(-1)


@pytest.mark.parametrize("stripe_blocks", [1, 8, None])
@pytest.mark.parametrize("num_ssds", [1, 2, 3, 4, 7, 12])
def test_locate_lbas_is_ssd_for_lba_per_element(num_ssds, stripe_blocks):
    platform = Platform(PlatformConfig(num_ssds=num_ssds), functional=False)
    if stripe_blocks is not None:
        platform.stripe_blocks = stripe_blocks
    rng = np.random.default_rng(num_ssds)
    lbas = np.concatenate(
        [[0], rng.integers(0, 1 << 40, size=256), rng.integers(0, 64, 64)]
    )
    ssd_indexes, local_lbas = platform.locate_lbas(lbas)
    want = [platform.ssd_for_lba(int(lba)) for lba in lbas]
    assert ssd_indexes == [ssd.ssd_id for ssd, _ in want]
    assert local_lbas == [local for _, local in want]
    with pytest.raises(ConfigurationError, match="negative LBA -3"):
        platform.locate_lbas([0, -3])


def test_functional_flag_controls_stores():
    timing_only = Platform(PlatformConfig(num_ssds=1), functional=False)
    assert timing_only.ssds[0].store is None
    functional = Platform(PlatformConfig(num_ssds=1))
    assert functional.ssds[0].store is not None
