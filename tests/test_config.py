"""Unit tests for the platform configuration."""

import dataclasses
import re
from pathlib import Path

import pytest

import repro.config
from repro.config import (
    DEFAULT_PLATFORM,
    CAMConfig,
    PlatformConfig,
    SSDConfig,
)
from repro.errors import ConfigurationError
from repro.units import US, gb_per_s


def test_default_matches_table_iii():
    config = DEFAULT_PLATFORM
    assert config.num_ssds == 12
    assert config.gpu.num_sms == 108
    assert "Xeon Gold 5320" in config.cpu.name
    assert "P5510" in config.ssd.name


def test_ssd_calibration_constants():
    ssd = SSDConfig()
    assert ssd.read_latency == pytest.approx(15 * US)
    assert ssd.write_latency == pytest.approx(82 * US)
    assert ssd.ftl_time(False) == pytest.approx(1 / 700_000)
    assert ssd.ftl_time(True) == pytest.approx(1 / 170_000)
    assert ssd.media_bandwidth(False) == pytest.approx(gb_per_s(6.5))
    assert ssd.media_bandwidth(True) == pytest.approx(gb_per_s(3.4))


def test_with_ssds_produces_copy():
    config = DEFAULT_PLATFORM.with_ssds(4)
    assert config.num_ssds == 4
    assert DEFAULT_PLATFORM.num_ssds == 12  # original untouched


def test_with_dram_channels():
    config = DEFAULT_PLATFORM.with_dram_channels(2)
    assert config.dram.channels == 2
    assert config.dram.bandwidth == pytest.approx(2 * gb_per_s(10.0))


def test_invalid_ssd_count_rejected():
    with pytest.raises(ConfigurationError):
        PlatformConfig(num_ssds=0)
    with pytest.raises(ConfigurationError):
        PlatformConfig(num_ssds=100)


def test_invalid_dram_channels_rejected():
    with pytest.raises(ConfigurationError):
        DEFAULT_PLATFORM.with_dram_channels(0)


def test_cam_core_bounds_follow_paper():
    # N SSDs -> N/4 .. N/2 manager cores
    cam = CAMConfig()
    assert cam.min_cores_per_ssd == pytest.approx(0.25)
    assert cam.max_cores_per_ssd == pytest.approx(0.5)


def test_summary_mentions_all_parts():
    summary = DEFAULT_PLATFORM.summary()
    assert set(summary) == {"CPU", "CPU Memory", "GPU", "SSD", "PCIe"}
    assert "12 x" in summary["SSD"]


def test_every_config_field_is_read_in_src():
    """A config field nothing reads is a setting that changes nothing:
    every field of every config dataclass is read as an attribute
    somewhere in the package."""
    package = Path(repro.config.__file__).resolve().parent
    source = "\n".join(
        path.read_text() for path in sorted(package.rglob("*.py"))
    )
    configs = [
        cls for cls in vars(repro.config).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        and cls.__module__ == repro.config.__name__
    ]
    assert len(configs) >= 10
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in configs
        for field in dataclasses.fields(cls)
        if not re.search(rf"\.{field.name}\b", source)
    ]
    assert unread == []
