"""Tests for the GPUDirect Storage (GDS) baseline."""

from repro.backends import make_backend, measure_throughput
from repro.config import PlatformConfig
from repro.gds import CuFileDriver
from repro.hw.platform import Platform
from repro.units import KiB, gb_per_s


def _platform(num_ssds=12):
    return Platform(PlatformConfig(num_ssds=num_ssds), functional=False)


def test_register_and_read_file():
    platform = _platform(2)
    driver = CuFileDriver(platform)
    handle = driver.register_file("model.bin", 1 << 20)

    def proc():
        cqe = yield from driver.io_file(handle, 0, 128 * KiB)
        return cqe

    cqe = platform.env.run(platform.env.process(proc()))
    assert cqe.ok
    assert driver.requests_done.total == 1


def test_gds_throughput_collapses_near_paper_value():
    """~0.8 GB/s with 12 SSDs despite the devices' 20+ GB/s ability."""
    platform = _platform(12)
    backend = make_backend("gds", platform)
    measured = measure_throughput(
        backend, 128 * KiB, total_requests=200, concurrency=8
    )
    assert gb_per_s(0.5) < measured < gb_per_s(1.2)


def test_gds_fs_overhead_dominates():
    config = PlatformConfig().gds
    # the serial CPU section exceeds a 128 KiB device access time
    device_time = 128 * KiB / gb_per_s(6.5)
    assert config.per_request_cpu > 5 * device_time


def test_gds_raw_io_path():
    platform = _platform(2)
    driver = CuFileDriver(platform)

    def proc():
        cqe = yield from driver.io(0, 4096)
        return cqe

    assert platform.env.run(platform.env.process(proc())).ok


def test_gds_requires_filesystem_but_cam_does_not():
    """Paper: GDS runs over EXT4+NVFS; CAM requires raw block devices."""
    platform = _platform(2)
    driver = CuFileDriver(platform)
    assert driver.filesystem is not None
    from repro.core import CamContext

    context = CamContext(Platform(PlatformConfig(num_ssds=2),
                                  functional=False))
    assert not hasattr(context, "filesystem")
