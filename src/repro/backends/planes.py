"""Concrete backends: one per control plane.

Data-path summary (read direction):

=============  =========================  ================================
backend        control plane              data path
=============  =========================  ================================
posix/libaio/  CPU OS kernel              SSD -> CPU DRAM (-> cudaMemcpy
io_uring                                  -> GPU when ``to_gpu``)
spdk           CPU user space (reactors)  SSD -> CPU DRAM -> cudaMemcpy
                                          -> GPU (bounce, Figs. 14-16)
gds            CPU kernel (EXT4+NVFS)     SSD -> GPU direct
bam            GPU thread blocks          SSD -> GPU direct
cam            GPU-initiated, CPU user    SSD -> GPU direct (pinned)
=============  =========================  ================================
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.backends.base import StorageBackend
from repro.bam.system import BamSystem
from repro.core.api import CamContext
from repro.errors import ConfigurationError
from repro.gds.cufile import CuFileDriver
from repro.hw.platform import Platform
from repro.obs.causal import mint_context
from repro.oskernel.stacks import IoUringStack, LibaioStack, PosixStack
from repro.spdk.driver import SpdkDriver


class KernelBackend(StorageBackend):
    """POSIX / libaio / io_uring over the OS kernel path."""

    def __init__(
        self,
        platform: Platform,
        flavour: str = "posix",
        to_gpu: bool = False,
        threads: Optional[int] = None,
        reliability=None,
    ):
        super().__init__(platform, reliability=reliability)
        if flavour == "posix":
            num_ssds = platform.num_ssds
            default = min(16, platform.config.kernel_io.posix_threads * num_ssds)
            self.stack = PosixStack(
                platform,
                threads=threads or default,
                reliability=reliability,
            )
        elif flavour == "libaio":
            self.stack = LibaioStack(platform, reliability=reliability)
        elif flavour == "io_uring int":
            self.stack = IoUringStack(
                platform, poll_mode=False, reliability=reliability
            )
        elif flavour == "io_uring poll":
            self.stack = IoUringStack(
                platform, poll_mode=True, reliability=reliability
            )
        else:
            raise ConfigurationError(f"unknown kernel flavour {flavour!r}")
        self.model_name = flavour
        self.to_gpu = to_gpu

    @property
    def concurrency(self) -> int:
        """Natural closed-loop depth for peak throughput."""
        return self.stack.concurrency

    def io(
        self,
        lba: int,
        nbytes: int,
        is_write: bool = False,
        payload=None,
        target=None,
        target_offset: int = 0,
        ssd_index: Optional[int] = None,
    ) -> Generator:
        cqe = yield from self.stack.io(
            lba,
            nbytes,
            is_write=is_write,
            payload=payload,
            target=target,
            target_offset=target_offset,
            ssd_index=ssd_index,
        )
        if self.to_gpu and not is_write:
            # stage the second DRAM crossing + the host->GPU copy
            yield from self.platform.dram.access(nbytes)
            yield from self.platform.gpu.memcpy(nbytes)
        return cqe

    def bulk_time(self, total_bytes, granularity=4096, is_write=False,
                  **kwargs):
        kwargs.setdefault("to_gpu", self.to_gpu)
        return super().bulk_time(
            total_bytes, granularity, is_write, **kwargs
        )


class SpdkBackend(StorageBackend):
    """SPDK reactors with a bounce-buffered GPU data path.

    ``contiguous_dest=True`` models one big batched cudaMemcpy (its call
    overhead amortized away); ``False`` pays one call per request — the
    Fig. 16 collapse.
    """

    model_name = "spdk"

    def __init__(
        self,
        platform: Platform,
        num_reactors: Optional[int] = None,
        to_gpu: bool = True,
        contiguous_dest: bool = True,
        reliability=None,
    ):
        super().__init__(platform, reliability=reliability)
        self.driver = SpdkDriver(
            platform, num_reactors=num_reactors, reliability=reliability
        )
        self.to_gpu = to_gpu
        self.contiguous_dest = contiguous_dest

    def io(
        self,
        lba: int,
        nbytes: int,
        is_write: bool = False,
        payload=None,
        target=None,
        target_offset: int = 0,
        ssd_index: Optional[int] = None,
    ) -> Generator:
        if is_write and self.to_gpu:
            # GPU -> host copy + DRAM staging before the device write
            yield from self._gpu_hop(nbytes)
            yield from self.platform.dram.bounce(nbytes)
        cqe = yield from self.driver.io(
            lba,
            nbytes,
            is_write=is_write,
            payload=payload,
            target=target,
            target_offset=target_offset,
            ssd_index=ssd_index,
        )
        if not is_write and self.to_gpu:
            yield from self.platform.dram.bounce(nbytes)
            yield from self._gpu_hop(nbytes)
        return cqe

    def _gpu_hop(self, nbytes: int) -> Generator:
        if self.contiguous_dest:
            # batched copy: fabric time only, call overhead amortized
            yield from self.platform.gpu_pcie.transfer(nbytes)
        else:
            yield from self.platform.gpu.memcpy(nbytes, calls=1)

    def bulk_time(self, total_bytes, granularity=4096, is_write=False,
                  **kwargs):
        kwargs.setdefault("to_gpu", self.to_gpu)
        kwargs.setdefault("contiguous_dest", self.contiguous_dest)
        kwargs.setdefault("cores", self.driver.num_reactors)
        return super().bulk_time(
            total_bytes, granularity, is_write, **kwargs
        )


class BamBackend(StorageBackend):
    """BaM: GPU-managed queues, direct data path, SM occupancy."""

    model_name = "bam"

    def __init__(
        self,
        platform: Platform,
        io_sms: Optional[int] = None,
        reserve_sms: bool = False,
        reliability=None,
    ):
        super().__init__(platform, reliability=reliability)
        self.system = BamSystem(platform, io_sms=io_sms)
        if reserve_sms:
            platform.env.run(
                platform.env.process(self.system.start_io_engine())
            )

    def io(self, lba, nbytes, is_write=False, payload=None, target=None,
           target_offset=0, ssd_index=None) -> Generator:
        # a BaM synchronous load is a causal entry point of its own:
        # every io() mints (and finishes) one request context
        tracer = self.env.tracer
        ctx = (
            mint_context(tracer, "bam", lba=lba, is_write=is_write)
            if tracer.enabled else None
        )
        span = ctx.begin("load_wait", lba=lba) if ctx is not None else None
        try:
            if self.reliability is None:
                cqe = yield from self.system.io(
                    lba,
                    nbytes,
                    is_write=is_write,
                    payload=payload,
                    target=target,
                    target_offset=target_offset,
                    ssd_index=ssd_index,
                )
                return cqe
            ssd_id, local_lba = self._resolve_ssd(lba, ssd_index)
            cqe = yield from self._reliable_io(
                lambda: self.system.io(
                    local_lba,
                    nbytes,
                    is_write=is_write,
                    payload=payload,
                    target=target,
                    target_offset=target_offset,
                    ssd_index=ssd_id,
                ),
                ssd_id=ssd_id,
                lba=local_lba,
                nbytes=nbytes,
                is_write=is_write,
            )
            return cqe
        finally:
            if ctx is not None:
                ctx.end(span)
                ctx.finish()

    def bulk_time(self, total_bytes, granularity=4096, is_write=False,
                  **kwargs):
        kwargs.setdefault("cores", self.system.io_sms)
        return super().bulk_time(
            total_bytes, granularity, is_write, **kwargs
        )


class GdsBackend(StorageBackend):
    """NVIDIA GPUDirect Storage: direct data path, kernel request path."""

    model_name = "gds"

    def __init__(self, platform: Platform, reliability=None):
        super().__init__(platform, reliability=reliability)
        self.driver = CuFileDriver(platform)

    def io(self, lba, nbytes, is_write=False, payload=None, target=None,
           target_offset=0, ssd_index=None) -> Generator:
        # a GDS synchronous load is a causal entry point of its own:
        # every io() mints (and finishes) one request context
        tracer = self.env.tracer
        ctx = (
            mint_context(tracer, "gds", lba=lba, is_write=is_write)
            if tracer.enabled else None
        )
        span = ctx.begin("load_wait", lba=lba) if ctx is not None else None
        try:
            if self.reliability is None:
                cqe = yield from self.driver.io(
                    lba,
                    nbytes,
                    is_write=is_write,
                    payload=payload,
                    target=target,
                    target_offset=target_offset,
                    ssd_index=ssd_index,
                )
                return cqe
            ssd_id, local_lba = self._resolve_ssd(lba, ssd_index)
            cqe = yield from self._reliable_io(
                lambda: self.driver.io(
                    local_lba,
                    nbytes,
                    is_write=is_write,
                    payload=payload,
                    target=target,
                    target_offset=target_offset,
                    ssd_index=ssd_id,
                ),
                ssd_id=ssd_id,
                lba=local_lba,
                nbytes=nbytes,
                is_write=is_write,
            )
            return cqe
        finally:
            if ctx is not None:
                ctx.end(span)
                ctx.finish()


class CamBackend(StorageBackend):
    """CAM: the paper's control plane, wrapped as a backend.

    Exposes both the per-request path (for the load generator — requests
    go straight onto the manager's SPDK queue pairs, which is exactly
    what a one-request batch does) and the real batch API via
    :attr:`context` for workloads written against Table II.  The context
    does not autotune, so the manager's one core-sizing loop is free for
    a sampler-driven :class:`~repro.core.elastic.ElasticController`.
    """

    model_name = "cam"

    def __init__(
        self,
        platform: Platform,
        num_cores: Optional[int] = None,
        max_batch_requests: int = 65536,
        reliability=None,
    ):
        super().__init__(platform, reliability=reliability)
        self.context = CamContext(
            platform,
            num_cores=num_cores,
            autotune=False,
            max_batch_requests=max_batch_requests,
            reliability=reliability,
        )
        self.manager = self.context.manager

    def io(self, lba, nbytes, is_write=False, payload=None, target=None,
           target_offset=0, ssd_index=None) -> Generator:
        cqe = yield from self.manager.driver.io(
            lba,
            nbytes,
            is_write=is_write,
            payload=payload,
            target=target,
            target_offset=target_offset,
            ssd_index=ssd_index,
        )
        return cqe

    def bulk_time(self, total_bytes, granularity=4096, is_write=False,
                  **kwargs):
        kwargs.setdefault("cores", self.manager.active_reactors)
        return super().bulk_time(
            total_bytes, granularity, is_write, **kwargs
        )
