"""The BaM system: GPU-resident NVMe queues driven by GPU thread blocks.

Timing model
------------
The GPU-side control plane is a pool of thread blocks that submit SQEs and
spin on CQEs.  Its aggregate request rate is ``io_sms x iops_per_sm``; the
SMs running that loop are *reserved* from the GPU's SM pool, so compute
kernels launched while BaM I/O is active get fewer SMs — reproducing the
contention behind the paper's Issue 3 and Fig. 4.
"""

from __future__ import annotations

import math
from typing import Generator, Optional

from repro.config import BaMConfig
from repro.errors import APIUsageError, ConfigurationError
from repro.hw.nvme import SQE, NVMeOpcode
from repro.hw.platform import Platform
from repro.oskernel.blockio import CompletionDispatcher
from repro.sim.resources import Resource
from repro.sim.stats import Counter


class BamSystem:
    """GPU-managed queues over every SSD of a platform."""

    def __init__(
        self,
        platform: Platform,
        config: Optional[BaMConfig] = None,
        io_sms: Optional[int] = None,
    ):
        """
        Parameters
        ----------
        io_sms:
            SMs dedicated to the I/O submission/poll loop.  Default: what
            :meth:`sms_to_saturate` computes for the platform's SSD count
            — BaM "needs to launch a large number of GPU thread blocks to
            submit enough in-flight I/O requests".
        """
        self.platform = platform
        self.env = platform.env
        self.config = config or platform.config.bam
        self.io_sms = (
            io_sms
            if io_sms is not None
            else self.sms_to_saturate(platform.num_ssds)
        )
        if not 1 <= self.io_sms <= platform.config.gpu.num_sms:
            raise ConfigurationError(
                f"io_sms {self.io_sms} outside "
                f"[1, {platform.config.gpu.num_sms}]"
            )
        #: serial control-plane stage with the aggregate GPU I/O rate
        self._control = Resource(self.env, capacity=1)
        self._per_request = 1.0 / (self.io_sms * self.config.iops_per_sm)
        self._handles = []
        for ssd in platform.ssds:
            qp = ssd.create_queue_pair(self.config.queue_depth)
            self._handles.append(
                (qp, CompletionDispatcher(self.env, qp))
            )
        self._sm_grants = None
        self.requests_done = Counter(self.env)
        self.bytes_done = Counter(self.env)

    # -- SM accounting ------------------------------------------------------
    def sms_to_saturate(self, num_ssds: int, is_write: bool = False) -> int:
        """SMs the submit/poll loop needs to saturate ``num_ssds`` (Fig. 4)."""
        ssd = self.platform.config.ssd
        iops = ssd.rand_write_iops if is_write else ssd.rand_read_iops
        needed = math.ceil(num_ssds * iops / self.config.iops_per_sm)
        return max(1, min(self.platform.config.gpu.num_sms, needed))

    def sm_utilization_to_saturate(
        self, num_ssds: int, is_write: bool = False
    ) -> float:
        """Fraction of the GPU the I/O loop occupies (Fig. 4's y-axis)."""
        return (
            self.sms_to_saturate(num_ssds, is_write)
            / self.platform.config.gpu.num_sms
        )

    def start_io_engine(self) -> Generator:
        """Process: reserve the I/O SMs (blocks until they are free)."""
        if self._sm_grants is not None:
            raise APIUsageError("BaM I/O engine already started")
        self._sm_grants = yield from self.platform.gpu.reserve_sms(
            self.io_sms
        )

    def stop_io_engine(self) -> None:
        """Release the I/O SMs back to compute kernels."""
        if self._sm_grants is None:
            raise APIUsageError("BaM I/O engine not running")
        self.platform.gpu.release_sms(self._sm_grants)
        self._sm_grants = None

    # -- I/O ------------------------------------------------------------------
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
        """Process: one synchronous BaM access (warp-blocking).

        The direct data path (SSD <-> GPU memory over PCIe P2P) is the
        SSD model's default, so only control-plane time is added here.
        """
        block_size = self.platform.config.ssd.block_size
        num_blocks = max(1, -(-nbytes // block_size))
        if ssd_index is None:
            ssd, local_lba = self.platform.ssd_for_lba(lba)
            ssd_index = ssd.ssd_id
        else:
            local_lba = lba
        qp, dispatcher = self._handles[ssd_index]

        # GPU thread-block submission + polling, serialized at the pool's
        # aggregate rate, plus the synchronous-API handshake
        with self._control.request() as slot:
            yield slot
            yield self.env.timeout(self._per_request)

        opcode = NVMeOpcode.WRITE if is_write else NVMeOpcode.READ
        sqe = SQE(
            opcode=opcode,
            lba=local_lba,
            num_blocks=num_blocks,
            payload=payload,
            target=target,
            target_offset=target_offset,
        )
        done = dispatcher.register(sqe.command_id)
        yield qp.submit(sqe)
        cqe = yield done
        yield self.env.timeout(self.config.sync_overhead)

        self.requests_done.add()
        self.bytes_done.add(nbytes)
        return cqe

    def control_rate(self) -> float:
        """Aggregate requests/second the GPU I/O loop sustains."""
        return 1.0 / self._per_request
