"""CAM's user-facing API (paper Table II).

Host side (:class:`CamContext`):

* ``CAM_init``  -> ``CamContext(platform)``
* ``CAM_alloc`` -> :meth:`CamContext.alloc` (pinned GPU memory, GDRCopy)
* ``CAM_free``  -> :meth:`CamContext.free`

Device side (:class:`CamDeviceAPI`, used inside simulated GPU kernels):

* ``prefetch(lba_array, req_num, dest)``        -> :meth:`prefetch`
* ``prefetch_synchronize()``                    -> :meth:`prefetch_synchronize`
* ``write_back(lba_array, req_num, src)``       -> :meth:`write_back`
* ``write_back_synchronize()``                  -> :meth:`write_back_synchronize`

The calls are asynchronous under the hood (the GPU returns right after
ringing the doorbell) but read synchronously at the call site — the
paper's Goal 3.  :class:`CamDeviceAPI` is the ticketed
:class:`~repro.core.async_api.CamAsyncAPI` with one outstanding ticket
per direction.
"""

from __future__ import annotations

from typing import Generator, List, Optional

import numpy as np

from repro.config import CAMConfig
from repro.core.async_api import CamAsyncAPI, CamTicket
from repro.core.control import CamManager
from repro.core.elastic import (
    BATCH_HIGH_WATER, BATCH_LOW_WATER, ElasticController, ElasticCorePolicy,
)
from repro.errors import APIUsageError
from repro.hw.gpu import GPUBuffer
from repro.hw.platform import Platform


class CamContext:
    """CAM_init: SSD controllers and manager threads.

    ``autotune`` builds the manager's one core-sizing loop,
    :attr:`controller`, fed the paper's per-batch signal at each
    ``prefetch_synchronize`` (see :mod:`repro.core.elastic`).
    """

    def __init__(
        self,
        platform: Platform,
        max_batch_requests: int = 65536,
        num_cores: Optional[int] = None,
        autotune: bool = True,
        config: Optional[CAMConfig] = None,
        reliability=None,
        admission=None,
        supervise_reactors: bool = False,
    ):
        self.platform = platform
        self.env = platform.env
        self.config = config or platform.config.cam
        self.reliability = reliability
        self.admission = admission
        self.manager = CamManager(
            platform,
            config=self.config,
            num_cores=num_cores,
            reliability=reliability,
            admission=admission,
            supervise_reactors=supervise_reactors,
        )
        self.controller = (
            ElasticController(
                None,
                manager=self.manager,
                policy=ElasticCorePolicy(
                    num_ssds=platform.num_ssds,
                    min_cores_per_ssd=self.config.min_cores_per_ssd,
                    max_cores_per_ssd=self.config.max_cores_per_ssd,
                    low_water=BATCH_LOW_WATER,
                    high_water=BATCH_HIGH_WATER,
                    cooldown=0.0,
                ),
            )
            if autotune
            else None
        )
        self.max_batch_requests = max_batch_requests
        self._buffers: List[GPUBuffer] = []
        self._closed = False

    # -- memory management (CAM_alloc / CAM_free) -----------------------
    def alloc(self, size: int) -> GPUBuffer:
        """Allocate *pinned* GPU memory the SSDs can DMA into.

        Mirrors the paper's CAM_alloc: the buffer is registered with
        GDRCopy (``nvidia_p2p_get_pages``) so its physical address can be
        placed in NVMe SQEs directly.
        """
        self._check_open()
        buffer = self.platform.gpu.memory.alloc(size)
        self.platform.gpu.memory.pin(buffer)
        self._buffers.append(buffer)
        return buffer

    def free(self, buffer: GPUBuffer) -> None:
        """Release a CAM_alloc'd buffer."""
        self._check_open()
        if buffer not in self._buffers:
            raise APIUsageError("buffer was not allocated by this context")
        self._buffers.remove(buffer)
        self.platform.gpu.memory.free(buffer)

    def close(self) -> None:
        """Tear the context down; outstanding buffers are released."""
        for buffer in list(self._buffers):
            self.platform.gpu.memory.free(buffer)
        self._buffers.clear()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise APIUsageError("context is closed")

    def __enter__(self) -> "CamContext":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- device API -----------------------------------------------------
    def device_api(self) -> "CamDeviceAPI":
        """The handle a GPU kernel uses (Table II device-side calls)."""
        self._check_open()
        return CamDeviceAPI(self)


class CamDeviceAPI(CamAsyncAPI):
    """Device-side calls; every method is a simulated-GPU coroutine.

    One outstanding batch per direction: each call submits through
    :meth:`~repro.core.async_api.CamAsyncAPI.submit` and keeps the
    ticket until its synchronize waits on it.
    """

    def __init__(self, context: CamContext):
        super().__init__(context)
        self._prefetch_ticket: Optional[CamTicket] = None
        self._write_back_ticket: Optional[CamTicket] = None

    # -- prefetch ----------------------------------------------------------
    def prefetch(
        self,
        lbas: np.ndarray,
        dest: GPUBuffer,
        granularity: int = 4096,
    ) -> Generator:
        """Process: initiate an asynchronous batched read into ``dest``."""
        if self._prefetch_ticket is not None:
            raise APIUsageError(
                "previous batch not synchronized; call "
                "prefetch_synchronize first"
            )
        self._prefetch_ticket = yield from self.submit(
            lbas, dest, granularity
        )

    def prefetch_synchronize(self) -> Generator:
        """Process: block until the last ``prefetch`` fully landed.

        A synchronize with no prior prefetch is a no-op, matching the
        paper's Fig. 7 loop where the first iteration synchronizes before
        any prefetch was issued.  The batch's compute and I/O times feed
        the context's core-sizing controller, if it has one.
        """
        ticket = self._prefetch_ticket
        if ticket is None:
            return
        # compute time since the batch was rung = what the GPU overlapped
        compute_time = self.env.now - ticket.rung_at
        try:
            yield from self.wait(ticket)
        finally:
            # clear the slot on failure too, so the caller can retry
            self._prefetch_ticket = None
        context = self.context
        if context.controller is not None:
            context.controller.observe(
                compute_time, context.manager.last_io_time
            )

    # -- write back -----------------------------------------------------------
    def write_back(
        self,
        lbas: np.ndarray,
        src: GPUBuffer,
        granularity: int = 4096,
        payloads: Optional[list] = None,
    ) -> Generator:
        """Process: initiate an asynchronous batched write from ``src``."""
        if self._write_back_ticket is not None:
            raise APIUsageError(
                "previous batch not synchronized; call "
                "write_back_synchronize first"
            )
        self._write_back_ticket = yield from self.submit(
            lbas, src, granularity, is_write=True, payloads=payloads
        )

    def write_back_synchronize(self) -> Generator:
        """Process: block until the last ``write_back`` is durable."""
        ticket = self._write_back_ticket
        if ticket is None:
            return
        try:
            yield from self.wait(ticket)
        finally:
            self._write_back_ticket = None
