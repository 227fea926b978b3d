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
paper's Goal 3.
"""

from __future__ import annotations

from typing import Generator, List, Optional

import numpy as np

from repro.config import CAMConfig
from repro.core.autotune import CoreAutotuner
from repro.core.control import BatchRequest, CamManager, check_lbas
from repro.core.regions import BatchArgs, SyncRegions
from repro.errors import APIUsageError
from repro.hw.gpu import GPUBuffer
from repro.hw.platform import Platform
from repro.obs.causal import mint_context


class CamContext:
    """CAM_init: SSD controllers, manager threads and sync regions."""

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
        self.autotuner = (
            CoreAutotuner(platform.num_ssds, config=self.config)
            if autotune
            else None
        )
        if self.autotuner is not None:
            # clamp the tuner's range to the cores the manager actually has
            self.autotuner.max_cores = min(
                self.autotuner.max_cores, self.manager.driver.num_reactors
            )
            self.autotuner.cores = min(
                self.autotuner.cores, self.autotuner.max_cores
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


class _PendingBatch:
    """A prefetch/write_back in flight: its regions + completion event."""

    def __init__(self, regions: SyncRegions, done, rung_at: float,
                 trace_ctx=None, ctx_owned: bool = False):
        self.regions = regions
        self.done = done
        self.rung_at = rung_at
        #: causal context the batch belongs to, and whether this API
        #: minted it (and must finish it at synchronize)
        self.trace_ctx = trace_ctx
        self.ctx_owned = ctx_owned


class CamDeviceAPI:
    """Device-side calls; every method is a simulated-GPU coroutine."""

    def __init__(self, context: CamContext):
        self.context = context
        self.env = context.env
        self._pending_prefetch: Optional[_PendingBatch] = None
        self._pending_writeback: Optional[_PendingBatch] = None
        #: timestamp when the last synchronize returned (compute-time probe)
        self._last_sync_return: Optional[float] = None
        #: caller-bound :class:`~repro.obs.causal.RequestContext`; when
        #: set (e.g. by the serving engine for one turn), batches join
        #: that request instead of minting their own context
        self.trace_ctx = None

    # -- prefetch ----------------------------------------------------------
    def prefetch(
        self,
        lbas: np.ndarray,
        dest: GPUBuffer,
        granularity: int = 4096,
    ) -> Generator:
        """Process: initiate an asynchronous batched read into ``dest``.

        Only the *leading thread*'s doorbell write costs GPU time; the
        call returns immediately after — zero SMs are spent while the CPU
        manages the SSDs.
        """
        yield from self._initiate(
            lbas, dest, granularity, is_write=False, payloads=None
        )

    def prefetch_synchronize(self) -> Generator:
        """Process: block until the last ``prefetch`` fully landed.

        A synchronize with no prior prefetch is a no-op, matching the
        paper's Fig. 7 loop where the first iteration synchronizes before
        any prefetch was issued.
        """
        yield from self._synchronize("prefetch")

    # -- write back -----------------------------------------------------------
    def write_back(
        self,
        lbas: np.ndarray,
        src: GPUBuffer,
        granularity: int = 4096,
        payloads: Optional[list] = None,
    ) -> Generator:
        """Process: initiate an asynchronous batched write from ``src``."""
        yield from self._initiate(
            lbas, src, granularity, is_write=True, payloads=payloads
        )

    def write_back_synchronize(self) -> Generator:
        """Process: block until the last ``write_back`` is durable."""
        yield from self._synchronize("write_back")

    # -- internals ----------------------------------------------------------
    def _initiate(
        self,
        lbas: np.ndarray,
        buffer: GPUBuffer,
        granularity: int,
        is_write: bool,
        payloads,
    ) -> Generator:
        context = self.context
        context._check_open()
        lbas = np.asarray(check_lbas(lbas), dtype=np.int64)
        if len(lbas) > context.max_batch_requests:
            raise APIUsageError(
                f"batch of {len(lbas)} exceeds max_batch_requests "
                f"{context.max_batch_requests}"
            )
        if buffer is not None:
            if not buffer.pinned:
                raise APIUsageError(
                    "destination must be pinned CAM_alloc memory"
                )
            if len(lbas) * granularity > buffer.size:
                raise APIUsageError(
                    f"batch of {len(lbas)} x {granularity}B overflows "
                    f"{buffer.size}B buffer"
                )
        slot = "_pending_writeback" if is_write else "_pending_prefetch"
        if getattr(self, slot) is not None:
            raise APIUsageError(
                "previous batch not synchronized; call "
                + ("write_back_synchronize" if is_write
                   else "prefetch_synchronize")
                + " first"
            )
        if payloads is not None and len(payloads) != len(lbas):
            raise APIUsageError("payloads must match the LBA array length")

        # the four-region handshake (functional)
        regions = SyncRegions(self.env, max(len(lbas), 1))
        regions.write_lbas(lbas)
        regions.ring_doorbell(
            BatchArgs(
                request_count=len(lbas),
                dest_physical_address=(
                    buffer.physical_address if buffer is not None else 0
                ),
                granularity=granularity,
                is_write=is_write,
            )
        )
        # leading-thread doorbell cost — the only GPU time I/O ever takes
        yield self.env.timeout(context.config.doorbell_time)

        # the device API is a causal entry point: join the bound request
        # context if the caller set one, otherwise mint a fresh one that
        # the matching synchronize will finish
        tracer = self.env.tracer
        trace_ctx = self.trace_ctx
        ctx_owned = False
        if tracer.enabled and trace_ctx is None:
            trace_ctx = mint_context(
                tracer, "write_back" if is_write else "prefetch",
                requests=len(lbas),
            )
            ctx_owned = True
        batch = BatchRequest(
            lbas=lbas,
            granularity=granularity,
            is_write=is_write,
            dest=buffer,
            payloads=payloads,
            regions=regions,
            context=trace_ctx,
        )
        try:
            done = context.manager.ring(batch)
        except Exception:
            # shed at admission: close a context we minted ourselves so
            # the active-context gauge cannot leak on the retry path
            if ctx_owned and trace_ctx is not None:
                trace_ctx.finish(shed=True)
            raise
        setattr(
            self, slot,
            _PendingBatch(regions, done, self.env.now,
                          trace_ctx=trace_ctx, ctx_owned=ctx_owned),
        )

    def _synchronize(self, kind: str) -> Generator:
        slot = "_pending_writeback" if kind == "write_back" else (
            "_pending_prefetch"
        )
        pending: Optional[_PendingBatch] = getattr(self, slot)
        if pending is None:
            return  # no-op, first loop iteration
        # compute time since the batch was rung = what the GPU overlapped
        compute_time = self.env.now - pending.rung_at
        try:
            yield pending.done
        finally:
            # clear the slot on failure too, so the caller can retry
            setattr(self, slot, None)
            if pending.ctx_owned and pending.trace_ctx is not None:
                pending.trace_ctx.finish()
        self._last_sync_return = self.env.now
        context = self.context
        if context.autotuner is not None and kind == "prefetch":
            cores = context.autotuner.observe(
                compute_time, context.manager.last_io_time
            )
            if cores != context.manager.active_reactors:
                context.manager.set_active_reactors(cores)
