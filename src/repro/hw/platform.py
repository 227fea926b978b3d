"""Testbed assembly: builds the Table III platform from a
:class:`~repro.config.PlatformConfig`.

A :class:`Platform` owns one simulation environment and every device on it:
the GPU, DRAM, the PCIe fabric, and ``num_ssds`` SSDs.
Control-plane implementations and workloads all operate on a Platform, so
an experiment that sweeps SSD counts just builds one Platform per point.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.errors import ConfigurationError
from repro.hw.dram import DRAM
from repro.hw.gpu import GPU
from repro.hw.pcie import PCIeFabric
from repro.hw.ssd import SSD
from repro.sim.core import Environment


class Platform:
    """One simulated server: GPU + CPU + DRAM + PCIe + N SSDs."""

    def __init__(
        self,
        config: Optional[PlatformConfig] = None,
        env: Optional[Environment] = None,
        functional: bool = True,
        gpu_arena_bytes: int = 256 * 1024 * 1024,
        fault_injector=None,
    ):
        """
        Parameters
        ----------
        functional:
            When True the SSDs keep real bytes (needed by sort/GEMM/GNN
            examples); timing-only experiments pass False to avoid the
            memory cost.
        gpu_arena_bytes:
            Size of the functional GPU memory arena (see
            :class:`~repro.hw.gpu.GPUMemory`).
        """
        self.config = config or DEFAULT_PLATFORM
        self.env = env or Environment()
        #: storage-side fabric: SSD complex <-> host / P2P to the GPU.
        self.pcie = PCIeFabric(self.env, self.config.pcie)
        #: GPU-side link used by the copy engine (cudaMemcpy).  Bounce-
        #: buffered data paths cross *both* fabrics (SSD->host->GPU), while
        #: the direct P2P path (CAM/BaM/GDS) crosses only the storage one.
        self.gpu_pcie = PCIeFabric(self.env, self.config.pcie)
        self.dram = DRAM(self.env, self.config.dram)
        self.gpu = GPU(
            self.env,
            self.config.gpu,
            pcie=self.gpu_pcie.link,
            arena_bytes=gpu_arena_bytes,
        )
        self.fault_injector = fault_injector
        self.ssds: List[SSD] = [
            SSD(
                self.env,
                self.config.ssd,
                pcie=self.pcie.link,
                ssd_id=index,
                functional=functional,
                fault_injector=fault_injector,
            )
            for index in range(self.config.num_ssds)
        ]
        #: RAID0 stripe unit in blocks (8 x 512 B = 4 KiB default).
        #: Workloads that issue uniform large requests set this to their
        #: access granularity so each request maps to exactly one SSD.
        self.stripe_blocks = 8

    @property
    def num_ssds(self) -> int:
        return len(self.ssds)

    def ssd(self, index: int) -> SSD:
        if not 0 <= index < len(self.ssds):
            raise ConfigurationError(
                f"SSD index {index} out of range (have {len(self.ssds)})"
            )
        return self.ssds[index]

    def ssd_for_lba(
        self, global_lba: int, stripe_blocks: Optional[int] = None
    ) -> tuple:
        """RAID0-style striping: map a global LBA to (ssd, local LBA).

        ``stripe_blocks`` is the stripe unit in blocks; defaults to the
        platform's :attr:`stripe_blocks`.
        """
        ssd_index, local_lba = _stripe(
            global_lba,
            self.stripe_blocks if stripe_blocks is None else stripe_blocks,
            self.num_ssds,
        )
        return self.ssds[ssd_index], local_lba

    def locate_lbas(self, lbas) -> tuple:
        """:meth:`ssd_for_lba` for a whole batch of global LBAs at once.

        Returns ``(ssd_indexes, local_lbas)``: two lists of Python ints,
        one entry per LBA, striped with the platform's stripe unit.
        """
        stripe_blocks = self.stripe_blocks
        num_ssds = self.num_ssds
        ssd_indexes = []
        local_lbas = []
        for lba in np.asarray(lbas, dtype=np.int64).tolist():
            ssd_index, local_lba = _stripe(lba, stripe_blocks, num_ssds)
            ssd_indexes.append(ssd_index)
            local_lbas.append(local_lba)
        return ssd_indexes, local_lbas

    def check_extent(self, local_lbas, nbytes: int) -> None:
        """Reject requests of ``nbytes`` each that run past their SSD.

        ``local_lbas`` are per-SSD LBAs, as :meth:`locate_lbas` returns
        them.  A request is out of range when its local LBA plus its
        block count exceeds the SSD's capacity in blocks; raises
        :class:`~repro.errors.ConfigurationError` if any one is.
        """
        ssd = self.config.ssd
        blocks = max(1, -(-nbytes // ssd.block_size))
        capacity = ssd.capacity_bytes // ssd.block_size
        last = max(local_lbas)
        if last + blocks > capacity:
            raise ConfigurationError(
                f"{blocks} blocks at local LBA {last} run past the "
                f"{capacity} blocks of an SSD"
            )

    def reset_stats(self) -> None:
        """Restart all throughput/utilization observation windows."""
        self.pcie.reset_stats()
        self.gpu_pcie.reset_stats()
        self.dram.reset_stats()
        for ssd in self.ssds:
            ssd.reset_stats()

    def aggregate_read_throughput(self) -> float:
        return sum(ssd.read_throughput() for ssd in self.ssds)

    def __repr__(self) -> str:
        return (
            f"<Platform {self.config.gpu.name}, {self.num_ssds}x SSD, "
            f"{self.config.cpu.name}>"
        )


def _stripe(global_lba: int, stripe_blocks: int, num_ssds: int) -> tuple:
    """The RAID0 rule: ``(ssd_index, local_lba)`` of one global LBA."""
    if global_lba < 0:
        raise ConfigurationError(f"negative LBA {global_lba}")
    stripe, offset = divmod(global_lba, stripe_blocks)
    local_stripe, ssd_index = divmod(stripe, num_ssds)
    return ssd_index, local_stripe * stripe_blocks + offset
