"""Hardware device models: NVMe SSDs, PCIe fabric, GPU, CPU, DRAM.

Every model is *functional + timed*: the SSD stores real bytes (so workloads
like mergesort verify correct results) while a calibrated timing model
advances simulated time (so the experiments reproduce the paper's
performance shapes).
"""

from repro.hw.nvme import CQE, SQE, NVMeOpcode, QueuePair
from repro.hw.ssd import SSD, BlockStore
from repro.hw.gpu import GPU, GPUBuffer, GPUMemory
from repro.hw.cpu import CycleAccountant
from repro.hw.dram import DRAM
from repro.hw.pcie import PCIeFabric
from repro.hw.platform import Platform

__all__ = [
    "CQE",
    "CycleAccountant",
    "DRAM",
    "GPU",
    "GPUBuffer",
    "GPUMemory",
    "NVMeOpcode",
    "PCIeFabric",
    "Platform",
    "QueuePair",
    "SQE",
    "SSD",
    "BlockStore",
]
