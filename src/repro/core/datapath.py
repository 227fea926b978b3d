"""The direct SSD<->GPU data path (paper Section III-A, data plane).

CAM pins GPU buffers via GDRCopy (``nvidia_p2p_get_pages``), learns the
*physical* address of the pinned range, and places that address straight
into NVMe SQEs — so device DMA lands in GPU memory without a CPU-memory
bounce.  :class:`DirectDataPath` is the bookkeeping half of that story:
pin, translate, resolve.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import AllocationError
from repro.hw.gpu import GPUBuffer, GPUMemory


class DirectDataPath:
    """GDRCopy-style registry of pinned GPU ranges."""

    def __init__(self, memory: GPUMemory):
        self.memory = memory
        self._registered: Dict[int, GPUBuffer] = {}

    def register(self, buffer: GPUBuffer) -> int:
        """Pin ``buffer`` and return its physical base address.

        "These pinned memory buffers can be mapped to the GPU memory
        through the function nvidia_p2p_get_pages.  After this procedure,
        we can know the start physical address of this big chunk of
        memory, and the address is continuous."
        """
        physical = self.memory.pin(buffer)
        self._registered[physical] = buffer
        return physical

    def unregister(self, buffer: GPUBuffer) -> None:
        stale = [
            phys
            for phys, registered in self._registered.items()
            if registered is buffer
        ]
        if not stale:
            raise AllocationError("buffer was never registered")
        for phys in stale:
            del self._registered[phys]

    def translate(self, buffer: GPUBuffer, byte_offset: int) -> int:
        """Virtual (buffer, offset) -> physical address for an SQE.

        The pinned chunk is physically continuous, so any offset within
        it is base + offset.
        """
        if not buffer.pinned:
            raise AllocationError("translate requires a pinned buffer")
        if not 0 <= byte_offset < buffer.size:
            raise AllocationError(
                f"offset {byte_offset} outside {buffer.size}B buffer"
            )
        return buffer.physical_address + byte_offset

    def resolve(self, physical_address: int) -> tuple:
        """Physical address -> (buffer, offset); the DMA engine's view."""
        for base, buffer in self._registered.items():
            if base <= physical_address < base + buffer.size:
                return buffer, physical_address - base
        raise AllocationError(
            f"physical address {physical_address:#x} is not registered"
        )
