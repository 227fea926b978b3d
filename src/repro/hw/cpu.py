"""CPU model: instruction and cycle accounting.

The control planes differ in where their CPU time goes:

* kernel stacks burn instructions in the file system / io_map / block I/O
  layers at poor IPC (cache-missing kernel paths);
* SPDK/CAM burn most instructions in cache-resident polling loops at high
  IPC, which is why Fig. 13 shows them using *slightly* fewer instructions
  but *far* fewer cycles than libaio.

:class:`CycleAccountant` implements that model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import SimulationError


@dataclass
class CostSample:
    """Accumulated instruction/cycle counts for one category of work."""

    instructions: float = 0.0
    cycles: float = 0.0

    def add(self, instructions: float, ipc: float) -> None:
        if ipc <= 0:
            raise SimulationError(f"IPC must be positive, got {ipc}")
        self.instructions += instructions
        self.cycles += instructions / ipc


@dataclass
class CycleAccountant:
    """Per-request instruction and cycle bookkeeping, split by category.

    Categories used by the experiments: ``submit`` (building SQEs/syscalls),
    ``poll`` (completion polling loops), ``kernel`` (OS kernel layers),
    ``interrupt`` (IRQ + wakeup paths).
    """

    samples: Dict[str, CostSample] = field(default_factory=dict)
    requests: int = 0

    def charge(self, category: str, instructions: float, ipc: float) -> None:
        sample = self.samples.get(category)
        if sample is None:
            sample = self.samples[category] = CostSample()
        sample.add(instructions, ipc)

    def complete_request(self, count: int = 1) -> None:
        self.requests += count

    @property
    def total_instructions(self) -> float:
        return sum(s.instructions for s in self.samples.values())

    @property
    def total_cycles(self) -> float:
        return sum(s.cycles for s in self.samples.values())

    def instructions_per_request(self) -> float:
        return self.total_instructions / self.requests if self.requests else 0.0

    def cycles_per_request(self) -> float:
        return self.total_cycles / self.requests if self.requests else 0.0

    def breakdown(self) -> Dict[str, float]:
        """Fraction of cycles per category."""
        total = self.total_cycles
        if not total:
            return {}
        return {
            name: sample.cycles / total
            for name, sample in self.samples.items()
        }
