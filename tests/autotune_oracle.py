"""The per-batch core tuner of the CAM device API, as the reference.

:class:`CoreAutotuner` is the open-loop advisor that ``CamContext``
once ran beside any elastic controller, verbatim: its own core count,
its own :class:`~repro.core.elastic.ElasticCorePolicy` (no cooldown)
and an observation history.  :func:`tuned_context` builds it for a
context as ``CamContext(autotune=True)`` did, clamped to the manager's
reactor pool, and :class:`TunedDeviceAPI` feeds it at each
``prefetch_synchronize`` and applies a changed count the same way.
``CamContext(autotune=True)`` now feeds that signal to its manager's one
:class:`~repro.core.elastic.ElasticController`;
``tests/test_autotune_differential.py`` holds it to this tuner.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Generator, Optional, Tuple

from repro.config import CAMConfig
from repro.core.api import CamContext, CamDeviceAPI
from repro.core.elastic import CoreDecision, ElasticCorePolicy
from repro.errors import ConfigurationError


@dataclass
class CoreAutotuner:
    """Chooses how many manager cores CAM should run."""

    num_ssds: int
    config: Optional[CAMConfig] = None
    #: don't shrink unless I/O finishes in this fraction of compute time
    shrink_threshold: float = 0.85
    #: grow as soon as I/O exceeds compute by this factor
    grow_threshold: float = 1.0
    #: cap on retained observations — long-running serving sims feed the
    #: advisor every batch forever, so the log must be bounded
    history_limit: int = 4096
    history: Deque[Tuple[float, float, int]] = field(init=False)

    def __post_init__(self):
        if self.num_ssds < 1:
            raise ConfigurationError("need at least one SSD")
        if self.shrink_threshold < 0 or self.grow_threshold < 0:
            raise ConfigurationError("thresholds must be non-negative")
        if self.shrink_threshold > self.grow_threshold:
            raise ConfigurationError(
                "shrink_threshold must not exceed grow_threshold "
                f"({self.shrink_threshold} > {self.grow_threshold})"
            )
        if self.history_limit < 1:
            raise ConfigurationError("history_limit must be >= 1")
        config = self.config or CAMConfig()
        self.min_cores = max(
            1, math.ceil(self.num_ssds * config.min_cores_per_ssd)
        )
        self.max_cores = max(
            self.min_cores,
            math.ceil(self.num_ssds * config.max_cores_per_ssd),
        )
        #: start at the maximum (safe) allocation, shrink when possible
        self.cores = self.max_cores
        self.history = deque(maxlen=self.history_limit)
        # io < compute * t  <=>  io/(io+compute) < t/(1+t): same bands,
        # expressed on the policy's [0, 1] pressure axis
        self.policy = ElasticCorePolicy(
            num_ssds=self.num_ssds,
            min_cores_per_ssd=config.min_cores_per_ssd,
            max_cores_per_ssd=config.max_cores_per_ssd,
            low_water=self.shrink_threshold / (1 + self.shrink_threshold),
            high_water=self.grow_threshold / (1 + self.grow_threshold),
            cooldown=0.0,
        )

    def observe(self, compute_time: float, io_time: float) -> int:
        """Feed the last batch's times; returns the new core count."""
        if compute_time < 0 or io_time < 0:
            raise ConfigurationError("times must be non-negative")
        self.history.append((compute_time, io_time, self.cores))
        self.cores = self.decide(compute_time, io_time).cores
        return self.cores

    def decide(self, compute_time: float, io_time: float) -> CoreDecision:
        """The policy's verdict for one batch, without applying it."""
        total = compute_time + io_time
        pressure = io_time / total if total > 0 else None
        # min/max may have been tightened after construction (CamContext
        # clamps to the physical reactor pool), so pass them explicitly
        return self.policy.decide(
            pressure=pressure,
            cores=self.cores,
            min_cores=self.min_cores,
            max_cores=self.max_cores,
        )

    @property
    def bounds(self) -> Tuple[int, int]:
        return (self.min_cores, self.max_cores)


def tuned_context(platform, num_cores: Optional[int] = None):
    """A context with no core-sizing loop of its own, and the tuner
    ``CamContext(autotune=True)`` built for it."""
    context = CamContext(platform, num_cores=num_cores, autotune=False)
    tuner = CoreAutotuner(platform.num_ssds, config=context.config)
    # clamp the tuner's range to the cores the manager actually has
    tuner.max_cores = min(
        tuner.max_cores, context.manager.driver.num_reactors
    )
    tuner.cores = min(tuner.cores, tuner.max_cores)
    return context, tuner


class TunedDeviceAPI(CamDeviceAPI):
    """A device API that feeds :class:`CoreAutotuner` at each
    ``prefetch_synchronize``, as the device API did."""

    def __init__(self, context: CamContext, tuner: CoreAutotuner):
        super().__init__(context)
        self.tuner = tuner

    def prefetch_synchronize(self) -> Generator:
        ticket = self._prefetch_ticket
        if ticket is not None:
            # compute time since the batch was rung = what the GPU
            # overlapped
            compute_time = self.env.now - ticket.rung_at
        yield from super().prefetch_synchronize()
        if ticket is None:
            return
        manager = self.context.manager
        cores = self.tuner.observe(compute_time, manager.last_io_time)
        if cores != manager.active_reactors:
            manager.set_active_reactors(cores)
