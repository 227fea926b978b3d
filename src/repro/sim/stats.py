"""Statistics collectors used across the hardware models.

* :class:`TimeWeightedStat` tracks a piecewise-constant quantity (queue
  depth, busy workers) and reports its time-weighted mean — the standard way
  to measure utilization in a discrete-event simulation.
* :class:`Counter` accumulates totals (bytes moved, requests completed) and
  derives rates over the observation window.
* :class:`LatencyStat` records per-operation latencies with percentiles.
"""

from __future__ import annotations

import math
from array import array
from typing import Optional

from repro.errors import SimulationError
from repro.sim.core import Environment


class TimeWeightedStat:
    """Time-weighted average of a piecewise-constant signal."""

    def __init__(self, env: Environment, initial: float = 0.0):
        self.env = env
        self._value = initial
        self._start = env.now
        self._last = env.now
        self._area = 0.0
        self._max = initial

    @property
    def value(self) -> float:
        return self._value

    def record(self, value: float) -> None:
        """Set the signal to ``value`` from now on."""
        now = self.env.now
        self._area += self._value * (now - self._last)
        self._last = now
        self._value = value
        if value > self._max:
            self._max = value

    def add(self, delta: float) -> None:
        self.record(self._value + delta)

    def mean(self, until: Optional[float] = None) -> float:
        """Time-weighted mean from creation until ``until`` (default: now).

        ``until`` must not precede the last recorded sample: the collector
        keeps only the running area, so the signal's history before
        ``self._last`` cannot be re-integrated.  Allowing it would make
        the ``self._value * (end - self._last)`` term negative and
        silently corrupt utilization numbers.
        """
        end = self.env.now if until is None else until
        if end < self._last:
            raise SimulationError(
                f"mean(until={end}) precedes the last recorded sample at "
                f"{self._last}; the signal's history is not retained"
            )
        span = end - self._start
        if span <= 0:
            return self._value
        area = self._area + self._value * (end - self._last)
        return area / span

    @property
    def maximum(self) -> float:
        return self._max

    def reset(self) -> None:
        """Restart the observation window at the current time."""
        self._start = self.env.now
        self._last = self.env.now
        self._area = 0.0
        self._max = self._value


class Counter:
    """A running total with rate-per-second reporting."""

    def __init__(self, env: Environment):
        self.env = env
        self._total = 0.0
        self._start = env.now

    @property
    def total(self) -> float:
        return self._total

    def add(self, amount: float = 1.0) -> None:
        self._total += amount

    def rate(self, until: Optional[float] = None) -> float:
        """Total divided by elapsed observation time.

        A zero-length window reports 0.0 (nothing observable yet); a
        *negative* window — ``until`` before the observation start — is a
        caller bug and raises, matching
        :meth:`TimeWeightedStat.mean`'s treatment of out-of-window reads.
        """
        end = self.env.now if until is None else until
        span = end - self._start
        if span < 0:
            raise SimulationError(
                f"rate(until={end}) precedes the observation window "
                f"start at {self._start}"
            )
        if span == 0:
            return 0.0
        return self._total / span

    def reset(self) -> None:
        self._total = 0.0
        self._start = self.env.now


class LatencyStat:
    """Records individual operation latencies.

    The samples are packed doubles: 8 bytes each instead of a float
    object and a list slot (32 bytes), and the same values back.
    """

    def __init__(self):
        self._samples = array("d")

    def record(self, latency: float) -> None:
        self._samples.append(latency)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def total(self) -> float:
        """Sum of all recorded latencies (batch-seconds moved)."""
        return sum(self._samples)

    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, q: float) -> float:
        """q in [0, 100]; nearest-rank percentile."""
        if not self._samples:
            return 0.0
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1))
        return ordered[rank]

    def maximum(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def reset(self) -> None:
        del self._samples[:]
