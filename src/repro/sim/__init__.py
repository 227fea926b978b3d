"""Discrete-event simulation engine.

A small, dependency-free engine in the style of SimPy: an
:class:`~repro.sim.core.Environment` owns a time-ordered event heap, and
*processes* are Python generators that ``yield`` events (timeouts, other
processes, resource requests) to advance simulated time.

Public surface:

* :class:`Environment`, :class:`Event`, :class:`Timeout`, :class:`Process`
* :class:`ReservedTimeline` — events under heap keys reserved in advance
* :class:`AllOf`, :class:`AnyOf` condition events
* :class:`Resource`, :class:`PriorityResource`, :class:`Store`,
  :class:`Container`
* :class:`BandwidthLink` — a shared pipe with utilization accounting
* :class:`TimeWeightedStat`, :class:`Counter` — statistics helpers
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    ReservedTimeline,
    Timeout,
)
from repro.sim.resources import Container, PriorityResource, Resource, Store
from repro.sim.links import BandwidthLink
from repro.sim.stats import Counter, TimeWeightedStat

__all__ = [
    "AllOf",
    "AnyOf",
    "BandwidthLink",
    "Container",
    "Counter",
    "Environment",
    "Event",
    "PriorityResource",
    "Process",
    "ReservedTimeline",
    "Resource",
    "Store",
    "TimeWeightedStat",
    "Timeout",
]
