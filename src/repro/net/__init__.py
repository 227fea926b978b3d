"""Disaggregated flash tier: fabric links, remote nodes, tiered cache.

The network layer past locally-attached NVMe (the GNStor direction):

* :class:`~repro.net.fabric.FabricLink` — latency/bandwidth/jitter/loss
  link model with a :class:`~repro.net.fabric.NetworkFaultInjector`
  (partitions, flaps, brownouts, lossy windows);
* :class:`~repro.net.remote.RemoteFlashBackend` — replica remote nodes
  behind deadline timeouts, hedged reads, per-node circuit breakers;
* :class:`~repro.net.tiered.TieredBackend` — local NVMe as a write-back
  cache over remote capacity, degrading to local-only mode on partition
  and resyncing the dirty log after heal.

:func:`build_disagg` assembles the whole stack in one call — it is what
the ``disagg`` experiment, the network chaos scenarios and the bench
sweep all share.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.base import StorageBackend, make_backend
from repro.cache.residency import integer_at_least
from repro.hw.platform import Platform
from repro.net.fabric import FabricLink, NetworkFaultInjector
from repro.net.remote import RemoteFlashBackend, RemoteNode
from repro.net.tiered import TieredBackend

__all__ = [
    "FabricLink",
    "NetworkFaultInjector",
    "RemoteFlashBackend",
    "RemoteNode",
    "TieredBackend",
    "build_disagg",
]


def build_disagg(
    platform: Platform,
    num_nodes: int = 2,
    node_backend: str = "spdk",
    fault_injector: Optional[NetworkFaultInjector] = None,
    local: Optional[StorageBackend] = None,
    capacity_bytes: int = 16 * 1024 * 1024,
    tiered: bool = True,
    deadline: float = 2e-3,
    hedge_after: Optional[float] = 200e-6,
    write_acks: str = "all",
    health=None,
    functional: bool = True,
    link_kwargs: Optional[dict] = None,
    **tier_kwargs,
):
    """Assemble a disaggregated tier on ``platform``'s environment.

    Each remote node is a full :class:`Platform` of its own (same
    config, shared simulation environment) running ``node_backend`` as
    its array control plane, reached over its own ``net:node<i>``
    fabric link.  Returns the :class:`TieredBackend` (or the bare
    :class:`RemoteFlashBackend` when ``tiered=False``).
    """
    if tiered:
        # refused before any node is built; the tier checks that it
        # holds at least one page
        integer_at_least("capacity_bytes", capacity_bytes)
    injector = fault_injector or NetworkFaultInjector()
    nodes = []
    for index in range(num_nodes):
        node_platform = Platform(
            platform.config, env=platform.env, functional=functional
        )
        link = FabricLink(
            platform.env,
            link_id=f"node{index}",
            fault_injector=injector,
            **(link_kwargs or {}),
        )
        nodes.append(
            RemoteNode(
                index, link, make_backend(node_backend, node_platform)
            )
        )
    remote = RemoteFlashBackend(
        platform,
        nodes,
        deadline=deadline,
        hedge_after=hedge_after,
        write_acks=write_acks,
        health=health,
    )
    if not tiered:
        return remote
    inner = local or make_backend("cam", platform)
    return TieredBackend(
        inner, remote, capacity_bytes=capacity_bytes, **tier_kwargs
    )
