"""The edge-list builders of the synthetic GNN graphs, as the reference.

:func:`random_power_law_graph` draws a per-edge source array, stable-sorts
it and gathers both endpoint arrays through :meth:`OracleCSRGraph.from_edges`
— the plain way, at about five times the memory of the CSR arrays it
returns.  ``src/repro/workloads/gnn/graph.py`` writes the same arrays in
place; ``tests/test_graph_differential.py`` holds it to these, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.gnn.graph import CSRGraph


class OracleCSRGraph(CSRGraph):
    """A :class:`CSRGraph` built from edges by sorting the edge list."""

    @classmethod
    def from_edges(
        cls, num_nodes: int, src: np.ndarray, dst: np.ndarray
    ) -> "CSRGraph":
        """Build CSR from parallel edge arrays."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ConfigurationError("src/dst must have the same shape")
        order = np.argsort(src, kind="stable")
        src_sorted = src[order]
        dst_sorted = dst[order]
        counts = np.bincount(src_sorted, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dst_sorted)


def random_power_law_graph(
    num_nodes: int,
    avg_degree: float,
    exponent: float = 2.1,
    seed: int = 0,
) -> CSRGraph:
    """A directed graph with (approximately) power-law out-degrees.

    Degrees are drawn from a truncated zipf-like distribution rescaled to
    the requested average; destinations are preferential-attachment-ish
    (biased toward low node ids) so hubs emerge, as in citation graphs.
    """
    if num_nodes < 2:
        raise ConfigurationError("need at least 2 nodes")
    if avg_degree <= 0:
        raise ConfigurationError("avg_degree must be positive")
    rng = np.random.default_rng(seed)
    # heavy-tailed raw degrees, capped to keep memory sane
    raw = rng.zipf(exponent, size=num_nodes).astype(np.float64)
    cap = max(10.0, num_nodes / 50.0)
    raw = np.minimum(raw, cap)
    degrees = np.maximum(
        1, np.round(raw * (avg_degree / raw.mean())).astype(np.int64)
    )
    total_edges = int(degrees.sum())
    src = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
    # bias destinations toward low ids: square of a uniform skews low
    dst = (rng.random(total_edges) ** 2 * num_nodes).astype(np.int64)
    dst = np.minimum(dst, num_nodes - 1)
    return OracleCSRGraph.from_edges(num_nodes, src, dst)
