"""CSR graph container + synthetic power-law graph generator.

Real Paper100M / IGB graphs are multi-hundred-GB downloads; the
reproduction generates power-law graphs with the papers' node/edge/feature
*ratios* at laptop scale (see :mod:`repro.workloads.gnn.datasets`).  The
quantity that drives the experiments — unique sampled nodes per batch,
hence feature bytes fetched — comes from real sampling over this real
structure.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.checks import as_integer, as_integer_array
from repro.errors import ConfigurationError

#: destinations drawn per ``Generator.random`` call; chunked calls read
#: the PCG64 stream exactly as one call does, so this sets only the size
#: of the float scratch buffer, never the graph
_DRAW_CHUNK = 1 << 16


def _integer(value, name: str, minimum: int) -> int:
    """``value`` as an int of at least ``minimum``, or ConfigurationError."""
    number = as_integer(value)
    if number is None or number < minimum:
        raise ConfigurationError(
            f"{name} must be an integer >= {minimum}, not {value!r}"
        )
    return number


class CSRGraph:
    """Compressed-sparse-row adjacency; directed edges ``src -> dst``."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or len(indptr) < 2:
            raise ConfigurationError("indptr must be 1-D with >= 2 entries")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ConfigurationError("indptr endpoints inconsistent")
        if np.any(np.diff(indptr) < 0):
            raise ConfigurationError("indptr must be non-decreasing")
        num_nodes = len(indptr) - 1
        if len(indices) and (indices.min() < 0 or indices.max() >= num_nodes):
            raise ConfigurationError("edge endpoint outside node range")
        self.indptr = indptr
        self.indices = indices

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def degree(self, node: Optional[int] = None):
        """Out-degree of one node, or the whole degree array."""
        if node is None:
            return np.diff(self.indptr)
        self._check_node(node)
        return int(self.indptr[node + 1] - self.indptr[node])

    def neighbors(self, node: int) -> np.ndarray:
        self._check_node(node)
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ConfigurationError(f"node {node} out of range")

    @classmethod
    def from_edges(
        cls, num_nodes: int, src: np.ndarray, dst: np.ndarray
    ) -> "CSRGraph":
        """Build CSR from parallel edge arrays; each node's edges keep
        their input order."""
        num_nodes = _integer(num_nodes, "num_nodes", 1)
        src, dst = as_integer_array(src), as_integer_array(dst)
        if src is None or dst is None or src.shape != dst.shape:
            raise ConfigurationError(
                "src/dst must be 1-D integer arrays of the same length"
            )
        src = src.astype(np.int64, copy=False)
        dst = dst.astype(np.int64, copy=False)
        if len(src) and (src.min() < 0 or src.max() >= num_nodes):
            raise ConfigurationError("edge endpoint outside node range")
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
        return cls(indptr, dst[np.argsort(src, kind="stable")])


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
    num_nodes = _integer(num_nodes, "num_nodes", 2)
    seed = _integer(seed, "seed", 0)
    if not 0 < avg_degree < math.inf:
        raise ConfigurationError("avg_degree must be positive and finite")
    if not exponent > 1:
        raise ConfigurationError("exponent must be greater than 1")
    rng = np.random.default_rng(seed)
    # heavy-tailed raw degrees, capped to keep memory sane
    raw = rng.zipf(exponent, size=num_nodes).astype(np.float64)
    np.minimum(raw, max(10.0, num_nodes / 50.0), out=raw)
    raw *= avg_degree / raw.mean()
    degrees = np.round(raw, out=raw).astype(np.int64)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.maximum(degrees, 1, out=degrees), out=indptr[1:])
    del raw, degrees  # only the CSR arrays outlive the build
    # Edges are drawn grouped by source, so indptr alone places them.
    # Destinations skew toward low ids (square of a uniform) and are
    # written straight into the kept array, one chunk of draws at a time.
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    draws = np.empty(min(_DRAW_CHUNK, len(indices)))
    for start in range(0, len(indices), _DRAW_CHUNK):
        uniform = draws[: len(indices) - start]
        rng.random(out=uniform)
        np.square(uniform, out=uniform)
        uniform *= num_nodes
        dst = indices[start : start + len(uniform)]
        np.copyto(dst, uniform, casting="unsafe")
        np.minimum(dst, num_nodes - 1, out=dst)
    return CSRGraph(indptr, indices)
