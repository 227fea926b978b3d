"""The GNN graph builders against their edge-list oracle, and their memory.

``tests/graph_oracle.py`` builds each graph from a full edge list.  The
kept builders must return the same ``indptr`` and ``indices``, value for
value and dtype for dtype, for any input, while allocating little more
than the two arrays they return.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.gnn import paper100m
from repro.workloads.gnn.graph import CSRGraph, random_power_law_graph
from tests import graph_oracle


def _assert_same_csr(graph, oracle):
    for name in ("indptr", "indices"):
        got, want = getattr(graph, name), getattr(oracle, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


@given(
    num_nodes=st.integers(2, 20_000),
    avg_degree=st.floats(0.5, 20.0),
    exponent=st.floats(1.05, 3.5),
    seed=st.integers(min_value=0),
)
@settings(max_examples=60, deadline=None)
def test_power_law_graph_matches_the_edge_list_oracle(
    num_nodes, avg_degree, exponent, seed
):
    _assert_same_csr(
        random_power_law_graph(num_nodes, avg_degree, exponent, seed),
        graph_oracle.random_power_law_graph(
            num_nodes, avg_degree, exponent, seed
        ),
    )


@given(
    data=st.data(),
    num_nodes=st.integers(1, 60),
    num_edges=st.integers(0, 400),
)
@settings(max_examples=80, deadline=None)
def test_from_edges_matches_the_edge_list_oracle(data, num_nodes, num_edges):
    endpoints = st.lists(
        st.integers(0, num_nodes - 1), min_size=num_edges,
        max_size=num_edges,
    )
    src = np.array(data.draw(endpoints), dtype=np.int64)
    dst = np.array(data.draw(endpoints), dtype=np.int64)
    _assert_same_csr(
        CSRGraph.from_edges(num_nodes, src, dst),
        graph_oracle.OracleCSRGraph.from_edges(num_nodes, src, dst),
    )


def _build_peak_over_kept(build) -> float:
    """Peak bytes ``build()`` allocates over the bytes its graph keeps."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        graph = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - before) / (graph.indptr.nbytes + graph.indices.nbytes)


def test_power_law_build_allocates_little_beyond_the_graph():
    # the edge-list build peaks at 5.0x here
    ratio = _build_peak_over_kept(
        lambda: random_power_law_graph(1 << 17, 8.0, seed=0)
    )
    assert ratio <= 1.5


@pytest.mark.slow
def test_fig01_full_scale_build_allocates_little_beyond_the_graph():
    # Fig. 1's full-scale Paper100M graph: 2.2 M nodes, 32.1 M edges
    ratio = _build_peak_over_kept(paper100m().scale(0.02).build_graph)
    assert ratio <= 1.2
