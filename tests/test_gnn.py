"""Tests for the GNN workload: graph, sampling, models, training."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.gnn import (
    CSRGraph,
    NeighborSampler,
    gat,
    gcn,
    graphsage,
    igb_full,
    paper100m,
    random_power_law_graph,
)
from repro.workloads.gnn.training import compare_epoch, run_gnn_epoch
from repro.config import GPUConfig


# --- graph -----------------------------------------------------------------

def test_csr_from_edges():
    graph = CSRGraph.from_edges(
        4, src=np.array([0, 0, 1, 3]), dst=np.array([1, 2, 3, 0])
    )
    assert graph.num_nodes == 4
    assert graph.num_edges == 4
    assert sorted(graph.neighbors(0).tolist()) == [1, 2]
    assert graph.degree(2) == 0
    assert graph.degree().tolist() == [2, 1, 0, 1]


def test_csr_from_empty_edge_lists():
    graph = CSRGraph.from_edges(3, [], [])
    assert graph.num_nodes == 3
    assert graph.num_edges == 0
    assert graph.indices.dtype == np.int64


def test_csr_validation():
    with pytest.raises(ConfigurationError):
        CSRGraph(np.array([0, 2, 1]), np.array([0, 1]))  # decreasing
    with pytest.raises(ConfigurationError):
        CSRGraph(np.array([0, 2]), np.array([0, 5]))  # endpoint range
    graph = CSRGraph.from_edges(2, np.array([0]), np.array([1]))
    with pytest.raises(ConfigurationError):
        graph.neighbors(5)


def test_power_law_graph_shape():
    graph = random_power_law_graph(5000, avg_degree=12.0, seed=4)
    assert graph.num_nodes == 5000
    mean_degree = graph.num_edges / graph.num_nodes
    assert mean_degree == pytest.approx(12.0, rel=0.2)
    degrees = graph.degree()
    # power-law-ish: the top node far exceeds the mean
    assert degrees.max() > 4 * mean_degree


def test_power_law_graph_deterministic():
    a = random_power_law_graph(1000, 8.0, seed=1)
    b = random_power_law_graph(1000, 8.0, seed=1)
    assert np.array_equal(a.indices, b.indices)


def test_power_law_graph_validation():
    with pytest.raises(ConfigurationError):
        random_power_law_graph(1, 5.0)
    with pytest.raises(ConfigurationError):
        random_power_law_graph(100, 0.0)


_PATH = CSRGraph.from_edges(3, np.array([0, 1]), np.array([1, 2]))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: _PATH.degree(-1), id="degree of -1"),
        pytest.param(lambda: _PATH.degree(3), id="degree of num_nodes"),
        pytest.param(
            lambda: CSRGraph.from_edges(3, np.array([-1]), np.array([0])),
            id="negative source",
        ),
        pytest.param(
            lambda: CSRGraph.from_edges(3, np.array([3]), np.array([0])),
            id="source past the last node",
        ),
        pytest.param(
            lambda: random_power_law_graph(100, 5.0, exponent=1.0),
            id="exponent of 1",
        ),
        pytest.param(
            lambda: random_power_law_graph(100, 5.0, exponent=float("nan")),
            id="NaN exponent",
        ),
        pytest.param(
            lambda: random_power_law_graph(100, float("nan")),
            id="NaN avg_degree",
        ),
        pytest.param(
            lambda: random_power_law_graph(100, float("inf")),
            id="infinite avg_degree",
        ),
        pytest.param(
            lambda: CSRGraph.from_edges(-1, [], []),
            id="negative node count",
        ),
        pytest.param(
            lambda: CSRGraph.from_edges(
                3, np.zeros((2, 2), dtype=np.int64),
                np.zeros((2, 2), dtype=np.int64),
            ),
            id="2-D edge arrays",
        ),
        pytest.param(
            lambda: CSRGraph.from_edges(4, [1.5], [2.7]),
            id="fractional endpoints",
        ),
        pytest.param(
            lambda: random_power_law_graph(100, 5.0, seed=-1),
            id="negative seed",
        ),
        pytest.param(
            lambda: random_power_law_graph(100, 5.0, seed=1.5),
            id="fractional seed",
        ),
        pytest.param(
            lambda: random_power_law_graph(100.5, 5.0),
            id="fractional num_nodes",
        ),
        pytest.param(
            lambda: random_power_law_graph(100, 5.0, seed=True),
            id="boolean seed",
        ),
        pytest.param(
            lambda: CSRGraph.from_edges(True, [0], [0]),
            id="boolean node count",
        ),
        pytest.param(
            lambda: CSRGraph.from_edges(4, [[1], [1, 2]], [[2], [2, 3]]),
            id="ragged edge lists",
        ),
    ],
)
def test_graph_layer_rejects_bad_input_with_a_typed_error(build):
    with pytest.raises(ConfigurationError):
        build()


# --- datasets ---------------------------------------------------------------

def test_dataset_specs_match_table_iv():
    p = paper100m()
    assert p.num_nodes == 111_059_956
    assert p.num_edges == 1_615_685_872
    assert p.feature_dim == 128
    i = igb_full()
    assert i.num_nodes == 269_364_174
    assert i.feature_dim == 1024
    # feature volumes: ~56 GB and ~1.1 TB
    assert p.feature_volume_bytes == pytest.approx(56e9, rel=0.03)
    assert i.feature_volume_bytes == pytest.approx(1.1e12, rel=0.03)


def test_dataset_scaling_preserves_degree_and_features():
    spec = paper100m()
    scaled = spec.scale(0.001)
    assert scaled.feature_dim == spec.feature_dim
    assert scaled.avg_degree == pytest.approx(spec.avg_degree, rel=0.01)
    assert scaled.num_nodes < spec.num_nodes


def test_dataset_scale_validation():
    with pytest.raises(ConfigurationError):
        paper100m().scale(0)
    with pytest.raises(ConfigurationError):
        paper100m().scale(1.5)


# --- sampling ----------------------------------------------------------------

def _sampler(fanouts=(25, 10)):
    graph = random_power_law_graph(20_000, 14.0, seed=2)
    return graph, NeighborSampler(graph, fanouts, seed=2)


def test_sampling_respects_fanouts():
    graph, sampler = _sampler()
    stats = sampler.sample(np.arange(100))
    assert len(stats.layer_edges) == 2
    assert stats.layer_edges[0] <= 100 * 25
    assert stats.layer_edges[1] <= stats.layer_nodes[0] * 10


def test_sampled_nodes_are_valid_and_unique():
    graph, sampler = _sampler()
    stats = sampler.sample(np.arange(50))
    unique = stats.unique_nodes
    assert len(np.unique(unique)) == len(unique)
    assert unique.min() >= 0 and unique.max() < graph.num_nodes
    # seeds always included
    assert np.all(np.isin(np.arange(50), unique))


def test_sampling_dedup_reduces_unique_count():
    graph, sampler = _sampler()
    stats = sampler.sample(np.arange(200))
    touched = len(stats.seed_nodes) + stats.total_edges
    assert stats.num_unique < touched


def test_sampling_validation():
    graph, sampler = _sampler()
    with pytest.raises(ConfigurationError):
        sampler.sample(np.array([]))
    with pytest.raises(ConfigurationError):
        sampler.sample(np.array([graph.num_nodes]))
    with pytest.raises(ConfigurationError):
        NeighborSampler(graph, fanouts=())


def test_epoch_batches_cover_all_train_nodes():
    graph, sampler = _sampler()
    train = np.arange(1000)
    batches = list(sampler.epoch_batches(train, batch_size=256))
    assert sum(len(b) for b in batches) == 1000
    assert np.array_equal(
        np.sort(np.concatenate(batches)), train
    )


# --- model cost models -----------------------------------------------------

def test_gat_costs_most_gcn_least():
    gpu = GPUConfig()
    nodes, edges = [2000, 20000], [2000, 20000]
    times = {
        spec.name: spec.train_time(gpu, nodes, edges, in_dim=128)
        for spec in (gcn(), graphsage(), gat())
    }
    assert times["GCN"] < times["GRAPHSAGE"] < times["GAT"]


def test_flops_scale_with_input_dim():
    spec = gcn()
    small = spec.flops([1000], [1000], in_dim=128)
    large = spec.flops([1000], [1000], in_dim=1024)
    assert large > 5 * small


def test_train_time_sms_fraction():
    spec = gcn()
    gpu = GPUConfig()
    full = spec.train_time(gpu, [1000], [1000], 128, sms_fraction=1.0)
    half = spec.train_time(gpu, [1000], [1000], 128, sms_fraction=0.5)
    assert half > full
    with pytest.raises(ConfigurationError):
        spec.train_time(gpu, [1000], [1000], 128, sms_fraction=0)


def test_flops_layer_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        gcn().flops([10], [10, 20], 128)


# --- training loops --------------------------------------------------------

def test_cam_beats_gids_within_paper_band():
    spec = paper100m().scale(0.004)
    results = compare_epoch(
        spec, gcn(), systems=("gids", "cam"), batch_size=32, max_batches=6
    )
    speedup = results["gids"].total_time / results["cam"].total_time
    assert 1.1 < speedup < 1.9  # paper: up to 1.84x


def test_gids_phase_shares_in_fig1_band():
    spec = paper100m().scale(0.004)
    times = run_gnn_epoch(spec, gcn(), "gids", batch_size=32, max_batches=6)
    shares = times.fractions()
    assert 0.40 <= shares["extract"] <= 0.70
    assert shares["sample"] > 0.05
    assert sum(shares.values()) == pytest.approx(1.0)


def test_gat_gains_most_on_paper100m():
    spec = paper100m().scale(0.004)
    speedups = {}
    for make_model in (gcn, gat):
        results = compare_epoch(
            spec, make_model(), systems=("gids", "cam"),
            batch_size=32, max_batches=6,
        )
        speedups[make_model().name] = (
            results["gids"].total_time / results["cam"].total_time
        )
    assert speedups["GAT"] > speedups["GCN"]


def test_unknown_system_rejected():
    with pytest.raises(ConfigurationError):
        run_gnn_epoch(paper100m().scale(0.004), gcn(), system="cuda")


def test_epoch_times_accounting():
    spec = paper100m().scale(0.004)
    times = run_gnn_epoch(spec, gcn(), "gids", batch_size=32, max_batches=4)
    assert times.batches == 4
    assert times.bytes_extracted > 0
    assert times.extraction_bandwidth > 0
    # serial system: phases sum to the total
    phase_sum = times.sample_time + times.extract_time + times.train_time
    assert times.total_time == pytest.approx(phase_sum, rel=0.01)
