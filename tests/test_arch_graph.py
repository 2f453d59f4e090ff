import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcnas.arch_graph import (
    MAX_GRAPH_NODES,
    ArchGraph,
    AssignedSimilarity,
    MeasuredSimilarity,
    build_graph,
    dump_graph,
    measured_similarity,
    node_architecture,
    node_index,
    normalize_adjacency,
)
from gcnas.search_space import (
    SearchSpaceSpec,
    Subspace,
    SuperCell,
    materialize,
    sample_uniform,
)
from conftest import (
    ALL_FIXED,
    cell_hamming,
    gray_encode,
    hamming_adjacency_reference,
    measured_similarity_reference,
    normalize_reference,
    power_iteration_largest_eigenvalue,
    subspaces,
)

ASSIGNED = math.exp(-0.5)


def two_free_cells() -> Subspace:
    return Subspace(SearchSpaceSpec(3, 6), (0, 1), {2: 4})


class TestNodeIndex:
    def test_corners(self):
        sub = two_free_cells()
        assert node_index(sub, [0, 0]) == 0
        assert node_index(sub, [5, 5]) == 35

    def test_out_of_range_index(self):
        for index in (36, -1):
            with pytest.raises(ValueError, match=f"{index} is outside"):
                two_free_cells().digits([index])

    def test_short_row_errors(self):
        with pytest.raises(ValueError, match="shape"):
            node_index(two_free_cells(), [3])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_roundtrip(self, raw):
        sc = SuperCell((2, 3), ((0, 0), (1, 5), (2, 2)))
        sub = Subspace(SearchSpaceSpec(5, 6), (0, 4), {1: 3}, (sc,))
        index = raw % sub.node_count
        assert node_index(sub, sub.digits([index])[0]) == index


class TestBuildGraph:
    def test_two_free_cells_counts(self):
        graph = build_graph(two_free_cells())
        assert graph.num_nodes == 36
        degrees = graph.adjacency.getnnz(axis=1)
        assert (degrees == 10).all()
        assert graph.adjacency.nnz == 2 * 180

    def test_assigned_weight_on_every_edge(self):
        graph = build_graph(two_free_cells())
        assert np.allclose(graph.adjacency.data, ASSIGNED)

    def test_degree_formula_with_supercells(self):
        sc = SuperCell((0, 1), ((0, 0), (1, 5), (2, 2)))
        sub = Subspace(SearchSpaceSpec(4, 6), (2, 3), {}, (sc,))
        graph = build_graph(sub)
        expected = 2 * (6 - 1) + (3 - 1)
        assert (graph.adjacency.getnnz(axis=1) == expected).all()

    def test_edges_match_bruteforce_hamming(self):
        # free-only subspace: slot distance equals cell-level Hamming distance
        sub = Subspace(SearchSpaceSpec(3, 6), (0, 1, 2), {})
        graph = build_graph(sub)
        dense = graph.adjacency.toarray()
        archs = [materialize(sub, row) for row in sub.digits(np.arange(216))]
        for u in range(216):
            for v in range(u + 1, 216):
                expected = ASSIGNED if cell_hamming(archs[u], archs[v]) == 1 else 0.0
                assert dense[u, v] == pytest.approx(expected)
                assert dense[v, u] == dense[u, v]

    def test_supercell_counts_as_one_cell(self):
        sc = SuperCell((0, 1), ((0, 0), (5, 5)))
        sub = Subspace(SearchSpaceSpec(3, 6), (2,), {}, (sc,))
        graph = build_graph(sub)
        dense = graph.adjacency.toarray()
        digits = sub.digits(np.arange(graph.num_nodes))
        for u in range(graph.num_nodes):
            for v in range(u + 1, graph.num_nodes):
                slot_distance = sum(a != b for a, b in zip(digits[u], digits[v]))
                assert (dense[u, v] > 0) == (slot_distance == 1)

    def test_node_cap(self):
        sub = Subspace(SearchSpaceSpec(8, 6), tuple(range(8)), {})
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{6**8}.*{MAX_GRAPH_NODES}"):
                build_graph(sub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # rejected before any per-node array exists

    def test_features_are_gray_codes_of_materialized_archs(self):
        sc = SuperCell((0, 1), ((2, 5), (3, 3)))
        sub = Subspace(SearchSpaceSpec(4, 6), (3,), {2: 1}, (sc,))
        graph = build_graph(sub)
        spec = sub.spec
        for index in range(graph.num_nodes):
            arch = materialize(sub, sub.digits([index])[0])
            assert graph.features[index].tolist() == gray_encode(arch, spec).tolist()
            assert node_architecture(graph, index) == arch

    def test_measured_mode_requires_samples(self):
        with pytest.raises(ValueError, match="records"):
            build_graph(two_free_cells(), MeasuredSimilarity())


def assert_same_csr(got, want):
    assert got.has_canonical_format
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestKroneckerSumMatchesEdgeList:
    """build_graph and normalize_adjacency give the same bits as the edge-list
    construction and the broadcast-multiply normalization."""

    def check(self, graph, weight_of):
        want = hamming_adjacency_reference(graph.subspace, weight_of)
        assert_same_csr(graph.adjacency, want)
        assert_same_csr(normalize_adjacency(graph), normalize_reference(want))

    @settings(max_examples=60, deadline=None)
    @given(subspaces(), st.floats(1e-3, 10.0))
    @example(ALL_FIXED, ASSIGNED)
    def test_assigned(self, sub, weight):
        graph = build_graph(sub, AssignedSimilarity(weight))
        self.check(graph, lambda j, c_a, c_b: weight)

    @settings(max_examples=60, deadline=None)
    @given(subspaces(), st.integers(0, 2**32 - 1))
    @example(ALL_FIXED, 0)
    def test_measured_over_all_nodes(self, sub, seed):
        # every node once, in a random order, then a few repeated with new accuracies
        rng = np.random.default_rng(seed)
        ids = rng.permutation(sub.node_count)
        ids = np.concatenate([ids, rng.choice(ids, 3)])
        digits, accs = sub.digits(ids), rng.random(len(ids))
        mode = MeasuredSimilarity(min_pairs=2)
        table = measured_similarity(digits, accs, sub, mode)
        want = measured_similarity_reference(digits, accs, sub, mode)
        assert len(table) == len(want) == len(sub.slots)
        for w, ref, slot in zip(table, want, sub.slots):
            assert w.shape == (slot.radix, slot.radix)
            assert np.array_equal(w, w.T) and not w.diagonal().any()
            assert np.array_equal(w, ref)
        graph = build_graph(sub, mode, samples=(digits, accs))
        self.check(graph, lambda j, c_a, c_b: table[j][c_a, c_b])

    def test_search_ci_round_one_shape(self):
        # 10x6 space, plan [5, 5]: five free cells plus a K=6 super-cell, 6^6 nodes
        rng = np.random.default_rng(5)
        pool = sorted({tuple(rng.integers(0, 6, 5).tolist()) for _ in range(40)})
        candidates = [pool[i] for i in rng.choice(len(pool), 6, replace=False)]
        sub = Subspace(SearchSpaceSpec(10, 6), (5, 6, 7, 8, 9), {},
                       (SuperCell((0, 1, 2, 3, 4), candidates),))
        graph = build_graph(sub)
        assert graph.num_nodes == 6**6
        self.check(graph, lambda j, c_a, c_b: ASSIGNED)


class TestMeasuredSimilarity:
    def make_samples(self, sub, accuracy_of):
        digits = sample_uniform(sub, sub.node_count, seed=0)
        return digits, np.array([accuracy_of(row) for row in digits])

    def test_perfectly_correlated_pair(self):
        sub = Subspace(SearchSpaceSpec(2, 6), (0, 1), {})
        # accuracy depends only on the *other* cell: swapping cell 0's choice
        # between any two values gives perfectly correlated accuracies
        samples = self.make_samples(sub, lambda a: 0.5 + 0.01 * a[1])
        table = measured_similarity(*samples, sub, MeasuredSimilarity(min_pairs=4))
        assert table[0][0, 1] == pytest.approx(1.0)

    def test_anticorrelated_pair_clamps_to_floor(self):
        sub = Subspace(SearchSpaceSpec(2, 6), (0, 1), {})

        def accuracy(a):
            sign = 1.0 if a[0] == 0 else -1.0
            return 0.5 + sign * 0.01 * a[1]

        samples = self.make_samples(sub, accuracy)
        table = measured_similarity(*samples, sub, MeasuredSimilarity(min_pairs=4, floor=0.01))
        assert table[0][0, 1] == pytest.approx(0.01)

    def test_sparse_statistics_fall_back(self):
        sub = Subspace(SearchSpaceSpec(2, 6), (0, 1), {})
        samples = self.make_samples(sub, lambda a: 0.5 + 0.01 * a[1])
        table = measured_similarity(*samples, sub, MeasuredSimilarity(min_pairs=30))
        assert table[0][0, 1] == pytest.approx(ASSIGNED)

    def test_repeated_row_keeps_its_last_accuracy(self):
        sub = Subspace(SearchSpaceSpec(2, 6), (0, 1), {})
        digits, accs = self.make_samples(sub, lambda a: 0.5 + 0.01 * a[1])
        mode = MeasuredSimilarity(min_pairs=4)
        repeated = measured_similarity(np.vstack([digits, digits[:1]]), np.append(accs, 0.9), sub, mode)
        overwritten = measured_similarity(digits, np.append(0.9, accs[1:]), sub, mode)
        original = measured_similarity(digits, accs, sub, mode)
        assert all(np.array_equal(a, b) for a, b in zip(repeated, overwritten))
        assert not all(np.array_equal(a, b) for a, b in zip(repeated, original))

    def test_rows_and_accuracies_must_pair_up(self):
        sub = two_free_cells()
        with pytest.raises(ValueError, match="3 digit rows but 2 accuracies"):
            measured_similarity(sub.digits([0, 1, 2]), np.array([0.5, 0.6]), sub)

    def test_empty_samples_error(self):
        with pytest.raises(ValueError):
            measured_similarity(np.empty((0, 2), dtype=np.int64), np.empty(0), two_free_cells())

    def test_weights_applied_to_edges(self):
        sub = Subspace(SearchSpaceSpec(2, 6), (0, 1), {})
        samples = self.make_samples(sub, lambda a: 0.5 + 0.01 * a[1])
        mode = MeasuredSimilarity(min_pairs=4)
        graph = build_graph(sub, mode, samples=samples)
        u = node_index(sub, [0, 2])
        v = node_index(sub, [1, 2])
        assert graph.adjacency[u, v] == pytest.approx(1.0)


class TestNormalizeAdjacency:
    def test_isolated_node(self):
        graph = ArchGraph(
            subspace=two_free_cells(),
            num_nodes=1,
            adjacency=sp.csr_matrix((1, 1)),
            features=np.zeros((1, 3), dtype=np.float32),
            choice_matrix=np.zeros((1, 3), dtype=np.int64),
        )
        assert normalize_adjacency(graph).toarray() == pytest.approx(np.array([[1.0]]))

    def test_two_nodes_single_unit_edge(self):
        adjacency = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        graph = ArchGraph(two_free_cells(), 2, adjacency,
                          np.zeros((2, 3), np.float32), np.zeros((2, 3), np.int64))
        expected = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert normalize_adjacency(graph).toarray() == pytest.approx(expected)

    def test_structure_and_spectrum(self):
        sub = Subspace(SearchSpaceSpec(3, 6), (0, 1, 2), {})
        graph = build_graph(sub)
        a_hat = normalize_adjacency(graph)
        assert abs(a_hat - a_hat.T).max() == 0.0
        assert (a_hat.data >= 0).all()
        assert (a_hat.diagonal() > 0).all()
        top = power_iteration_largest_eigenvalue(a_hat)
        assert top <= 1.0 + 1e-6

    def test_cached(self):
        graph = build_graph(two_free_cells())
        assert normalize_adjacency(graph) is normalize_adjacency(graph)


class TestDumpGraph:
    def test_files_and_canonical_order(self, tmp_path):
        graph = build_graph(two_free_cells())
        edges_path, features_path = dump_graph(graph, tmp_path / "g")
        lines = edges_path.read_text().splitlines()
        assert len(lines) == 180
        rows = [tuple(line.split()) for line in lines]
        parsed = [(int(u), int(v)) for u, v, _ in rows]
        assert parsed == sorted(parsed)
        assert all(u < v for u, v in parsed)
        assert all(float(w) == pytest.approx(ASSIGNED) for _, _, w in rows)
        features = np.load(features_path)
        assert features.shape == graph.features.shape
