import math
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcnas import arch_graph
from gcnas.arch_graph import (
    MAX_GRAPH_NODES,
    ArchGraph,
    AssignedSimilarity,
    build_graph,
    node_architecture,
    node_index,
    normalize_adjacency,
)
from gcnas.evaluator import GroundTruthParams, SyntheticSupernet
from gcnas.gcn import GcnConfig, forward
from gcnas.search_engine import SearchConfig, run_round
from gcnas.search_space import (
    SearchSpaceSpec,
    Subspace,
    SuperCell,
    full_subspace,
    gray_code_table,
    materialize,
)
from conftest import (
    ALL_FIXED,
    a_hat_reference,
    block_radices_reference,
    cell_hamming,
    every_row,
    gray_encode,
    hamming_adjacency_reference,
    inv_sqrt_reference,
    kronecker_sum_reference,
    normalize_reference,
    power_iteration_largest_eigenvalue,
    random_graph,
    slot_matrices,
    subspaces,
)

ASSIGNED = math.exp(-0.5)


def two_free_cells() -> Subspace:
    return Subspace(SearchSpaceSpec(3, 6), (0, 1), {2: 4})


#: a 1-candidate super-cell is a slot of radix 1, which adds no edge
ONE_CANDIDATE = Subspace(SearchSpaceSpec(4, 3), (2, 3), {}, (SuperCell((0, 1), ((1, 2),)),))


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

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan")])
    def test_non_positive_assigned_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="assigned weight must be positive"):
            AssignedSimilarity(weight)

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

    def test_node_architecture_holds_plain_ints_of_its_row(self):
        sc = SuperCell((0, 1), ((2, 5), (3, 3)))
        graph = build_graph(Subspace(SearchSpaceSpec(4, 6), (3, 2), {}, (sc,)))
        assert graph.choice_matrix.dtype == np.uint8
        for index in (0, 17, graph.num_nodes - 1):
            choices = node_architecture(graph, index).choices
            assert choices == tuple(graph.choice_matrix[index].tolist())
            assert all(type(c) is int for c in choices)

    @pytest.mark.parametrize(
        "sub",
        [
            Subspace(SearchSpaceSpec(8, 6), tuple(range(6)), {6: 1, 7: 4}),
            Subspace(SearchSpaceSpec(4, 6), (3,), {2: 1}, (SuperCell((0, 1), ((2, 5), (3, 3))),)),
        ],
        ids=["6^6", "super-cell"],
    )
    def test_node_tables_hold_one_byte_per_entry(self, sub):
        graph = build_graph(sub)
        spec, n = sub.spec, graph.num_nodes
        choices = sub.choices(sub.digits(np.arange(n)))
        gray = gray_code_table(spec.choices_per_layer, spec.bits_per_cell)
        # the choices are the graph's one node table; the features derive from it
        tables = [f.name for f in fields(graph) if isinstance(getattr(graph, f.name), np.ndarray)]
        assert tables == ["choice_matrix"]
        assert graph.choice_matrix.dtype == np.min_scalar_type(spec.choices_per_layer - 1)
        assert np.array_equal(graph.choice_matrix, choices)
        assert graph.choice_matrix.nbytes == n * spec.num_layers
        features = graph.features
        assert features.dtype == np.uint8
        assert features.tobytes() == gray[choices].reshape(n, spec.feature_dim).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(subspaces())
    @example(ALL_FIXED)
    @example(ONE_CANDIDATE)
    def test_choices_are_derived_one_slot_at_a_time(self, sub):
        ids = np.arange(sub.node_count)
        assert np.array_equal(build_graph(sub).choice_matrix, sub.choices(sub.digits(ids)))

    def test_choices_cost_their_own_table(self):
        # 6^6 nodes: past its uint8 table, building the graph allocates no
        # per-node array of the digits or of int64 choices
        sub = Subspace(SearchSpaceSpec(8, 6), tuple(range(6)), {6: 1, 7: 4})
        tracemalloc.start()
        try:
            graph = build_graph(sub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = graph.choice_matrix.nbytes
        assert table == 6**6 * 8
        assert peak <= 1.1 * table


def assert_same_csr(got, want):
    assert got.has_canonical_format
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestKroneckerSumMatchesEdgeList:
    """build_graph and normalize_adjacency give the same bits as the edge-list
    construction and the broadcast-multiply normalization, at any block size:
    a cap of a few rows puts most slots outside the block, where each
    neighbour is read at a constant offset from its node."""

    def check(self, graph, weight_of, cap=arch_graph.BLOCK_ROWS):
        want = hamming_adjacency_reference(graph.subspace, weight_of)
        oracle = normalize_reference(want)
        with mock.patch.object(arch_graph, "BLOCK_ROWS", cap):
            assert_same_csr(graph.adjacency, want)
            assert_same_csr(every_row(normalize_adjacency(graph)), oracle)
            # a float32 operator is the float64 one cast, bit for bit
            float32 = every_row(normalize_adjacency(graph, np.float32))
            assert_same_csr(float32, oracle.astype(np.float32))

    @settings(max_examples=60, deadline=None)
    @given(subspaces(), st.floats(1e-3, 10.0), st.integers(1, 40))
    @example(ALL_FIXED, ASSIGNED, 1)
    def test_assigned(self, sub, weight, cap):
        graph = build_graph(sub, AssignedSimilarity(weight))
        self.check(graph, lambda j, c_a, c_b: weight, cap)

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


class TestFixedDegreeTable:
    """The graph's generated (nodes, degree + 1) rows of ``A + I`` give the
    bits of folding the per-slot matrices ``w (1 - I)`` with ``sp.kronsum``."""

    @settings(max_examples=80, deadline=None)
    @given(subspaces(), st.integers(0, 2**32 - 1))
    @example(ALL_FIXED, 0)
    @example(ONE_CANDIDATE, 0)
    @example(ONE_CANDIDATE, 1)
    @example(Subspace(SearchSpaceSpec(2, 3), (), {}, (SuperCell((0, 1), ((1, 2),)),)), 0)
    def test_same_bits_as_kronsum(self, sub, seed):
        rng = np.random.default_rng(seed)
        weight = rng.uniform(1e-3, 10.0)
        weights = [weight * (1 - np.eye(slot.radix)) for slot in sub.slots]
        graph = build_graph(sub, AssignedSimilarity(weight))
        want = kronecker_sum_reference(weights)
        assert graph.adjacency.shape == want.shape == (sub.node_count,) * 2
        degree = sum(slot.radix - 1 for slot in sub.slots)
        assert graph.adjacency.nnz == want.nnz == sub.node_count * degree
        for name in ("indptr", "indices", "data"):
            got, expected = getattr(graph.adjacency, name), getattr(want, name)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
        oracle = normalize_reference(want)
        for dtype in (np.float64, np.float32):
            normalized = every_row(normalize_adjacency(graph, dtype))
            expected_csr = oracle.astype(dtype)
            for name in ("indptr", "indices", "data"):
                got, expected = getattr(normalized, name), getattr(expected_csr, name)
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name


class TestNormalizeAdjacency:
    def test_isolated_node(self):
        graph = ArchGraph(
            subspace=two_free_cells(),
            num_nodes=1,
            radices=(),
            weight=ASSIGNED,
            choice_matrix=np.zeros((1, 3), dtype=np.uint8),
        )
        assert every_row(normalize_adjacency(graph)).toarray() == pytest.approx(np.array([[1.0]]))

    def test_two_nodes_single_unit_edge(self):
        graph = ArchGraph(two_free_cells(), 2, (2,), 1.0, np.zeros((2, 3), np.uint8))
        expected = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert every_row(normalize_adjacency(graph)).toarray() == pytest.approx(expected)

    def test_structure_and_spectrum(self):
        sub = Subspace(SearchSpaceSpec(3, 6), (0, 1, 2), {})
        graph = build_graph(sub)
        a_hat = every_row(normalize_adjacency(graph))
        assert abs(a_hat - a_hat.T).max() == 0.0
        assert (a_hat.data >= 0).all()
        assert (a_hat.diagonal() > 0).all()
        top = power_iteration_largest_eigenvalue(a_hat)
        assert top <= 1.0 + 1e-6

    def test_cached(self):
        graph = build_graph(two_free_cells())
        assert normalize_adjacency(graph) is normalize_adjacency(graph)

    def test_held_in_the_dtype_last_asked_for(self):
        graph = build_graph(two_free_cells())
        a64 = normalize_adjacency(graph)
        a32 = normalize_adjacency(graph, np.float32)
        assert a32.dtype == np.float32 and graph.normalized is a32
        assert normalize_adjacency(graph, np.dtype("float32")) is a32
        # back in float64 from the float64 D^(-1/2), not by widening float32 data
        again = normalize_adjacency(graph)
        assert again.dtype == np.float64
        assert every_row(again).data.tobytes() == every_row(a64).data.tobytes()


class TestSlotWeights:
    """The graph keeps its slot radices and edge weight; ``adjacency`` is
    rebuilt from them only on request."""

    def test_a_round_never_reads_the_adjacency(self, monkeypatch):
        def refuse(graph):
            raise AssertionError("ArchGraph.adjacency read")

        monkeypatch.setattr(ArchGraph, "adjacency", property(refuse))
        spec = SearchSpaceSpec(3, 4)
        evaluator = SyntheticSupernet(GroundTruthParams.random(spec, 1), sigma=0.005,
                                      checkpoint_seed=2)
        config = SearchConfig(m_samples=40, train_split=32, top_pool=8, k_preserve=3,
                              gcn=GcnConfig(hidden_dims=(6, 6), epochs=5), seed=3)
        result = run_round(full_subspace(spec), evaluator, config)
        assert forward(result.graph, result.model).tobytes() == result.predictions.tobytes()
        with pytest.raises(AssertionError, match="adjacency read"):
            result.graph.adjacency

    def test_only_the_degree_vector_is_held(self):
        # 6^6 nodes: 8 layers, 6 free; past its choices the normalized graph
        # holds D^(-1/2) alone, and while it reads D^(-1/2) by digit sum, the
        # one-byte digit sums and the 8,192 of them at a time that NumPy's
        # indexing casts to intp
        sub = Subspace(SearchSpaceSpec(8, 6), tuple(range(6)), {6: 1, 7: 4})
        tracemalloc.start()
        try:
            graph = build_graph(sub)
            normalize_adjacency(graph)
            held, peak = tracemalloc.get_traced_memory()
            graph.adjacency.nnz
            held_after_read = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        node_arrays = graph.choice_matrix.nbytes
        degrees = graph.normalized.inv_sqrt.nbytes
        assert graph.num_nodes == 6**6 and degrees == graph.num_nodes * 8
        assert held - node_arrays <= 1.05 * degrees
        digit_sums = graph.num_nodes * np.dtype(np.uint8).itemsize
        index_buffer = 8192 * np.dtype(np.intp).itemsize
        assert peak - node_arrays <= 1.05 * degrees + digit_sums + index_buffer
        assert held_after_read - node_arrays <= 1.05 * degrees  # the raw matrix is not kept


#: id sets that a block-by-block generator could get wrong
ID_SETS = ("empty", "one", "block", "every", "straddle", "random")


def id_set(kind: str, n: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted distinct node ids of one kind, for blocks of ``rows`` nodes."""
    if kind == "empty":
        return np.arange(0)
    if kind == "one":
        return rng.integers(0, n, 1)
    if kind == "block":
        start = rows * rng.integers(0, n // rows)
        return np.arange(start, start + rows)
    if kind == "every":
        return np.arange(n)
    if kind == "straddle" and n > rows:  # a few ids each side of a block boundary
        edge = rows * rng.integers(1, n // rows)
        return np.arange(max(0, edge - rng.integers(1, 4)), min(n, edge + rng.integers(1, 4)))
    return np.flatnonzero(rng.random(n) < rng.uniform(0.05, 0.6))


class TestGeneratedRows:
    """The operator generates, block by block, the rows and products of the
    CSR matrix that the whole fold scales, bit for bit, at any block size."""

    @settings(max_examples=120, deadline=None)
    @given(subspaces(), st.sampled_from(["float32", "float64"]),
           st.integers(1, 40), st.sampled_from(ID_SETS), st.integers(0, 2**32 - 1))
    @example(ALL_FIXED, "float64", 1, "every", 0)
    @example(ONE_CANDIDATE, "float32", 2, "straddle", 0)
    def test_rows_are_the_reference_rows(self, sub, dtype, cap, kind, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(sub, rng)
        want = a_hat_reference(graph, np.dtype(dtype))
        rows = math.prod(block_radices_reference(graph.radices, cap))
        ids = id_set(kind, sub.node_count, rows, rng)
        with mock.patch.object(arch_graph, "BLOCK_ROWS", cap):
            got = normalize_adjacency(graph, dtype).rows(ids)
        expected = want[ids]
        assert got.shape == (len(ids), sub.node_count) and got.has_canonical_format
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @settings(max_examples=80, deadline=None)
    @given(subspaces(), st.integers(0, 2**32 - 1))
    @example(ALL_FIXED, 0)
    @example(ONE_CANDIDATE, 1)
    # weight 0.326, at which rounding splits the 216 degrees into two values
    @example(Subspace(SearchSpaceSpec(3, 6), (0, 1, 2), {}), 12)
    def test_degrees_are_scipys_row_sums(self, sub, seed):
        graph = random_graph(sub, np.random.default_rng(seed))
        inv_sqrt = normalize_adjacency(graph).inv_sqrt
        want = inv_sqrt_reference(kronecker_sum_reference(slot_matrices(graph))
                                  + sp.eye(sub.node_count, format="csr"))
        assert inv_sqrt.dtype == np.float64 and inv_sqrt.tobytes() == want.tobytes()

