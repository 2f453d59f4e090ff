import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcnas import arch_graph
from gcnas.arch_graph import (
    ArchGraph,
    AssignedSimilarity,
    build_graph,
    feature_basis,
    node_features,
    normalize_adjacency,
)
from gcnas.gcn import (
    GcnConfig,
    GcnModel,
    _model_inputs,
    _propagate,
    _receptive_field,
    _Workspace,
    forward,
    init_model,
    learning_rate_at,
    train,
)
from gcnas.cli import write_loss_curve
from gcnas.search_space import (
    SearchSpaceSpec,
    Subspace,
    SuperCell,
    default_space,
    gray_code_table,
)
from conftest import (
    ALL_FIXED,
    a_hat_reference,
    block_table_bytes,
    every_row,
    forward_reference,
    gradients_reference,
    loss_and_gradients,
    model_inputs_reference,
    random_graph,
    subspaces,
    train_reference,
)


def toy_graph(num_free: int = 2, choices: int = 4, seed: int = 0) -> ArchGraph:
    spec = SearchSpaceSpec(num_free + 1, choices)
    sub = Subspace(spec, tuple(range(num_free)), {num_free: 0})
    graph = build_graph(sub)
    normalize_adjacency(graph)
    return graph


def edgeless_graph(num_nodes: int, feat_dim: int, seed: int = 0) -> ArchGraph:
    """A graph with no edges over real-valued features: its A_hat is I, so
    the features are its A_hat X, cached on the graph as the model input
    with the identity as their coefficients."""
    rng = np.random.default_rng(seed)
    spec = SearchSpaceSpec(feat_dim, 2)  # one bit per cell
    sub = Subspace(spec, (0,), {p: 0 for p in range(1, feat_dim)})
    graph = ArchGraph(
        subspace=sub,
        num_nodes=num_nodes,
        radices=(num_nodes,),
        weight=0.0,
        choice_matrix=np.zeros((num_nodes, feat_dim), dtype=np.uint8),
    )
    normalize_adjacency(graph)
    graph.propagated = rng.random((num_nodes, feat_dim)), np.eye(feat_dim)
    return graph


class TestInitModel:
    def test_default_shapes(self):
        model = init_model(57, GcnConfig(), 0)
        assert [w.shape for w in model.layer_weights] == [(57, 512), (512, 512)]
        assert model.head.shape == (512,)
        assert model.bias.shape == (1,) and model.bias[0] == 0.0

    def test_single_hidden_layer_shapes(self):
        model = init_model(57, GcnConfig(hidden_dims=(8,)), 0)
        assert [w.shape for w in model.layer_weights] == [(57, 8)]
        assert model.head.shape == (8,)

    def test_seed_determinism(self):
        a = init_model(10, GcnConfig(hidden_dims=(4, 4)), 3)
        b = init_model(10, GcnConfig(hidden_dims=(4, 4)), 3)
        for x, y in zip(a.params(), b.params()):
            assert (x == y).all()
        c = init_model(10, GcnConfig(hidden_dims=(4, 4)), 4)
        assert any((x != y).any() for x, y in zip(a.params(), c.params()))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GcnConfig(hidden_dims=())
        with pytest.raises(ValueError):
            GcnConfig(lr=0.0)
        GcnConfig(lr_decay=1.0, weight_decay=0.0)  # the closed ends are allowed

    @pytest.mark.parametrize(
        "field, value, message",
        [("lr", float("nan"), "lr"),
         ("lr_decay", 0.0, "lr_decay"), ("lr_decay", -1.0, "lr_decay"),
         ("lr_decay", 1.5, "lr_decay"), ("lr_decay", float("nan"), "lr_decay"),
         ("weight_decay", -1e-4, "weight_decay"), ("weight_decay", float("nan"), "weight_decay")],
    )
    def test_out_of_range_rates_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            GcnConfig(**{field: value})
        with pytest.raises(ValueError):
            GcnConfig(epochs=0)
        with pytest.raises(TypeError):
            GcnConfig(dtype="floatX")
        for dtype in ("int32", "bool", "float16", "complex128"):
            with pytest.raises(ValueError, match="float32 or float64"):
                GcnConfig(dtype=dtype)


class TestSchedule:
    def test_decay_points(self):
        config = GcnConfig(epochs=600, lr=0.01, lr_decay=0.1)
        assert learning_rate_at(0, config) == pytest.approx(0.01)
        assert learning_rate_at(299, config) == pytest.approx(0.01)
        assert learning_rate_at(300, config) == pytest.approx(0.001)
        assert learning_rate_at(449, config) == pytest.approx(0.001)
        assert learning_rate_at(450, config) == pytest.approx(0.0001)
        assert learning_rate_at(599, config) == pytest.approx(0.0001)


class TestForward:
    def test_zero_weights_output_bias(self):
        graph = toy_graph()
        model = init_model(graph.features.shape[1], GcnConfig(hidden_dims=(4, 4)), 0)
        for w in model.layer_weights:
            w[:] = 0.0
        model.head[:] = 0.0
        assert np.allclose(forward(graph, model), 0.0)
        model.bias[0] = 0.37
        assert np.allclose(forward(graph, model), 0.37)

    def test_edgeless_graph_equals_plain_mlp(self):
        graph = edgeless_graph(12, 6)
        assert np.array_equal(every_row(graph.normalized).toarray(), np.eye(12))
        model = init_model(6, GcnConfig(hidden_dims=(5, 3)), 2)
        out = forward(graph, model)
        # independent per-row MLP oracle
        x = graph.propagated[0]
        h = np.maximum(x @ model.layer_weights[0], 0)
        h = np.maximum(h @ model.layer_weights[1], 0)
        expected = h @ model.head + model.bias[0]
        assert out == pytest.approx(expected, abs=1e-12)

    def test_permutation_equivariance(self):
        sub = Subspace(SearchSpaceSpec(3, 5), (0, 1), {2: 0})
        rng = np.random.default_rng(5)
        graph = build_graph(sub, AssignedSimilarity(rng.uniform(0.1, 1.0)))
        model = init_model(graph.features.shape[1], GcnConfig(hidden_dims=(7, 7)), 1)
        out = forward(graph, model)
        # relabel nodes: swap the two slots and permute each one's choices.
        # That maps the edges of the graph onto themselves, so the relabelled
        # graph keeps the radices and the weight, and only its choices move;
        # node (a, b) of it is node (order[1][b], order[0][a]) of the graph
        order = [rng.permutation(5) for _ in range(2)]
        new_a, new_b = np.divmod(np.arange(25), 5)
        perm = order[1][new_b] * 5 + order[0][new_a]
        permuted = ArchGraph(
            subspace=graph.subspace,
            num_nodes=graph.num_nodes,
            radices=graph.radices,
            weight=graph.weight,
            choice_matrix=graph.choice_matrix[perm],
        )
        assert forward(permuted, model) == pytest.approx(out[perm], abs=1e-9)
        # its rows are, bit for bit, those of its own reference matrix, and
        # that is P A_hat P^T up to the order of the degree sums
        got = every_row(normalize_adjacency(permuted))
        want = a_hat_reference(permuted)
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        relabelled = a_hat_reference(graph).toarray()[np.ix_(perm, perm)]
        assert np.allclose(want.toarray(), relabelled, rtol=1e-14, atol=0)

    def test_shape_mismatch_errors(self):
        graph = toy_graph()
        width = graph.features.shape[1]
        model = init_model(width + 1, GcnConfig(hidden_dims=(4,)), 0)
        message = f"graph features have dimension {width}, model expects {width + 1}"
        with pytest.raises(ValueError, match=message):
            forward(graph, model)


class TestForwardBuffers:
    """The full-graph pass holds at most two (nodes, width) arrays: a
    layer's spent input takes its output when the widths match, and a
    buffer of the wrong width is dropped before its successor exists."""

    # every branch of the reuse rule: the first propagation buffer, one kept
    # or replaced at the next layer, and the spent input kept or replaced
    @pytest.mark.parametrize("hidden", [(8,), (64, 16), (8, 4, 6), (6, 6, 6), (4, 4, 7),
                                        (8, 4, 4)])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_same_bits_as_fresh_arrays(self, hidden, dtype):
        sc = SuperCell((0, 1, 2), ((0, 1, 2), (3, 3, 3), (5, 0, 1), (2, 2, 4)))
        sub = Subspace(SearchSpaceSpec(6, 6), (3, 4), {5: 2}, (sc,))  # 144 nodes
        graph = build_graph(sub)
        model = init_model(sub.spec.feature_dim, GcnConfig(hidden_dims=hidden, dtype=dtype), 5)
        model.bias[0] = 0.25
        out = forward(graph, model)
        want, _ = forward_reference(*model_inputs_reference(graph, np.dtype(dtype)), model)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("hidden, dtype", [((32, 32), "float32"), ((8, 4, 6), "float32"),
                                               ((64, 16), "float64")])
    def test_forward_allocates_two_of_the_widest_layer(self, hidden, dtype):
        # 6^6 nodes with D^(-1/2) and A_hat Z cached: the pass may allocate
        # two arrays of the widest layer, four (nodes,) vectors and one block
        # of A_hat's rows
        sub = Subspace(SearchSpaceSpec(8, 6), tuple(range(6)), {6: 1, 7: 4})
        graph = build_graph(sub)
        _model_inputs(graph, np.dtype(dtype))
        model = init_model(sub.spec.feature_dim, GcnConfig(hidden_dims=hidden, dtype=dtype), 0)
        tracemalloc.start()
        try:
            forward(graph, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, itemsize = graph.num_nodes, np.dtype(dtype).itemsize
        table = block_table_bytes(graph, dtype)
        assert peak <= 2 * n * max(hidden) * itemsize + 4 * n * itemsize + table


class TestGradients:
    def perturbed_loss(self, graph, model, idx, y, weight_decay):
        out = forward(graph, model)
        l1 = float(np.abs(out[idx] - y).mean())
        reg = 0.5 * weight_decay * sum(
            float((w**2).sum()) for w in [*model.layer_weights, model.head]
        )
        return l1 + reg

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_finite_difference_check(self, weight_decay):
        graph = toy_graph(num_free=2, choices=4)  # 16 nodes
        config = GcnConfig(hidden_dims=(4,), dtype="float64")
        model = init_model(graph.features.shape[1], config, 3)
        model.bias[0] = 0.3
        # condition the test point away from relu and L1 kinks so central
        # differences see a locally smooth loss
        a_hat = graph.normalized
        pre_activation = a_hat @ graph.features.astype(np.float64) @ model.layer_weights[0]
        assert np.abs(pre_activation).min() > 1e-3
        idx = np.array([0, 3, 5, 9, 12, 15])
        out = forward(graph, model)
        y = out[idx] - 0.05 * np.array([1, -1, 1, 1, -1, 1], dtype=np.float64)
        loss, grads = loss_and_gradients(graph, model, idx, y, weight_decay)

        step = 1e-5
        for p_index, param in enumerate(model.params()):
            flat = param.reshape(-1)
            numeric = np.empty_like(flat)
            for k in range(flat.size):
                original = flat[k]
                flat[k] = original + step
                up = self.perturbed_loss(graph, model, idx, y, weight_decay)
                flat[k] = original - step
                down = self.perturbed_loss(graph, model, idx, y, weight_decay)
                flat[k] = original
                numeric[k] = (up - down) / (2 * step)
            analytic = grads[p_index].reshape(-1)
            scale = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-8)
            rel = np.abs(analytic - numeric) / scale
            assert rel.max() < 1e-4


class TestTraining:
    def teacher_labels(self, graph, seed=3):
        teacher = init_model(graph.features.shape[1], GcnConfig(hidden_dims=(4, 4)), seed)
        teacher.bias[0] = 0.5
        return np.arange(graph.num_nodes), forward(graph, teacher)

    def test_fits_realizable_labels(self):
        graph = toy_graph(num_free=1, choices=5)  # 5 nodes
        labels = self.teacher_labels(graph)
        config = GcnConfig(hidden_dims=(4, 4), epochs=400, dtype="float64")
        model, losses = train(graph, labels, config, 0)
        assert losses[-1] < 1e-2

    def test_loss_decreases(self):
        graph = toy_graph(num_free=2, choices=4)
        rng = np.random.default_rng(0)
        labels = np.arange(16), 0.5 + 0.1 * rng.standard_normal(16)
        model, losses = train(graph, labels, GcnConfig(hidden_dims=(4,), epochs=50), 1)
        assert losses[-1] < losses[0]
        assert len(losses) == 50

    def test_bitwise_determinism(self):
        graph = toy_graph(num_free=2, choices=4)
        rng = np.random.default_rng(2)
        labels = np.arange(16), rng.random(16)
        config = GcnConfig(hidden_dims=(6, 6), epochs=30)
        m1, l1 = train(graph, labels, config, 5)
        m2, l2 = train(graph, labels, config, 5)
        assert l1 == l2
        for a, b in zip(m1.params(), m2.params()):
            assert a.tobytes() == b.tobytes()

    def test_empty_labels_error(self):
        with pytest.raises(ValueError):
            train(toy_graph(), ([], []), GcnConfig(hidden_dims=(4,)), 0)

    def test_bad_indices_error(self):
        graph = toy_graph(num_free=1, choices=4)
        with pytest.raises(ValueError):
            train(graph, ([99], [0.5]), GcnConfig(hidden_dims=(4,)), 0)
        with pytest.raises(ValueError, match="must lie in"):
            train(graph, ([0, -1], [0.5, 0.5]), GcnConfig(hidden_dims=(4,)), 0)

    @pytest.mark.parametrize("ids, targets", [([0, 1, 2], [0.5, 0.6]), ([0], [0.5, 0.6]),
                                              ([[0, 1]], [[0.5, 0.6]])])
    def test_ids_and_targets_must_pair_up(self, ids, targets):
        with pytest.raises(ValueError, match="one target per labeled node"):
            train(toy_graph(), (ids, targets), GcnConfig(hidden_dims=(4,)), 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_names_epoch(self):
        graph = toy_graph(num_free=1, choices=4)
        with pytest.raises(RuntimeError, match="epoch 0"):
            train(graph, ([0], [float("inf")]), GcnConfig(hidden_dims=(4,), epochs=3), 0)


class TestModelInputs:
    def test_cached_in_the_model_dtype_with_the_same_bits(self):
        graph = toy_graph(num_free=2, choices=4)
        labels = np.arange(8), 0.5 + 0.01 * np.arange(8)
        config = GcnConfig(hidden_dims=(6, 6), epochs=3, dtype="float32")
        model, _ = train(graph, labels, config, 4)
        f32 = np.dtype(np.float32)
        inputs = _model_inputs(graph, f32)
        out = forward(graph, model)
        loss_and_gradients(graph, model, [0, 1], [0.5, 0.6])
        again = _model_inputs(graph, f32)
        assert all(a is b for a, b in zip(again, inputs))
        a_hat = inputs[0]
        assert graph.normalized is a_hat and a_hat.dtype == f32
        # the same bits as casting a fresh float64 A_hat and propagating
        cast = a_hat_reference(toy_graph(num_free=2, choices=4)).astype(np.float32)
        basis, coefficients = feature_basis(graph, f32)
        want, _ = forward_reference(cast, cast @ basis, coefficients, model)
        assert out.tobytes() == want.tobytes()
        assert out.tobytes() == forward(graph, model).tobytes()

        # read at float64 afterwards, A_hat is re-typed: the bits of a fresh
        # graph, and nothing of float32 left on the graph
        model64 = init_model(graph.features.shape[1], GcnConfig(hidden_dims=(6, 6)), 4)
        out64 = forward(graph, model64)
        assert out64.tobytes() == forward(toy_graph(num_free=2, choices=4), model64).tobytes()
        assert graph.normalized.dtype == np.float64
        assert all(a.dtype == np.float64 for a in graph.propagated)

    def test_a_graph_holds_its_model_inputs_alone(self):
        # the 6^6 subspace of test_only_the_degree_vector_is_held: past its
        # choices, the graph holds D^(-1/2), the float32 A_hat @ Z, Z at 19
        # columns, and M alone, and no array of (nodes, degree) entries
        sub = Subspace(SearchSpaceSpec(8, 6), tuple(range(6)), {6: 1, 7: 4})
        tracemalloc.start()
        try:
            graph = build_graph(sub)
            a_hat, propagated, coefficients = _model_inputs(graph, np.dtype(np.float32))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        node_arrays = graph.choice_matrix.nbytes
        inputs = a_hat.inv_sqrt.nbytes + propagated.nbytes + coefficients.nbytes
        assert graph.normalized.dtype == np.float32 and propagated.shape == (6**6, 19)
        assert held - node_arrays <= 1.05 * inputs
        assert 0.05 * inputs < a_hat.nnz  # the slack holds no byte per entry of A_hat


def basis_width_reference(sub: Subspace) -> int:
    """The basis width by its rule, from each slot's candidates' Gray codes:
    per slot the fewer of its varying bit columns and its candidates, plus
    one all-ones column if any feature column is constant."""
    gray = gray_code_table(sub.spec.choices_per_layer, sub.spec.bits_per_cell)
    width, constant = 0, bool(sub.fixed)
    for slot in sub.slots:
        codes = np.array([gray[list(candidate)].ravel() for candidate in slot.candidates])
        varying = int((codes != codes[0]).any(axis=0).sum())
        width += min(varying, slot.radix)
        constant |= varying < codes.shape[1]
    return width + constant


def magnitude_model(model: GcnModel) -> GcnModel:
    """The model with each parameter replaced by its float64 magnitude."""
    *weights, head, bias = [np.abs(p).astype(np.float64) for p in model.params()]
    return GcnModel(weights, head, bias)


def scaled_error(got: np.ndarray, want: np.ndarray, scale: np.ndarray) -> float:
    """The largest difference of an entry over its ``scale``, the magnitudes
    it sums; inf if an entry of no magnitude differs at all."""
    diff = np.abs(got.astype(np.float64) - want)
    if diff[scale == 0].any():
        return np.inf
    return float(np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0).max(initial=0))


class TestFeatureBasis:
    """Layer 0 reads ``(A_hat Z)(M W0)``, where ``Z M`` is the features X."""

    @settings(max_examples=60, deadline=None)
    @given(subspaces(), st.sampled_from(["float32", "float64"]), st.integers(0, 2**32 - 1))
    def test_basis_times_coefficients_is_the_features(self, sub, dtype, seed):
        graph = random_graph(sub, np.random.default_rng(seed))
        basis, coefficients = feature_basis(graph, np.dtype(dtype))
        width = basis_width_reference(sub)
        assert basis.shape == (sub.node_count, width)
        assert coefficients.shape == (width, sub.spec.feature_dim)
        for a in (basis, coefficients):
            assert a.dtype == dtype and np.isin(a, (0, 1)).all()
        assert (basis @ coefficients).tobytes() == node_features(graph, np.dtype(dtype)).tobytes()

    @pytest.mark.parametrize("sub, width", [
        # round-wide: the default space's first 5 cells free, 14 fixed
        (Subspace(default_space(), tuple(range(5)), {p: 1 for p in range(5, 19)}), 16),
        # a 4-candidate super-cell of 8 varying bits and 1 constant one takes its one-hot
        (Subspace(SearchSpaceSpec(5, 6), (3, 4), {}, (SuperCell((0, 1, 2), (
            (0, 1, 2), (3, 3, 3), (5, 0, 1), (2, 2, 4))),)), 3 + 3 + 4 + 1),
        # two free cells and a 4-candidate super-cell varying in 2 of its 3 bits
        (Subspace(SearchSpaceSpec(3, 6), (1, 2), {}, (SuperCell((0,), tuple(
            (c,) for c in range(4))),)), 3 + 3 + 2 + 1),
    ], ids=["round-wide", "one-hot", "varying-bits"])
    def test_widths(self, sub, width):
        basis, coefficients = feature_basis(build_graph(sub), np.dtype(np.float64))
        assert basis.shape[1] == len(coefficients) == width == basis_width_reference(sub)

    @settings(max_examples=60, deadline=None)
    @given(subspaces(), st.integers(1, 3), st.sampled_from(["float32", "float64"]),
           st.integers(0, 2**32 - 1))
    # now and then the reference's float32 (2, 5) @ (5,) head product raised
    # "invalid value encountered in matmul" here, on finite inputs and with
    # the right product; a fresh process does not repeat it
    @example(Subspace(SearchSpaceSpec(1, 4), (), {}, (SuperCell((0,), ((1,), (0,))),)),
             1, "float32", 0)
    # pre-activations up to 1.17 cancel to outputs under 8.5e-4 here
    @example(Subspace(SearchSpaceSpec(5, 3), (0, 3), {2: 1},
                      (SuperCell((1, 4), ((1, 0), (2, 0), (1, 1), (0, 0))),)),
             1, "float32", 39526)
    def test_forward_and_a_step_match_the_full_basis(self, sub, depth, dtype, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(sub, rng)
        config = GcnConfig(hidden_dims=tuple(rng.integers(1, 9, depth)), dtype=dtype)
        model = init_model(sub.spec.feature_dim, config, seed)
        a_hat, propagated, coefficients = model_inputs_reference(graph, np.dtype(dtype))
        # the plain form: A_hat X, with the identity as its coefficients
        full = a_hat @ node_features(graph, np.dtype(dtype))
        identity = np.eye(sub.spec.feature_dim, dtype=dtype)
        plain = (a_hat, full, identity)
        # each entry is held to the magnitudes it sums, |A_hat| |X| |W|
        # propagated layer by layer (Higham, Accuracy and Stability of
        # Numerical Algorithms, 2nd ed., 3.5), not to the output, whose terms
        # may cancel; A_hat and X are their own magnitudes
        magnitudes = [a.astype(np.float64) for a in plain]
        absolute = magnitude_model(model)
        tolerance = 1e-12 if dtype == "float64" else 1e-5
        want, _ = forward_reference(*plain, model)
        scale, _ = forward_reference(*magnitudes, absolute)
        assert scaled_error(forward(graph, model), want, scale) <= tolerance

        ids = rng.choice(sub.node_count, rng.integers(1, 13))
        y = (0.5 + 0.1 * rng.standard_normal(len(ids))).astype(dtype)
        _, grads = loss_and_gradients(graph, model, ids, y, 5e-4)
        # the step's own ReLU masks, so only the association of layer 0 differs
        out, activations = forward_reference(a_hat, propagated, coefficients, model)
        out_grad = np.zeros_like(out)
        np.add.at(out_grad, ids, np.sign(out[ids] - y) * np.dtype(dtype).type(1 / len(ids)))
        want = gradients_reference(*plain, model, activations, out_grad, 5e-4)
        scales = gradients_reference(
            *magnitudes, absolute, [a.astype(np.float64) for a in activations],
            np.abs(out_grad).astype(np.float64), 5e-4,
        )
        for got, expected, scale in zip(grads, want, scales):
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert scaled_error(got, expected, scale) <= tolerance


class TestPropagate:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), (1,), (7,)])
    def test_same_bits_as_the_sparse_product(self, dtype, shape):
        graph = toy_graph(num_free=3, choices=5)  # 125 nodes
        a_hat = every_row(_model_inputs(graph, np.dtype(dtype))[0])
        rng = np.random.default_rng(1)
        # the operator as CSR, and a row slice read transposed as CSC
        for a in (a_hat, a_hat[np.arange(3, 125, 4)].T):
            out = np.empty((a.shape[0], *shape), dtype)
            for _ in range(2):  # the second product lands in the first one's dirty buffer
                m = rng.standard_normal((a.shape[1], *shape)).astype(dtype)
                assert _propagate(a, m, out) is out
                assert np.array_equal(out, a @ m)

    @settings(max_examples=60, deadline=None)
    @given(subspaces(), st.sampled_from(["float32", "float64"]),
           st.integers(1, 40), st.sampled_from([(), (1,), (512,)]), st.integers(0, 2**32 - 1))
    @example(ALL_FIXED, "float64", 1, (512,), 0)
    def test_blocks_give_the_bits_of_the_whole_matrix(self, sub, dtype, cap, shape, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(sub, rng)
        m = rng.standard_normal((sub.node_count, *shape)).astype(dtype)
        out = np.full(m.shape, np.nan, dtype)  # the product overwrites every entry
        with mock.patch.object(arch_graph, "BLOCK_ROWS", cap):
            a_hat = normalize_adjacency(graph, dtype)
            assert a_hat.matmul(m, out) is out
            assert (a_hat @ m).tobytes() == out.tobytes()
        assert out.tobytes() == (a_hat_reference(graph, np.dtype(dtype)) @ m).tobytes()

    def test_blocks_need_a_row_per_node(self):
        a_hat = _model_inputs(toy_graph(), np.dtype(np.float64))[0]
        with pytest.raises(ValueError, match="cannot write 16 rows"):
            a_hat.matmul(np.ones((16, 3)), np.zeros((17, 3)))

    @pytest.mark.parametrize(
        "m_shape, out_shape, out_dtype",
        [((16, 3), (16, 3), np.float64), ((15, 3), (16, 3), np.float32),
         ((16, 3), (16, 2), np.float32), ((16,), (16, 1), np.float32)],
    )
    def test_mismatched_buffer_rejected(self, m_shape, out_shape, out_dtype):
        a_hat = every_row(_model_inputs(toy_graph(), np.dtype(np.float32))[0])
        with pytest.raises(ValueError, match="cannot write"):
            _propagate(a_hat, np.ones(m_shape, np.float32), np.zeros(out_shape, out_dtype))

    def test_non_contiguous_buffer_rejected(self):
        a_hat = every_row(_model_inputs(toy_graph(), np.dtype(np.float64))[0])
        out = np.zeros((3, 16)).T
        with pytest.raises(ValueError, match="cannot write"):
            _propagate(a_hat, np.ones((16, 3)), out)


def closed_neighbourhood(a_hat: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
    """Sorted ids of ``rows`` and every node one edge from them, read from
    the dense rows."""
    return np.flatnonzero((a_hat[rows].toarray() != 0).any(axis=0))


def row_slice_bytes(a_hat: sp.csr_matrix, rows: np.ndarray) -> int:
    """Bytes of ``A_hat[rows, :]`` as CSR: data and column index per entry,
    one row pointer per row and one more."""
    nnz = int(np.diff(a_hat.indptr)[rows].sum())
    index = a_hat.indices.itemsize
    return nnz * (a_hat.data.itemsize + index) + (len(rows) + 1) * index


class TestSameBitsAsFreshArrays:
    """The workspace pass against the reference that allocates every array.
    With a label on every node the receptive field is the whole graph, every
    operator is ``A_hat`` itself, and the bits agree."""

    # widening and three-layer stacks view the mask buffer below its full width
    @pytest.mark.parametrize("hidden, dtype", [((32, 32), "float32"), ((6, 5), "float64"),
                                               ((4, 1), "float32"), ((3,), "float64"),
                                               ((3, 7), "float64"), ((5, 8, 2), "float32")])
    def test_train_forward_and_gradients(self, hidden, dtype):
        graph = toy_graph(num_free=4, choices=4)  # 256 nodes
        rng = np.random.default_rng(6)
        ids = np.append(rng.permutation(graph.num_nodes), 7)  # node 7 labeled twice
        labels = ids, 0.5 + 0.1 * rng.standard_normal(len(ids))
        config = GcnConfig(hidden_dims=hidden, epochs=24, dtype=dtype)
        model, losses = train(graph, labels, config, 3)
        want_model, want_losses = train_reference(graph, labels, config, 3)
        assert losses == want_losses
        for got, want in zip(model.params(), want_model.params()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

        a_hat, propagated, coefficients = model_inputs_reference(graph, np.dtype(dtype))
        out, activations = forward_reference(a_hat, propagated, coefficients, model)
        assert forward(graph, model).tobytes() == out.tobytes()
        y = (out[ids] - 0.1 * rng.standard_normal(len(ids))).astype(dtype)
        loss, grads = loss_and_gradients(graph, model, ids, y, 5e-4)
        residual = out[ids] - y
        out_grad = np.zeros_like(out)
        np.add.at(out_grad, ids, np.sign(residual) * np.dtype(dtype).type(1 / len(ids)))
        want = gradients_reference(
            a_hat, propagated, coefficients, model, activations, out_grad, 5e-4
        )
        assert loss == float(np.abs(residual).mean())
        for got, expected in zip(grads, want):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_a_step_allocates_less_than_one_activation(self):
        graph = toy_graph(num_free=4, choices=5)  # 625 nodes
        config = GcnConfig(hidden_dims=(32, 32), dtype="float64")
        model = init_model(graph.features.shape[1], config, 0)
        a_hat, propagated, coefficients = _model_inputs(graph, np.dtype(np.float64))
        rows = np.arange(0, graph.num_nodes, 3)
        label_rows = np.arange(len(rows))
        y = np.full(len(rows), 0.5)
        workspace = _Workspace(a_hat, propagated, coefficients, model, rows)
        workspace.step(label_rows, y, 5e-4)
        tracemalloc.start()
        try:
            workspace.step(label_rows, y, 5e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < graph.num_nodes * 32 * 8

    @staticmethod
    def train_peak(graph, labels, config) -> int:
        _model_inputs(graph, np.dtype(config.dtype))  # cached on the graph, not train's
        tracemalloc.start()
        try:
            train(graph, labels, config, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_train_allocates_under_two_activations_per_hidden_unit(self):
        # k, the peak bytes train allocates over n * sum(hidden) * itemsize:
        # the activations (1), which the backward pass overwrites with their
        # gradients, the propagated inputs past the first layer (0.5), the
        # mask buffer (0.06), the (n,) vectors and the parameter-sized
        # arrays; and the row slices of A_hat that train generates
        graph = toy_graph(num_free=4, choices=6)  # 1296 nodes
        config = GcnConfig(hidden_dims=(64, 64), epochs=3, dtype="float64")
        rng = np.random.default_rng(0)
        ids = rng.choice(graph.num_nodes, 300, replace=False)
        labels = ids, 0.5 + 0.1 * rng.standard_normal(300)
        a_hat = a_hat_reference(graph)
        s0 = np.unique(ids)
        r1 = closed_neighbourhood(a_hat, s0)
        assert len(r1) > 0.99 * graph.num_nodes
        unit = graph.num_nodes * 128 * 8
        slices = row_slice_bytes(a_hat, s0) + row_slice_bytes(a_hat, r1)
        assert self.train_peak(graph, labels, config) / unit < 1.83 + slices / unit

    def test_sparse_labels_allocate_under_one_activation_per_hidden_unit(self):
        # 60 labels on 7776 nodes: the layer past the first, its propagated
        # input and its mask rows cover the labels' closed neighbourhood alone
        graph = toy_graph(num_free=5, choices=6)
        config = GcnConfig(hidden_dims=(64, 64), epochs=3, dtype="float64")
        rng = np.random.default_rng(0)
        ids = rng.choice(graph.num_nodes, 60, replace=False)
        labels = ids, 0.5 + 0.1 * rng.standard_normal(60)
        r1 = closed_neighbourhood(a_hat_reference(graph), np.unique(ids))
        assert 0.15 < len(r1) / graph.num_nodes < 0.21
        assert self.train_peak(graph, labels, config) / (graph.num_nodes * 128 * 8) < 1.0


def relative_error(got: np.ndarray, want: np.ndarray, unit: float) -> float:
    """The largest difference over the largest entry of ``want``, or over
    ``unit`` if that is larger."""
    return float(np.abs(got - want).max()) / max(float(np.abs(want).max()), unit)


class TestReceptiveField:
    """Training on the labels' receptive field against the full graph."""

    @settings(max_examples=60, deadline=None)
    @given(subspaces(), st.integers(1, 3), st.sampled_from(["float32", "float64"]),
           st.integers(0, 2**32 - 1))
    def test_a_step_matches_the_full_graph(self, sub, depth, dtype, seed):
        rng = np.random.default_rng(seed)
        n = sub.node_count
        graph = random_graph(sub, rng)
        config = GcnConfig(hidden_dims=tuple(rng.integers(1, 9, depth)), dtype=dtype)
        model = init_model(graph.features.shape[1], config, seed)
        ids = rng.choice(n, rng.integers(1, 13))  # repeats allowed
        y = (0.5 + 0.1 * rng.standard_normal(len(ids))).astype(dtype)
        loss, grads = loss_and_gradients(graph, model, ids, y, 5e-4)

        a_hat, propagated, coefficients = model_inputs_reference(graph, np.dtype(dtype))
        out, activations = forward_reference(a_hat, propagated, coefficients, model)
        residual = out[ids] - y
        out_grad = np.zeros_like(out)
        np.add.at(out_grad, ids, np.sign(residual) * np.dtype(dtype).type(1 / len(ids)))
        want = gradients_reference(
            a_hat, propagated, coefficients, model, activations, out_grad, 5e-4
        )
        tolerance = 1e-12 if dtype == "float64" else 1e-5
        want_loss = float(np.abs(residual).mean())
        assert abs(loss - want_loss) <= tolerance * want_loss
        for got, expected in zip(grads, want):
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert relative_error(got, expected, 1 / len(ids)) <= tolerance

    def test_operators_are_the_row_slices(self):
        graph = toy_graph(num_free=4, choices=5)  # 625 nodes
        a_hat = a_hat_reference(graph, np.float32)
        rows = np.array([0, 3, 3, 311, 624])
        s0 = np.unique(rows)
        r1 = closed_neighbourhood(a_hat, s0)
        r2 = closed_neighbourhood(a_hat, r1)
        assert len(r1) < len(r2) < graph.num_nodes
        ops = _receptive_field(_model_inputs(graph, np.dtype(np.float32))[0], s0, 3)
        dense = a_hat.toarray()
        for op, r, c in zip(ops, (s0, r1, r2), (r1, r2, np.arange(graph.num_nodes))):
            assert op.format == "csr" and op.has_canonical_format and op.dtype == np.float32
            assert np.array_equal(op.toarray(), dense[np.ix_(r, c)])

    def test_every_node_copies_nothing(self):
        graph = toy_graph(num_free=3, choices=4)
        a_hat, propagated, coefficients = _model_inputs(graph, np.dtype(np.float64))
        ops = _receptive_field(a_hat, np.arange(64), 3)
        assert all(op is ops[0] for op in ops)  # the generated rows are the only copy
        want = a_hat_reference(graph)
        for name in ("indptr", "indices", "data"):
            assert getattr(ops[0], name).tobytes() == getattr(want, name).tobytes(), name
        model = init_model(graph.features.shape[1], GcnConfig(hidden_dims=(4, 4, 4)), 0)
        workspace = _Workspace(a_hat, propagated, coefficients, model, np.arange(64))
        assert all(a.shape[0] == 64 for a in workspace.acts)
        for op in workspace.transposed:
            assert op.format == "csc" and np.shares_memory(op.data, workspace.operators[0].data)

    def test_train_twice_gives_the_same_bytes(self):
        graph = toy_graph(num_free=5, choices=4)  # 1024 nodes
        rng = np.random.default_rng(8)
        ids = rng.choice(graph.num_nodes, 40)
        labels = ids, 0.5 + 0.1 * rng.standard_normal(40)
        config = GcnConfig(hidden_dims=(8, 8), epochs=12, dtype="float32")
        m1, l1 = train(graph, labels, config, 2)
        m2, l2 = train(graph, labels, config, 2)
        assert l1 == l2
        for a, b in zip(m1.params(), m2.params()):
            assert a.tobytes() == b.tobytes()


class TestLossCurve:
    def test_loss_curve_format(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_curve([0.5, 0.25], path)
        assert path.read_text().splitlines() == ["epoch,loss", "0,0.500000", "1,0.250000"]


@pytest.mark.parametrize("feat_dim", [0, -1])
def test_init_model_refuses_an_empty_input(feat_dim):
    with pytest.raises(ValueError, match=f"^feat_dim must be >= 1, got {feat_dim}$") as info:
        init_model(feat_dim, GcnConfig(hidden_dims=(4,)), 0)
    assert type(info.value) is ValueError
