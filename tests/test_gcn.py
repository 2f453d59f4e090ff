import re

import numpy as np
import pytest
import scipy.sparse as sp

from gcnas.arch_graph import ArchGraph, build_graph, normalize_adjacency
from gcnas.gcn import (
    GcnConfig,
    GcnModel,
    _forward_cached,
    forward,
    init_model,
    learning_rate_at,
    load_model,
    loss_and_gradients,
    save_model,
    train,
    write_loss_curve,
)
from gcnas.search_space import SearchSpaceSpec, Subspace


def toy_graph(num_free: int = 2, choices: int = 4, seed: int = 0) -> ArchGraph:
    spec = SearchSpaceSpec(num_free + 1, choices)
    sub = Subspace(spec, tuple(range(num_free)), {num_free: 0})
    graph = build_graph(sub)
    normalize_adjacency(graph)
    return graph


def edgeless_graph(num_nodes: int, feat_dim: int, seed: int = 0) -> ArchGraph:
    rng = np.random.default_rng(seed)
    features = rng.random((num_nodes, feat_dim)).astype(np.float32)
    spec = SearchSpaceSpec(2, 4)
    sub = Subspace(spec, (0,), {1: 0})
    return ArchGraph(
        subspace=sub,
        num_nodes=num_nodes,
        adjacency=sp.csr_matrix((num_nodes, num_nodes)),
        features=features,
        choice_matrix=np.zeros((num_nodes, 2), dtype=np.int64),
    )


class TestInitModel:
    def test_default_shapes(self):
        model = init_model(57, GcnConfig())
        assert [w.shape for w in model.layer_weights] == [(57, 512), (512, 512)]
        assert model.head.shape == (512,)
        assert model.bias.shape == (1,) and model.bias[0] == 0.0

    def test_single_hidden_layer_shapes(self):
        model = init_model(57, GcnConfig(hidden_dims=(8,)))
        assert [w.shape for w in model.layer_weights] == [(57, 8)]
        assert model.head.shape == (8,)

    def test_seed_determinism(self):
        a = init_model(10, GcnConfig(hidden_dims=(4, 4), seed=3))
        b = init_model(10, GcnConfig(hidden_dims=(4, 4), seed=3))
        for x, y in zip(a.params(), b.params()):
            assert (x == y).all()
        c = init_model(10, GcnConfig(hidden_dims=(4, 4), seed=4))
        assert any((x != y).any() for x, y in zip(a.params(), c.params()))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GcnConfig(hidden_dims=())
        with pytest.raises(ValueError):
            GcnConfig(lr=0.0)
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
        model = init_model(graph.features.shape[1], GcnConfig(hidden_dims=(4, 4)))
        for w in model.layer_weights:
            w[:] = 0.0
        model.head[:] = 0.0
        assert np.allclose(forward(graph, model), 0.0)
        model.bias[0] = 0.37
        assert np.allclose(forward(graph, model), 0.37)

    def test_edgeless_graph_equals_plain_mlp(self):
        graph = edgeless_graph(12, 6)
        normalize_adjacency(graph)
        model = init_model(6, GcnConfig(hidden_dims=(5, 3), seed=2))
        out = forward(graph, model)
        # independent per-row MLP oracle
        x = graph.features.astype(np.float64)
        h = np.maximum(x @ model.layer_weights[0], 0)
        h = np.maximum(h @ model.layer_weights[1], 0)
        expected = h @ model.head + model.bias[0]
        assert out == pytest.approx(expected, abs=1e-12)

    def test_permutation_equivariance(self):
        graph = toy_graph(num_free=2, choices=5)
        model = init_model(graph.features.shape[1], GcnConfig(hidden_dims=(7, 7), seed=1))
        out = forward(graph, model)
        rng = np.random.default_rng(5)
        perm = rng.permutation(graph.num_nodes)
        # relabel nodes: P A P^T and P X
        p = sp.csr_matrix(
            (np.ones(graph.num_nodes), (np.arange(graph.num_nodes), perm)),
            shape=(graph.num_nodes, graph.num_nodes),
        )
        permuted = ArchGraph(
            subspace=graph.subspace,
            num_nodes=graph.num_nodes,
            adjacency=(p @ graph.adjacency @ p.T).tocsr(),
            features=graph.features[perm],
            choice_matrix=graph.choice_matrix[perm],
        )
        normalize_adjacency(permuted)
        assert forward(permuted, model) == pytest.approx(out[perm], abs=1e-9)

    def test_shape_mismatch_errors(self):
        graph = toy_graph()
        model = init_model(graph.features.shape[1] + 1, GcnConfig(hidden_dims=(4,)))
        with pytest.raises(ValueError):
            forward(graph, model)


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
        config = GcnConfig(hidden_dims=(4,), seed=3, dtype="float64")
        model = init_model(graph.features.shape[1], config)
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
        teacher = init_model(graph.features.shape[1], GcnConfig(hidden_dims=(4, 4), seed=seed))
        teacher.bias[0] = 0.5
        targets = forward(graph, teacher)
        return [(i, float(targets[i])) for i in range(graph.num_nodes)]

    def test_fits_realizable_labels(self):
        graph = toy_graph(num_free=1, choices=5)  # 5 nodes
        labels = self.teacher_labels(graph)
        config = GcnConfig(hidden_dims=(4, 4), epochs=400, seed=0, dtype="float64")
        model, losses = train(graph, labels, config)
        assert losses[-1] < 1e-2

    def test_loss_decreases(self):
        graph = toy_graph(num_free=2, choices=4)
        rng = np.random.default_rng(0)
        labels = [(i, float(v)) for i, v in enumerate(0.5 + 0.1 * rng.standard_normal(16))]
        model, losses = train(graph, labels, GcnConfig(hidden_dims=(4,), epochs=50, seed=1))
        assert losses[-1] < losses[0]
        assert len(losses) == 50

    def test_bitwise_determinism(self):
        graph = toy_graph(num_free=2, choices=4)
        rng = np.random.default_rng(2)
        labels = [(i, float(v)) for i, v in enumerate(rng.random(16))]
        config = GcnConfig(hidden_dims=(6, 6), epochs=30, seed=5)
        m1, l1 = train(graph, labels, config)
        m2, l2 = train(graph, labels, config)
        assert l1 == l2
        for a, b in zip(m1.params(), m2.params()):
            assert a.tobytes() == b.tobytes()

    def test_empty_labels_error(self):
        with pytest.raises(ValueError):
            train(toy_graph(), [], GcnConfig(hidden_dims=(4,)))

    def test_bad_indices_error(self):
        graph = toy_graph(num_free=1, choices=4)
        with pytest.raises(ValueError):
            train(graph, [(99, 0.5)], GcnConfig(hidden_dims=(4,)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_names_epoch(self):
        graph = toy_graph(num_free=1, choices=4)
        with pytest.raises(RuntimeError, match="epoch 0"):
            train(graph, [(0, float("inf"))], GcnConfig(hidden_dims=(4,), epochs=3))


class TestModelInputs:
    def test_cached_per_dtype_with_the_same_bits(self):
        graph = toy_graph(num_free=2, choices=4)
        labels = [(i, 0.5 + 0.01 * i) for i in range(8)]
        config = GcnConfig(hidden_dims=(6, 6), epochs=3, seed=4, dtype="float32")
        model, _ = train(graph, labels, config)
        f32 = np.dtype(np.float32)
        a_hat, propagated = graph.model_inputs[f32]
        out = forward(graph, model)
        loss_and_gradients(graph, model, [0, 1], [0.5, 0.6])
        assert list(graph.model_inputs) == [f32]
        assert graph.model_inputs[f32][0] is a_hat and graph.model_inputs[f32][1] is propagated
        # the same bits as casting and propagating afresh
        cast = normalize_adjacency(graph).astype(np.float32)
        want, _ = _forward_cached(cast, cast @ graph.features, model)
        assert out.tobytes() == want.tobytes()
        assert out.tobytes() == forward(graph, model).tobytes()

        model64 = init_model(graph.features.shape[1], GcnConfig(hidden_dims=(6, 6), seed=4))
        forward(graph, model64)
        assert list(graph.model_inputs) == [f32, np.dtype(np.float64)]
        normalized = normalize_adjacency(graph)
        for a, _ in graph.model_inputs.values():
            assert np.shares_memory(a.indices, normalized.indices)
            assert np.shares_memory(a.indptr, normalized.indptr)
        assert np.shares_memory(graph.model_inputs[np.dtype(np.float64)][0].data, normalized.data)


class TestModelIO:
    def test_save_load_roundtrip(self, tmp_path):
        model = init_model(9, GcnConfig(hidden_dims=(5, 3), seed=8, dtype="float32"))
        model.bias[0] = 0.25
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert len(loaded.layer_weights) == 2
        for a, b in zip(model.params(), loaded.params()):
            assert a.astype(np.float32) == pytest.approx(b)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a model")
        with pytest.raises(ValueError):
            load_model(path)

    def saved_bytes(self, tmp_path) -> bytes:
        path = tmp_path / "model.bin"
        save_model(init_model(9, GcnConfig(hidden_dims=(5, 3), dtype="float32")), path)
        return path.read_bytes()

    @pytest.mark.parametrize("cut", [6, 20, -5])
    def test_truncated_file_names_path(self, tmp_path, cut):
        path = tmp_path / "cut.bin"
        path.write_bytes(self.saved_bytes(tmp_path)[:cut])
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated")):
            load_model(path)

    def test_trailing_bytes_name_path(self, tmp_path):
        path = tmp_path / "long.bin"
        path.write_bytes(self.saved_bytes(tmp_path) + b"\0\0\0")
        with pytest.raises(ValueError, match=re.escape(f"{path}: 3 trailing bytes")):
            load_model(path)

    @pytest.mark.parametrize(
        "weights, head, bias",
        [
            ([np.ones(9)], np.ones(9), np.ones(1)),  # 1-D layer weight
            ([np.ones((9, 5)), np.ones((4, 3))], np.ones(3), np.ones(1)),  # layers do not chain
            ([np.ones((9, 8))], np.ones((8, 1)), np.ones(1)),  # 2-D head
            ([np.ones((9, 8))], np.ones(7), np.ones(1)),  # head narrower than the last layer
            ([np.ones((9, 8))], np.ones(8), np.ones(3)),  # bias of three
            ([np.ones((9, 8))], np.ones(8), np.ones((1, 1))),  # 2-D bias
        ],
    )
    def test_inconsistent_shapes_name_path(self, tmp_path, weights, head, bias):
        path = tmp_path / "shapes.bin"
        save_model(GcnModel(weights, head, bias), path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: inconsistent array shapes")):
            load_model(path)

    def test_loss_curve_format(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_curve([0.5, 0.25], path)
        assert path.read_text().splitlines() == ["epoch,loss", "0,0.500000", "1,0.250000"]
