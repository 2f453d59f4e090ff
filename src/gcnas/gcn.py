"""From-scratch graph convolutional regressor.

Forward pass: H0 = features, H_{l+1} = relu(A_hat H_l W_l), output =
A_hat H_last . head + bias, one scalar per node. Training minimizes the mean
absolute error over labeled nodes with full-batch Adam and a stepped
learning-rate schedule; gradients are hand-derived (no autodiff framework).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .arch_graph import ArchGraph, normalize_adjacency

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_MODEL_MAGIC = b"GCNM"
_MODEL_VERSION = 1


@dataclass(frozen=True)
class GcnConfig:
    hidden_dims: tuple[int, ...] = (512, 512)
    epochs: int = 600
    lr: float = 0.01
    lr_decay: float = 0.1
    weight_decay: float = 5e-4
    dtype: str = "float64"

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.hidden_dims)
        object.__setattr__(self, "hidden_dims", dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"hidden_dims must be non-empty positive widths, got {dims}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if np.dtype(self.dtype) not in (np.float32, np.float64):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")


#: reduced-width profile for CI runs; search quality tracks the full-width
#: default closely on desk-scale spaces
CI_GCN_CONFIG = GcnConfig(hidden_dims=(32, 32), dtype="float32")


@dataclass
class GcnModel:
    """Layer weights plus a linear regression head. Arrays are owned by the
    model; treat them as immutable outside the trainer."""

    layer_weights: list[np.ndarray]
    head: np.ndarray  # (h_last,)
    bias: np.ndarray  # (1,)

    def params(self) -> list[np.ndarray]:
        return [*self.layer_weights, self.head, self.bias]

    @property
    def feat_dim(self) -> int:
        return self.layer_weights[0].shape[0]


def init_model(feat_dim: int, config: GcnConfig, seed: int) -> GcnModel:
    """Glorot-uniform weights, zero head bias, deterministic in the seed."""
    if feat_dim < 1:
        raise ValueError(f"feat_dim must be >= 1, got {feat_dim}")
    dtype = np.dtype(config.dtype)
    rng = np.random.default_rng(seed)

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, (fan_in, fan_out)).astype(dtype)

    dims = (feat_dim, *config.hidden_dims)
    weights = [glorot(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    head = glorot(dims[-1], 1).reshape(-1)
    bias = np.zeros(1, dtype=dtype)
    return GcnModel(weights, head, bias)


def learning_rate_at(epoch: int, config: GcnConfig) -> float:
    """Initial rate, stepped down by ``lr_decay`` at E/2 and 3E/4."""
    lr = config.lr
    if epoch >= config.epochs // 2:
        lr *= config.lr_decay
    if epoch >= (3 * config.epochs) // 4:
        lr *= config.lr_decay
    return lr


def _model_inputs(graph: ArchGraph, dtype: np.dtype) -> tuple[sp.csr_matrix, np.ndarray]:
    """A_hat and A_hat @ X in the model dtype; neither depends on the model,
    so both are cached on the graph. Every dtype's A_hat shares the index
    arrays of the float64 one."""
    if dtype not in graph.model_inputs:
        a = normalize_adjacency(graph)
        a_hat = sp.csr_matrix((a.data.astype(dtype, copy=False), a.indices, a.indptr), a.shape)
        graph.model_inputs[dtype] = (a_hat, a_hat @ graph.features.astype(dtype, copy=False))
    return graph.model_inputs[dtype]


def _forward_cached(
    a_hat: sp.csr_matrix, propagated_input: np.ndarray, model: GcnModel
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass reusing the precomputed A_hat @ X; returns the output and
    the post-relu activations of every layer."""
    activations: list[np.ndarray] = []
    h = np.maximum(propagated_input @ model.layer_weights[0], 0)
    activations.append(h)
    for w in model.layer_weights[1:]:
        h = np.maximum(a_hat @ (h @ w), 0)
        activations.append(h)
    out = a_hat @ (h @ model.head) + model.bias[0]
    return out, activations


def _gradients(
    a_hat: sp.csr_matrix,
    propagated_input: np.ndarray,
    model: GcnModel,
    activations: list[np.ndarray],
    out_grad: np.ndarray,
    weight_decay: float,
) -> list[np.ndarray]:
    """Gradients of the loss w.r.t. every parameter, ordered like
    ``model.params()``. The L1 subgradient arrives via ``out_grad``; the
    L2 weight-decay term is added to all weights but not the bias."""
    u = a_hat @ out_grad
    h_last = activations[-1]
    g_head = h_last.T @ u + weight_decay * model.head
    g_bias = np.array([out_grad.sum()], dtype=model.bias.dtype)
    d_h = np.outer(u, model.head)
    grads_w: list[np.ndarray] = [np.empty(0)] * len(model.layer_weights)
    for layer in range(len(model.layer_weights) - 1, -1, -1):
        d_z = d_h * (activations[layer] > 0)
        if layer == 0:
            g_w = propagated_input.T @ d_z
        else:
            q = a_hat @ d_z
            g_w = activations[layer - 1].T @ q
            d_h = q @ model.layer_weights[layer].T
        grads_w[layer] = g_w + weight_decay * model.layer_weights[layer]
    return [*grads_w, g_head, g_bias]


def forward(graph: ArchGraph, model: GcnModel) -> np.ndarray:
    """Score every node of the graph in one pass."""
    dtype = model.layer_weights[0].dtype
    if graph.features.shape[1] != model.feat_dim:
        raise ValueError(
            f"graph features have dimension {graph.features.shape[1]}, "
            f"model expects {model.feat_dim}"
        )
    out, _ = _forward_cached(*_model_inputs(graph, dtype), model)
    return out


def _steps(
    a_hat: sp.csr_matrix,
    propagated_input: np.ndarray,
    model: GcnModel,
    idx: np.ndarray,
    y: np.ndarray,
    weight_decay: float,
) -> Iterator[tuple[float, list[np.ndarray]]]:
    """Training steps: each ``next()`` gives the mean absolute error over the
    labeled nodes ``idx`` and its (sub)gradients, ordered like
    ``model.params()``, for the model's weights as they are at that call.

    A generator rather than a function so that one step's arrays stay alive
    until the next step has computed its own, as in a loop body; freeing them
    at every return made the allocator hand pages back and fault them in
    again, about 7% of an epoch at 7,776 nodes, 32-wide, float32.
    """
    inv_n = y.dtype.type(1.0 / len(idx))
    while True:
        out, activations = _forward_cached(a_hat, propagated_input, model)
        residual = out[idx] - y
        loss = float(np.abs(residual).mean())
        out_grad = np.zeros(len(out), dtype=y.dtype)
        np.add.at(out_grad, idx, np.sign(residual) * inv_n)
        yield loss, _gradients(a_hat, propagated_input, model, activations, out_grad, weight_decay)


def loss_and_gradients(
    graph: ArchGraph,
    model: GcnModel,
    node_indices: Sequence[int],
    targets: Sequence[float],
    weight_decay: float = 0.0,
) -> tuple[float, list[np.ndarray]]:
    """Mean absolute error over the labeled nodes and its (sub)gradients,
    computed by the same step that :func:`train` takes every epoch.

    The returned loss excludes the decay term; the returned gradients include
    it (0.5 * weight_decay * ||W||^2 per weight array, bias excluded).
    """
    dtype = model.layer_weights[0].dtype
    idx = np.asarray(node_indices, dtype=np.int64)
    y = np.asarray(targets, dtype=dtype)
    return next(_steps(*_model_inputs(graph, dtype), model, idx, y, weight_decay))


def train(
    graph: ArchGraph,
    labels: tuple[Sequence[int], Sequence[float]],
    config: GcnConfig,
    seed: int,
) -> tuple[GcnModel, list[float]]:
    """Fit the regressor to ``labels``, a pair of equal-length arrays
    ``(node_ids, targets)``, from initial weights drawn with ``seed``.

    Full-batch Adam on the mean absolute error plus L2 weight decay; the
    learning rate steps down at E/2 and 3E/4. Returns the model and the
    per-epoch training loss (measured before each update).
    """
    node_ids, targets = labels
    dtype = np.dtype(config.dtype)
    idx = np.asarray(node_ids, dtype=np.int64)
    y = np.asarray(targets, dtype=dtype)
    if idx.ndim != 1 or idx.shape != y.shape:
        raise ValueError(
            f"need one target per labeled node, got {idx.shape} ids and {y.shape} targets"
        )
    if len(idx) == 0:
        raise ValueError("training needs at least one labeled node")
    if idx.min() < 0 or idx.max() >= graph.num_nodes:
        raise ValueError(
            f"label node indices must lie in [0, {graph.num_nodes}), "
            f"got range [{idx.min()}, {idx.max()}]"
        )
    a_hat, propagated = _model_inputs(graph, dtype)

    model = init_model(graph.features.shape[1], config, seed)
    # warm-start the regression offset; Adam's fixed step size would spend
    # most of the schedule crawling from 0 to the label mean otherwise
    model.bias[0] = y.mean()

    params = model.params()
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]

    losses: list[float] = []
    steps = _steps(a_hat, propagated, model, idx, y, config.weight_decay)
    for epoch, (loss, grads) in zip(range(config.epochs), steps):
        lr = learning_rate_at(epoch, config)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite training loss at epoch {epoch}")
        losses.append(loss)

        t = epoch + 1
        bias_fix1 = 1.0 - ADAM_BETA1**t
        bias_fix2 = 1.0 - ADAM_BETA2**t
        for p, g, m1, m2 in zip(params, grads, moment1, moment2):
            m1 *= ADAM_BETA1
            m1 += (1 - ADAM_BETA1) * g
            m2 *= ADAM_BETA2
            m2 += (1 - ADAM_BETA2) * g * g
            p -= lr * (m1 / bias_fix1) / (np.sqrt(m2 / bias_fix2) + ADAM_EPS)
    return model, losses


def save_model(model: GcnModel, path: str | Path) -> None:
    """Versioned binary dump: shapes plus row-major 32-bit weights."""
    arrays = model.params()
    with Path(path).open("wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<II", _MODEL_VERSION, len(arrays)))
        for arr in arrays:
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_model(path: str | Path) -> GcnModel:
    """Read a :func:`save_model` file; a truncated file, trailing bytes or
    array shapes that do not form a model raise ``ValueError`` naming the
    path."""
    data = Path(path).read_bytes()
    if data[:4] != _MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file")
    offset = 4

    def take(nbytes: int) -> bytes:
        nonlocal offset
        if offset + nbytes > len(data):
            raise ValueError(f"{path}: truncated model file ({len(data)} bytes)")
        offset += nbytes
        return data[offset - nbytes : offset]

    version, count = struct.unpack("<II", take(8))
    if version != _MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")
    arrays: list[np.ndarray] = []
    for _ in range(count):
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        size = math.prod(shape)
        arrays.append(np.frombuffer(take(4 * size), dtype="<f4").reshape(shape).astype(np.float32))
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes after the last array")
    if len(arrays) < 3:
        raise ValueError(f"{path}: expected at least 3 arrays, found {len(arrays)}")
    *weights, head, bias = arrays
    chained = all(w.ndim == 2 for w in weights) and all(
        a.shape[1] == b.shape[0] for a, b in zip(weights, weights[1:])
    )
    if not (chained and head.shape == (weights[-1].shape[1],) and bias.shape == (1,)):
        raise ValueError(f"{path}: inconsistent array shapes {[a.shape for a in arrays]}")
    return GcnModel(weights, head, bias)


def write_loss_curve(losses: Sequence[float], path: str | Path) -> None:
    """CSV loss curve, one "epoch,loss" row per epoch."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(losses):
            fh.write(f"{epoch},{loss:.6f}\n")
