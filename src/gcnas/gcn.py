"""From-scratch graph convolutional regressor.

Forward pass: H0 = features X, H_{l+1} = relu(A_hat H_l W_l), output =
A_hat H_last . head + bias, one scalar per node. The first layer reads X in a
narrower basis, X = Z M, as ``(A_hat Z)(M W_0)``. Training minimizes the mean
absolute error over labeled nodes with full-batch Adam and a stepped
learning-rate schedule; gradients are hand-derived (no autodiff framework).
Each epoch computes only the rows the loss reads: the labeled nodes and
their neighbourhoods out to the depth of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .arch_graph import (
    ArchGraph,
    NormalizedAdjacency,
    _propagate,
    feature_basis,
    normalize_adjacency,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if np.dtype(self.dtype) not in (np.float32, np.float64):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")


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


def _model_inputs(
    graph: ArchGraph, dtype: np.dtype
) -> tuple[NormalizedAdjacency, np.ndarray, np.ndarray]:
    """The A_hat operator, A_hat @ Z and M in the model dtype, where X = Z M
    is the graph's ``feature_basis``; none depends on the model, so all are
    cached on the graph."""
    a_hat = normalize_adjacency(graph, dtype)
    if graph.propagated is None:
        basis, coefficients = feature_basis(graph, dtype)
        graph.propagated = a_hat.matmul(basis, np.empty_like(basis)), coefficients
    return a_hat, *graph.propagated


def _receptive_field(
    a_hat: NormalizedAdjacency, rows: np.ndarray, depth: int
) -> list[sp.csr_matrix]:
    """The operators ``A_hat[R_k, R_{k+1}]`` for ``k < depth``, which a
    ``depth``-layer pass needs to give the output at the sorted node ids
    ``rows``: ``R_0 = rows``, ``R_{k+1}`` is the closed neighbourhood of
    ``R_k`` in ``A_hat``, and ``R_depth`` is every node. Each is generated
    from the rows of ``R_k``, its columns numbered by position in
    ``R_{k+1}``, which keeps each row's columns in order. Once ``R_k`` is
    every node, every operator from there on is the one matrix of every
    row."""
    n = a_hat.shape[0]
    operators = []
    for k in range(depth):
        if len(rows) == n:
            operators += [a_hat.rows(rows)] * (depth - k)
            break
        block = a_hat.rows(rows)
        if k < depth - 1:
            reached = np.zeros(n, bool)
            reached[block.indices] = True
            rows = np.flatnonzero(reached)
            position = np.cumsum(reached, dtype=block.indices.dtype) - 1
            block = sp.csr_matrix(
                (block.data, position[block.indices], block.indptr), (block.shape[0], len(rows))
            )
        operators.append(block)
    return operators


class _Workspace:
    """Every array a training step of ``model`` computes to give the output
    at the sorted node ids ``rows``, allocated once and overwritten by each
    step, so a training epoch allocates nothing the size of the graph. Each
    pass reads the model's weights as they are at that call.

    Layer 0 runs ``(A_hat Z)(M W_0)`` on every node, because ``A_hat Z`` is
    cached for every node, and its weight gradient is ``M^T (A_hat Z)^T dZ``.
    Of an L-layer stack, layer l > 0 runs ``(A_hat[R, .] H) W`` on the rows R
    of ``_receptive_field`` at depth ``L - l``, and the head on ``rows``
    alone. The backward pass multiplies by each operator's transpose, read
    as CSC from the operator's own arrays. With ``rows`` every node, every
    operator is the one generated matrix of every row. The arrays:

    - ``acts``, per layer of width h, the (rows, h) post-ReLU activations.
      The backward pass overwrites each with its gradient once the
      activation's weight gradient is taken and its ReLU mask saved;
    - ``products``, past the first layer, the propagated input ``A_hat H``
      of the layer, which the backward pass overwrites with its gradient;
    - ``mask``, bools for the largest activation, viewed as one layer's ReLU
      mask at a time;
    - ``basis_weights``, ``M W_0``, which the backward pass overwrites with
      ``(A_hat Z)^T dZ``;
    - vectors for the head's input and ``A_hat^T`` times the output
      gradient, over the head's rows; the output and its gradient over
      ``rows``; and one gradient array per parameter.
    """

    def __init__(
        self,
        a_hat: NormalizedAdjacency,
        propagated: np.ndarray,
        coefficients: np.ndarray,
        model: GcnModel,
        rows: np.ndarray,
    ) -> None:
        self.propagated_input, self.coefficients = propagated, coefficients
        self.model = model
        dtype = model.head.dtype
        widths = [w.shape[1] for w in model.layer_weights]
        # deepest first: operators[l - 1] feeds layer l > 0, operators[-1] the head
        self.operators = _receptive_field(a_hat, rows, len(widths))[::-1]
        self.transposed = [a.T for a in self.operators]
        heights = [len(propagated), *(a.shape[0] for a in self.operators)]
        self.acts = [np.empty((m, h), dtype) for m, h in zip(heights, widths)]
        self.products = [np.empty((m, h), dtype) for m, h in zip(heights[1:-1], widths)]
        self.mask = np.empty(max(a.size for a in self.acts), bool)
        self.basis_weights = np.empty((len(coefficients), widths[0]), dtype)
        self.head_input, self.u = np.empty(heights[-2], dtype), np.empty(heights[-2], dtype)
        self.out, self.out_grad = np.empty(heights[-1], dtype), np.empty(heights[-1], dtype)
        self.grads = [np.empty_like(p) for p in model.params()]

    def forward(self) -> np.ndarray:
        """The output at ``rows``; the activations stay in ``acts``."""
        model = self.model
        np.matmul(self.coefficients, model.layer_weights[0], out=self.basis_weights)
        np.matmul(self.propagated_input, self.basis_weights, out=self.acts[0])
        np.maximum(self.acts[0], 0, out=self.acts[0])
        for layer in range(1, len(self.acts)):
            p = _propagate(self.operators[layer - 1], self.acts[layer - 1], self.products[layer - 1])
            h = np.matmul(p, model.layer_weights[layer], out=self.acts[layer])
            np.maximum(h, 0, out=h)
        np.matmul(self.acts[-1], model.head, out=self.head_input)
        _propagate(self.operators[-1], self.head_input, self.out)
        self.out += model.bias[0]
        return self.out

    def _relu_mask(self, act: np.ndarray) -> np.ndarray:
        return np.greater(act, 0, out=self.mask[: act.size].reshape(act.shape))

    def step(
        self, idx: np.ndarray, y: np.ndarray, weight_decay: float
    ) -> tuple[float, list[np.ndarray]]:
        """One training step at the model's current weights: the mean
        absolute error over the labeled outputs ``idx``, positions in
        ``rows``, and its (sub)gradients, ordered like ``model.params()``.
        The L2 weight-decay term is added to the gradients of all weights
        but not the bias, and not to the loss.

        The gradients are workspace arrays, valid until the next step, so no
        step allocates what the allocator would hand back to the system and
        fault in again at the next one. The step leaves gradients, not
        activations, in ``acts`` and ``products``.
        """
        out = self.forward()
        residual = out[idx] - y
        loss = float(np.abs(residual).mean())
        self.out_grad.fill(0)
        np.add.at(self.out_grad, idx, np.sign(residual) * y.dtype.type(1.0 / len(idx)))

        model = self.model
        *grads_w, g_head, g_bias = self.grads
        u = _propagate(self.transposed[-1], self.out_grad, self.u)
        np.matmul(self.acts[-1].T, u, out=g_head)
        g_head += weight_decay * model.head
        g_bias[0] = self.out_grad.sum()
        mask = self._relu_mask(self.acts[-1])
        np.multiply(u[:, None], model.head, out=self.acts[-1])
        for layer in range(len(self.acts) - 1, -1, -1):
            d_z = np.multiply(self.acts[layer], mask, out=self.acts[layer])
            if layer == 0:
                np.matmul(self.propagated_input.T, d_z, out=self.basis_weights)
                np.matmul(self.coefficients.T, self.basis_weights, out=grads_w[0])
            else:
                p = self.products[layer - 1]
                np.matmul(p.T, d_z, out=grads_w[layer])
                d_p = np.matmul(d_z, model.layer_weights[layer].T, out=p)
                mask = self._relu_mask(self.acts[layer - 1])
                _propagate(self.transposed[layer - 1], d_p, self.acts[layer - 1])
            grads_w[layer] += weight_decay * model.layer_weights[layer]
        return loss, self.grads


def forward(graph: ArchGraph, model: GcnModel) -> np.ndarray:
    """Score every node of the graph in one pass: the products of
    ``_Workspace.forward`` with every node as a row, holding at most two
    (nodes, width) arrays at a time, and one block of A_hat's rows while it
    propagates. A layer's input is spent once it is propagated, so its
    buffer takes the layer's output if the widths match; a buffer of the
    wrong width is dropped before its successor is allocated.
    """
    feature_dim = graph.subspace.spec.feature_dim
    if feature_dim != model.feat_dim:
        raise ValueError(
            f"graph features have dimension {feature_dim}, model expects {model.feat_dim}"
        )
    a_hat, propagated, coefficients = _model_inputs(graph, model.head.dtype)
    act = np.matmul(propagated, coefficients @ model.layer_weights[0])
    np.maximum(act, 0, out=act)
    product = None  # the buffer the last input was propagated into
    for weights in model.layer_weights[1:]:
        if product is None or product.shape != act.shape:
            product = None  # dropped before its successor is allocated
            product = np.empty_like(act)
        a_hat.matmul(act, product)
        if act.shape[1] != weights.shape[1]:
            act = None  # spent, and dropped before its successor is allocated
            act = np.empty((graph.num_nodes, weights.shape[1]), product.dtype)
        np.matmul(product, weights, out=act)
        np.maximum(act, 0, out=act)
    head_input = np.matmul(act, model.head)
    out = a_hat.matmul(head_input, np.empty_like(head_input))
    out += model.bias[0]
    return out


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
    a_hat, propagated, coefficients = _model_inputs(graph, dtype)

    model = init_model(graph.subspace.spec.feature_dim, config, seed)
    # warm-start the regression offset; Adam's fixed step size would spend
    # most of the schedule crawling from 0 to the label mean otherwise
    model.bias[0] = y.mean()

    params = model.params()
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]

    losses: list[float] = []
    # the loss reads the output at the labeled nodes alone
    rows, label_rows = np.unique(idx, return_inverse=True)
    workspace = _Workspace(a_hat, propagated, coefficients, model, rows)
    for epoch in range(config.epochs):
        loss, grads = workspace.step(label_rows, y, config.weight_decay)
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
