"""Per-round architecture graphs.

Nodes enumerate every slot-digit row of a subspace in mixed-radix order; an
undirected edge joins two nodes iff their architectures differ at exactly one
searchable position (a super-cell counts as one position). Edge weights come
from either a fixed assigned similarity or a measured, correlation-based
one, as one similarity matrix per slot, which the graph keeps; the adjacency
is their Kronecker sum. The GCN consumes the symmetric renormalized adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .search_space import Architecture, Subspace, gray_code_table

#: node cap; larger graphs are rejected before anything is allocated
MAX_GRAPH_NODES = 6**7

ASSIGNED_WEIGHT = math.exp(-0.5)


@dataclass(frozen=True)
class AssignedSimilarity:
    """Every Hamming-1 edge carries the same fixed weight."""

    weight: float = ASSIGNED_WEIGHT

    def __post_init__(self) -> None:
        if not self.weight > 0:
            raise ValueError(f"assigned weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class MeasuredSimilarity:
    """Edge weights estimated from evaluation records: the correlation of
    accuracies across sampled node pairs that differ only at the edge's
    position. Sparse statistics fall back to the assigned weight."""

    min_pairs: int = 30
    floor: float = 0.01
    fallback_weight: float = ASSIGNED_WEIGHT

    def __post_init__(self) -> None:
        if not 0 < self.floor <= 1:
            raise ValueError(f"floor must be in (0, 1], got {self.floor}")
        if self.min_pairs < 2:
            raise ValueError(f"min_pairs must be >= 2, got {self.min_pairs}")
        if not self.fallback_weight > 0:
            raise ValueError(f"fallback weight must be positive, got {self.fallback_weight}")


SimilarityMode = Union[AssignedSimilarity, MeasuredSimilarity]


@dataclass
class ArchGraph:
    """Graph over all nodes of a subspace.

    Fixed at build: ``slot_weights``, the per-slot similarity matrices, which
    define the edges; ``choice_matrix``, the per-layer choices of each node's
    fully materialized architecture at ``np.min_scalar_type(O - 1)``, for
    cost and oracle lookups and for the node features. Caches filled after
    the build: ``normalized`` holds A_hat in one dtype, rebuilt when asked
    for in another, ``propagated`` the pair ``(A_hat @ Z, M)`` of the
    ``feature_basis`` beside it; ``ranked_by`` the
    last model to rank the nodes with their order (descending prediction,
    stable), ``priced_by`` the last cost model with the cost per node. A
    model must not be mutated once it has ranked.
    """

    subspace: Subspace
    num_nodes: int
    slot_weights: list[np.ndarray]
    choice_matrix: np.ndarray
    normalized: sp.csr_matrix | None = None
    propagated: tuple[np.ndarray, np.ndarray] | None = None
    ranked_by: tuple[object, np.ndarray] | None = None
    priced_by: tuple[object, np.ndarray] | None = None

    @property
    def adjacency(self) -> sp.csr_matrix:
        """The raw adjacency, rebuilt on every call: for inspection only."""
        return _kronecker_sum(self.slot_weights) - sp.eye(self.num_nodes, format="csr")

    @property
    def features(self) -> np.ndarray:
        """The uint8 node features, derived on every call: for inspection only."""
        return node_features(self, np.uint8)


def node_features(graph: ArchGraph, dtype: np.dtype) -> np.ndarray:
    """The (nodes, feature_dim) Gray bits of each node's materialized
    architecture, fixed cells as constant bits, as 0/1 in ``dtype``."""
    spec = graph.subspace.spec
    gray = gray_code_table(spec.choices_per_layer, spec.bits_per_cell).astype(dtype)
    return gray[graph.choice_matrix].reshape(graph.num_nodes, spec.feature_dim)


def feature_basis(graph: ArchGraph, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """``Z`` (nodes, z) and ``M`` (z, feature_dim), 0/1 in ``dtype``, with
    ``Z @ M == node_features(graph, dtype)`` exactly: each feature column is
    read from one column of ``Z``, or from a one-hot group that sets one
    column per node.

    Each slot adds the narrower of its varying Gray-bit columns and, for a
    super-cell with fewer candidates than those, the one-hot of its digit,
    both read from the choice matrix. One all-ones column, left out when no
    feature column is constant, carries the bits of the fixed cells and each
    slot's constant bits in its row of ``M``.
    """
    spec = graph.subspace.spec
    bits = spec.bits_per_cell
    gray = gray_code_table(spec.choices_per_layer, bits)
    constant = np.zeros(spec.feature_dim, dtype)  # the all-ones column's row of M
    is_constant = np.zeros(spec.feature_dim, bool)
    for position, choice in graph.subspace.fixed.items():
        columns = slice(position * bits, (position + 1) * bits)
        constant[columns], is_constant[columns] = gray[choice], True
    slots, rows = [], []  # per slot: (slot, one-hot or not, varying bits) and its rows of M
    for slot in graph.subspace.slots:
        columns = (np.array(slot.positions)[:, None] * bits + np.arange(bits)).ravel()
        slot_bits = gray[np.array(slot.candidates)].reshape(slot.radix, -1)
        varying = (slot_bits != slot_bits[0]).any(axis=0)
        constant[columns[~varying]], is_constant[columns[~varying]] = slot_bits[0, ~varying], True
        one_hot = slot.radix < np.count_nonzero(varying)
        if one_hot:
            m = np.zeros((slot.radix, spec.feature_dim), dtype)
            m[:, columns[varying]] = slot_bits[:, varying]
        else:
            m = np.eye(spec.feature_dim, dtype=dtype)[columns[varying]]
        slots.append((slot, one_hot, varying))
        rows.append(m)
    if is_constant.any():
        rows.append(constant[None])
    coefficients = np.concatenate(rows)
    basis = np.ones((graph.num_nodes, len(coefficients)), dtype)
    start = 0
    for (slot, one_hot, varying), m in zip(slots, rows):
        choices = graph.choice_matrix[:, slot.positions]
        if one_hot:
            for digit, candidate in enumerate(slot.candidates):
                basis[:, start + digit] = (choices == candidate).all(axis=1)
        else:
            basis[:, start : start + len(m)] = gray[choices].reshape(len(choices), -1)[:, varying]
        start += len(m)
    return basis, coefficients


def check_graph_size(n: int) -> None:
    """Raise if ``n`` nodes are past the node cap."""
    if n > MAX_GRAPH_NODES:
        raise ValueError(f"subspace has {n} nodes, exceeding the cap of {MAX_GRAPH_NODES}")


def node_index(subspace: Subspace, row: Sequence[int]) -> int:
    """Mixed-radix node id of one digit row."""
    return int(subspace.index(np.asarray(row)[None])[0])


def measured_similarity(
    digits: np.ndarray,
    accuracies: np.ndarray,
    subspace: Subspace,
    mode: MeasuredSimilarity = MeasuredSimilarity(),
) -> list[np.ndarray]:
    """Per-slot similarity matrices from evaluation records: digit rows and
    their accuracies.

    For every searchable position and unordered choice pair, collects the
    accuracies of sampled rows identical everywhere else and takes their
    Pearson correlation, clamped to [floor, 1]. Pairs with fewer than
    ``min_pairs`` observations (or degenerate variance) fall back to the
    assigned weight. Returns one symmetric, zero-diagonal matrix per slot.
    """
    accuracies = np.asarray(accuracies, dtype=np.float64)
    if len(accuracies) == 0:
        raise ValueError("measured similarity needs at least one evaluation record")
    digits = subspace._checked(digits)
    if len(digits) != len(accuracies):
        raise ValueError(f"{len(digits)} digit rows but {len(accuracies)} accuracies")

    weights = []
    for j, slot in enumerate(subspace.slots):
        # rows equal off slot j form a group, groups in first-seen order;
        # a repeated row keeps its last accuracy
        _, first, inverse = np.unique(
            np.delete(digits, j, axis=1), axis=0, return_index=True, return_inverse=True
        )
        group = np.argsort(np.argsort(first))[inverse.reshape(-1)]
        table = np.full((len(first), slot.radix), np.nan)
        table[group, digits[:, j]] = accuracies
        w = np.zeros((slot.radix, slot.radix))
        for c_a in range(slot.radix):
            for c_b in range(c_a + 1, slot.radix):
                both = ~np.isnan(table[:, c_a]) & ~np.isnan(table[:, c_b])
                x, y = table[both, c_a], table[both, c_b]
                weight = mode.fallback_weight
                if len(x) >= mode.min_pairs and x.std() > 0 and y.std() > 0:
                    r = float(np.corrcoef(x, y)[0, 1])
                    weight = min(1.0, max(mode.floor, r))
                w[c_a, c_b] = w[c_b, c_a] = weight
        weights.append(w)
    return weights


def _kronecker_sum(weights: Sequence[np.ndarray]) -> sp.csr_matrix:
    """``A + I``: the Kronecker sum of the zero-diagonal per-slot matrices,
    the first slot most significant, plus the identity, as canonical CSR.

    Every row has its diagonal and one entry per other choice of each slot,
    so the sum is folded as a (nodes, degree + 1) table of sorted columns,
    from the 1x1 identity and the last slot, as ``kronsum(P, W) = I (x) P +
    W (x) I`` does: row ``a*m + i`` holds ``b*m + i`` for each ``b < a``, then
    row ``i`` of the previous table plus ``a*m`` (its diagonal 1 included),
    then ``b*m + i`` for each ``b > a``, with the values ``W[a, b]``.
    """
    n = math.prod(len(w) for w in weights)
    width = 1 + sum(len(w) - 1 for w in weights)
    index_dtype = np.int32 if n * width < 2**31 else np.int64
    columns = np.zeros((1, 1), index_dtype)  # the graph with no slots: one self-looped node
    values = np.ones((1, 1))
    for w in reversed(weights):
        radix, m = len(w), len(columns)
        own = np.arange(m, dtype=index_dtype)[:, None]
        step = np.arange(radix, dtype=index_dtype) * m
        next_columns = np.empty((radix, m, columns.shape[1] + radix - 1), index_dtype)
        next_values = np.empty(next_columns.shape)
        for a in range(radix):
            hi = a + columns.shape[1]
            np.add(own, step[:a], out=next_columns[a, :, :a])
            np.add(columns, step[a], out=next_columns[a, :, a:hi])
            np.add(own, step[a + 1 :], out=next_columns[a, :, hi:])
            next_values[a, :, :a] = w[a, :a]
            next_values[a, :, a:hi] = values
            next_values[a, :, hi:] = w[a, a + 1 :]
        columns = next_columns.reshape(radix * m, -1)
        values = next_values.reshape(radix * m, -1)
    indptr = width * np.arange(n + 1, dtype=index_dtype)
    return sp.csr_matrix((values.ravel(), columns.ravel(), indptr), shape=(n, n))


def build_graph(
    subspace: Subspace,
    mode: SimilarityMode = AssignedSimilarity(),
    samples: tuple[np.ndarray, np.ndarray] | None = None,
) -> ArchGraph:
    """Construct the Hamming-1 graph of a subspace.

    Edges link every pair of nodes differing in exactly one searchable
    position; weights follow ``mode``, measured ones from ``samples``, the
    (digit rows, accuracies) of evaluated nodes. The graph is the Cartesian
    product of one weighted complete graph per slot, so it keeps just the
    per-slot similarity matrices, which define every edge, and the choices
    of each node's materialized architecture, which define its features.
    """
    n = subspace.node_count
    check_graph_size(n)
    if isinstance(mode, MeasuredSimilarity):
        if samples is None:
            raise ValueError("measured similarity requires evaluation records")
        weights = measured_similarity(*samples, subspace, mode)
    else:
        weights = [mode.weight * (1 - np.eye(slot.radix)) for slot in subspace.slots]

    spec = subspace.spec
    choice_dtype = np.min_scalar_type(spec.choices_per_layer - 1)
    choice_matrix = subspace.choices(subspace.digits(np.arange(n))).astype(choice_dtype)
    return ArchGraph(subspace, n, weights, choice_matrix)


def normalize_adjacency(graph: ArchGraph, dtype: np.dtype = np.float64) -> sp.csr_matrix:
    """Symmetric renormalization with self-loops:
    D^(-1/2) (A + I) D^(-1/2), D = diagonal of row sums of A + I.

    ``A + I`` is folded from the per-slot weights and scaled in float64, then
    cast to ``dtype``; the result is cached on the graph in that dtype alone.
    """
    if graph.normalized is None or graph.normalized.dtype != dtype:
        n = graph.num_nodes
        a_tilde = _kronecker_sum(graph.slot_weights)
        inv_sqrt = 1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1)).ravel())
        # rows, then columns, in place by SciPy's own kernels: the roundings
        # of D^(-1/2) applied on each side, with no entry-sized temporary
        arrays = (a_tilde.indptr, a_tilde.indices, a_tilde.data, inv_sqrt)
        _sparsetools.csr_scale_rows(n, n, *arrays)
        _sparsetools.csr_scale_columns(n, n, *arrays)
        a_tilde.data = a_tilde.data.astype(dtype, copy=False)
        graph.normalized, graph.propagated = a_tilde, None
    return graph.normalized


def node_architecture(graph: ArchGraph, index: int) -> Architecture:
    """Materialized architecture of one node."""
    return Architecture(tuple(int(c) for c in graph.choice_matrix[index]))
