"""Per-round architecture graphs.

Nodes enumerate every slot-digit row of a subspace in mixed-radix order; an
undirected edge joins two nodes iff their architectures differ at exactly one
searchable position (a super-cell counts as one position). Edge weights come
from either a fixed assigned similarity or a measured, correlation-based
one, as one similarity matrix per slot; the adjacency is their Kronecker
sum. The GCN consumes the symmetric renormalized adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, Union

import numpy as np
import scipy.sparse as sp

from .search_space import Architecture, Subspace, gray_code_table

#: node cap; larger graphs are rejected before anything is allocated
MAX_GRAPH_NODES = 6**7

ASSIGNED_WEIGHT = math.exp(-0.5)


@dataclass(frozen=True)
class AssignedSimilarity:
    """Every Hamming-1 edge carries the same fixed weight."""

    weight: float = ASSIGNED_WEIGHT

    def __post_init__(self) -> None:
        if self.weight <= 0:
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


SimilarityMode = Union[AssignedSimilarity, MeasuredSimilarity]


@dataclass
class ArchGraph:
    """Graph over all nodes of a subspace.

    ``adjacency`` stores both directions of each undirected edge;
    ``features`` holds the Gray code of each node's fully materialized
    architecture (fixed cells included as constant bits); ``choice_matrix``
    keeps the materialized per-layer choices for cost and oracle lookups.
    Instances are immutable once built; ``normalized`` is filled at most once,
    ``model_inputs`` at most once per model dtype, with (A_hat, A_hat @ X).
    """

    subspace: Subspace
    num_nodes: int
    adjacency: sp.csr_matrix
    features: np.ndarray
    choice_matrix: np.ndarray
    normalized: sp.csr_matrix | None = None
    model_inputs: dict[np.dtype, tuple[sp.csr_matrix, np.ndarray]] = field(default_factory=dict)


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


def build_graph(
    subspace: Subspace,
    mode: SimilarityMode = AssignedSimilarity(),
    samples: tuple[np.ndarray, np.ndarray] | None = None,
) -> ArchGraph:
    """Construct the Hamming-1 graph of a subspace.

    Edges link every pair of nodes differing in exactly one searchable
    position; weights follow ``mode``, measured ones from ``samples``, the
    (digit rows, accuracies) of evaluated nodes. The graph is the Cartesian
    product of one weighted complete graph per slot, so its adjacency is the
    Kronecker sum of the per-slot similarity matrices. Node features are the
    Gray codes of the materialized architectures.
    """
    n = subspace.node_count
    if n > MAX_GRAPH_NODES:
        raise ValueError(f"subspace has {n} nodes, exceeding the cap of {MAX_GRAPH_NODES}")
    if isinstance(mode, MeasuredSimilarity):
        if samples is None:
            raise ValueError("measured similarity requires evaluation records")
        weights = measured_similarity(*samples, subspace, mode)
    else:
        weights = [mode.weight * (1 - np.eye(slot.radix)) for slot in subspace.slots]

    # kronsum(A, W) = I (x) A + W (x) I puts W on the more significant digit,
    # so fold from the last slot; the 1x1 start is the graph with no slots
    adjacency = sp.csr_matrix((1, 1))
    for w in reversed(weights):
        adjacency = sp.kronsum(adjacency, w, format="csr")

    spec = subspace.spec
    choice_matrix = subspace.choices(subspace.digits(np.arange(n)))
    gray = gray_code_table(spec.choices_per_layer, spec.bits_per_cell).astype(np.float32)
    features = gray[choice_matrix].reshape(n, spec.feature_dim)
    return ArchGraph(subspace, n, adjacency, features, choice_matrix)


def normalize_adjacency(graph: ArchGraph) -> sp.csr_matrix:
    """Symmetric renormalization with self-loops:
    D^(-1/2) (A + I) D^(-1/2), D = diagonal of row sums of A + I.

    The result is cached on the graph.
    """
    if graph.normalized is None:
        a_tilde = (graph.adjacency + sp.eye(graph.num_nodes, format="csr")).tocsr()
        inv_sqrt = 1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1)).ravel())
        # rows, then columns, in place: the roundings of D^(-1/2) applied on each side
        a_tilde.data *= np.repeat(inv_sqrt, np.diff(a_tilde.indptr))
        a_tilde.data *= inv_sqrt[a_tilde.indices]
        graph.normalized = a_tilde
    return graph.normalized


def node_architecture(graph: ArchGraph, index: int) -> Architecture:
    """Materialized architecture of one node."""
    return Architecture(tuple(int(c) for c in graph.choice_matrix[index]))


def dump_graph(graph: ArchGraph, path_prefix: str | Path) -> tuple[Path, Path]:
    """Write the edge list as ``<prefix>.edges.txt`` ("u v w" per line,
    u < v, canonically ordered) and the feature matrix as a binary
    ``<prefix>.features.npy`` sidecar."""
    prefix = Path(path_prefix)
    edges_path = prefix.with_name(prefix.name + ".edges.txt")
    features_path = prefix.with_name(prefix.name + ".features.npy")
    # the upper triangle of a canonical CSR comes out in (u, v) order
    coo = sp.triu(graph.adjacency, k=1).tocoo()
    with edges_path.open("w", encoding="utf-8") as fh:
        for u, v, w in zip(coo.row, coo.col, coo.data):
            fh.write(f"{u} {v} {w:.9g}\n")
    np.save(features_path, graph.features)
    return edges_path, features_path
