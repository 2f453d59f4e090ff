"""Per-round architecture graphs.

Nodes enumerate every assignment of a subspace in mixed-radix order; an
undirected edge joins two nodes iff their architectures differ at exactly one
searchable position (a super-cell counts as one position). Edge weights come
from either a fixed assigned similarity or a measured, correlation-based
one. The GCN consumes the symmetric renormalized adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .search_space import Architecture, SlotKey, Subspace, gray_code_table

#: default node cap; larger graphs are rejected rather than built densely
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
    accuracies across sampled assignment pairs that differ only at the edge's
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
    """Graph over all assignments of a subspace.

    ``adjacency`` stores both directions of each undirected edge;
    ``features`` holds the Gray code of each node's fully materialized
    architecture (fixed cells included as constant bits); ``choice_matrix``
    keeps the materialized per-layer choices for cost and oracle lookups.
    Instances are immutable once built; ``normalized`` is filled at most once.
    """

    subspace: Subspace
    num_nodes: int
    adjacency: sp.csr_matrix
    features: np.ndarray
    choice_matrix: np.ndarray
    normalized: sp.csr_matrix | None = None


def node_index(subspace: Subspace, assignment: Mapping[SlotKey, int]) -> int:
    """Mixed-radix index of an assignment over the subspace's canonical slot
    order."""
    return subspace.index_of(subspace.digits_from_assignment(assignment))


def _digit_matrix(subspace: Subspace) -> np.ndarray:
    """(num_nodes, num_slots) slot digits of every node."""
    n = subspace.node_count
    idx = np.arange(n, dtype=np.int64)
    digits = np.empty((n, len(subspace.slots)), dtype=np.int64)
    for j, (slot, w) in enumerate(zip(subspace.slots, subspace._place_weights)):
        digits[:, j] = (idx // w) % slot.radix
    return digits


def _materialized_choices(subspace: Subspace, digits: np.ndarray) -> np.ndarray:
    """(num_nodes, L) per-layer choices of every node's full architecture."""
    n = len(digits)
    L = subspace.spec.num_layers
    choices = np.empty((n, L), dtype=np.int64)
    for pos, c in subspace.fixed.items():
        choices[:, pos] = c
    for j, slot in enumerate(subspace.slots):
        if slot.super_cell is None:
            choices[:, slot.key] = digits[:, j]
        else:
            cand = np.asarray(slot.super_cell.candidates, dtype=np.int64)
            choices[:, slot.super_cell.positions] = cand[digits[:, j]]
    return choices


def measured_similarity(
    samples: Sequence[tuple[Mapping[SlotKey, int], float]],
    subspace: Subspace,
    mode: MeasuredSimilarity = MeasuredSimilarity(),
) -> dict[tuple[SlotKey, int, int], float]:
    """Per-(position, choice pair) similarity from evaluation records.

    For every searchable position and unordered choice pair, collects the
    accuracies of sampled assignment pairs identical everywhere else and
    takes their Pearson correlation, clamped to [floor, 1]. Pairs with fewer
    than ``min_pairs`` observations (or degenerate variance) fall back to the
    assigned weight.
    """
    if not samples:
        raise ValueError("measured similarity needs at least one evaluation record")
    digit_rows = [subspace.digits_from_assignment(a) for a, _ in samples]
    accs = [float(acc) for _, acc in samples]
    slots = subspace.slots

    table: dict[tuple[SlotKey, int, int], float] = {}
    for j, slot in enumerate(slots):
        groups: dict[tuple[int, ...], dict[int, float]] = {}
        for row, acc in zip(digit_rows, accs):
            key = row[:j] + row[j + 1 :]
            groups.setdefault(key, {})[row[j]] = acc
        for c_a in range(slot.radix):
            for c_b in range(c_a + 1, slot.radix):
                xs, ys = [], []
                for by_choice in groups.values():
                    if c_a in by_choice and c_b in by_choice:
                        xs.append(by_choice[c_a])
                        ys.append(by_choice[c_b])
                weight = mode.fallback_weight
                if len(xs) >= mode.min_pairs:
                    x = np.asarray(xs)
                    y = np.asarray(ys)
                    if x.std() > 0 and y.std() > 0:
                        r = float(np.corrcoef(x, y)[0, 1])
                        weight = min(1.0, max(mode.floor, r))
                table[(slot.key, c_a, c_b)] = weight
    return table


def build_graph(
    subspace: Subspace,
    mode: SimilarityMode = AssignedSimilarity(),
    samples: Sequence[tuple[Mapping[SlotKey, int], float]] | None = None,
    max_nodes: int = MAX_GRAPH_NODES,
) -> ArchGraph:
    """Construct the Hamming-1 graph of a subspace.

    Edges link every pair of assignments differing in exactly one searchable
    position; weights follow ``mode``. Node features are the Gray codes of
    the materialized architectures.
    """
    n = subspace.node_count
    if n > max_nodes:
        raise ValueError(f"subspace has {n} nodes, exceeding the configured cap of {max_nodes}")
    if isinstance(mode, MeasuredSimilarity):
        if samples is None:
            raise ValueError("measured similarity requires evaluation records")
        weight_table = measured_similarity(samples, subspace, mode)
    else:
        weight_table = None

    digits = _digit_matrix(subspace)
    idx = np.arange(n, dtype=np.int64)
    rows, cols, weights = [], [], []
    for j, (slot, w) in enumerate(zip(subspace.slots, subspace._place_weights)):
        column = digits[:, j]
        for c_a in range(slot.radix):
            src = idx[column == c_a]
            for c_b in range(c_a + 1, slot.radix):
                dst = src + (c_b - c_a) * w
                if weight_table is None:
                    weight = mode.weight  # type: ignore[union-attr]
                else:
                    weight = weight_table[(slot.key, c_a, c_b)]
                rows.append(src)
                cols.append(dst)
                weights.append(np.full(len(src), weight, dtype=np.float64))

    if rows:
        u = np.concatenate(rows)
        v = np.concatenate(cols)
        wv = np.concatenate(weights)
        # store both directions; csr construction orders indices canonically
        adjacency = sp.csr_matrix(
            (np.concatenate([wv, wv]), (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(n, n),
        )
    else:
        adjacency = sp.csr_matrix((n, n), dtype=np.float64)

    spec = subspace.spec
    choice_matrix = _materialized_choices(subspace, digits)
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
        degree = np.asarray(a_tilde.sum(axis=1)).ravel()
        inv_sqrt = 1.0 / np.sqrt(degree)
        normalized = a_tilde.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :])
        graph.normalized = normalized.tocsr()
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
    coo = sp.triu(graph.adjacency, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    with edges_path.open("w", encoding="utf-8") as fh:
        for u, v, w in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{u} {v} {w:.9g}\n")
    np.save(features_path, graph.features)
    return edges_path, features_path
