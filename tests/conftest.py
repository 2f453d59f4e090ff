"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

from gcnas.evaluator import GroundTruthParams, _interaction_table
from gcnas.search_space import (
    Architecture,
    SearchSpaceSpec,
    Subspace,
    SuperCell,
    gray_code_table,
)

# Published 8-architecture comparison table: ground-truth accuracy vs the
# same sub-networks sampled from two super-network snapshots.
ACC_TRUE = (85.78, 85.76, 85.59, 85.48, 85.32, 85.28, 84.98, 84.60)
ACC_SNAPSHOT_A = (81.59, 81.56, 81.73, 81.95, 81.70, 81.64, 81.60, 81.53)
ACC_SNAPSHOT_B = (81.20, 81.41, 81.55, 81.67, 81.37, 81.15, 81.58, 81.46)
TAU_TRUE_VS_A = 0.2143
TAU_TRUE_VS_B = -0.1429


def tau_brute(a, b) -> float:
    """O(n^2) tau-b by direct pair counting; the reference for kendall_tau."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    num = 0
    ties_a = 0
    ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = np.sign(a[i] - a[j])
            sb = np.sign(b[i] - b[j])
            num += sa * sb
            if sa == 0:
                ties_a += 1
            if sb == 0:
                ties_b += 1
    n0 = n * (n - 1) / 2
    denom = np.sqrt((n0 - ties_a) * (n0 - ties_b))
    return float(num / denom)


def tau_pairs(a, b) -> float:
    """Vectorised O(n^2) tau-b by pair counting in exact integers; a
    reference for kendall_tau at sizes where tau_brute is too slow."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    sa = np.sign(a[:, None] - a[None, :])[upper]
    sb = np.sign(b[:, None] - b[None, :])[upper]
    num = int((sa * sb).sum())
    n0 = n * (n - 1) // 2
    ties_a = int((sa == 0).sum())
    ties_b = int((sb == 0).sum())
    return num / math.sqrt((n0 - ties_a) * (n0 - ties_b))


def merge_count_inversions_reference(y: np.ndarray) -> tuple[int, np.ndarray]:
    """Pairs (i < j) with y[i] > y[j], by merge counting down to single
    items; the reference for the blocked count in gcnas.metrics."""
    n = len(y)
    if n < 2:
        return 0, y
    mid = n // 2
    inv_l, left = merge_count_inversions_reference(y[:mid])
    inv_r, right = merge_count_inversions_reference(y[mid:])
    pos = np.searchsorted(left, right, side="right")
    cross = int(left.size * right.size - pos.sum())
    return inv_l + inv_r + cross, np.sort(np.concatenate([left, right]), kind="mergesort")


def sample_architectures_reference(spec: SearchSpaceSpec, n: int, seed: int) -> list[Architecture]:
    """n distinct architectures by a set-of-tuples rejection loop over
    batches of n uniform rows; the reference for sample_architectures."""
    rng = np.random.default_rng(seed)
    seen: set[tuple[int, ...]] = set()
    out: list[Architecture] = []
    while len(out) < n:
        batch = rng.integers(0, spec.choices_per_layer, (n, spec.num_layers))
        for row in batch:
            key = tuple(int(x) for x in row)
            if key not in seen:
                seen.add(key)
                out.append(Architecture(key))
                if len(out) == n:
                    break
    return out


def ground_truth_reference(choice_matrix: np.ndarray, truth: GroundTruthParams) -> np.ndarray:
    """Ground truth summed one pairwise term at a time, in the same order as
    gcnas.evaluator.ground_truth_many."""
    c = np.asarray(choice_matrix, dtype=np.int64)
    L = truth.num_layers
    z = truth.base + truth.cell_utility[np.arange(L), c].sum(axis=1)
    v = _interaction_table(truth)
    for l in range(L):
        for lp in range(l + 1, L):
            z = z + truth.pair_strength * v[l, lp][c[:, l], c[:, lp]]
    return np.clip(z, 0.0, 1.0)


def regression_score_reference(pred, target) -> float:
    """1 - SS_res / SS_tot of the least-squares line of target on pred; the
    reference for the squared correlation in regression_score."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    slope = float(((p - p.mean()) * (t - t.mean())).sum()) / float(((p - p.mean()) ** 2).sum())
    residual = t - (slope * p + (t.mean() - slope * p.mean()))
    return 1.0 - float((residual**2).sum()) / float(((t - t.mean()) ** 2).sum())


def gray_encode(arch: Architecture, spec: SearchSpaceSpec) -> np.ndarray:
    """Gray-code bit vector of one architecture, one ``bits_per_cell`` block
    per cell in layer order; the reference for the graph's feature rows."""
    spec.validate_architecture(arch)
    table = gray_code_table(spec.choices_per_layer, spec.bits_per_cell)
    return table[np.asarray(arch.choices, dtype=np.int64)].reshape(-1)


def cell_hamming(a: Architecture, b: Architecture) -> int:
    """Number of cells at which two architectures pick different choices."""
    if len(a.choices) != len(b.choices):
        raise ValueError(f"length mismatch: {len(a.choices)} vs {len(b.choices)}")
    return sum(x != y for x, y in zip(a.choices, b.choices))


def _slots_reference(subspace: Subspace) -> list[tuple[int, int, SuperCell | None]]:
    """(leading layer, radix, super-cell or None) of each slot in canonical
    order, read from the free cells and super-cells, not from ``slots``."""
    O = subspace.spec.choices_per_layer
    slots = [(p, O, None) for p in subspace.free_positions]
    slots += [(sc.positions[0], len(sc.candidates), sc) for sc in subspace.super_cells]
    return sorted(slots, key=lambda s: s[0])


def _place_weights_reference(subspace: Subspace) -> list[int]:
    slots = _slots_reference(subspace)
    weights = [1] * len(slots)
    for j in range(len(slots) - 2, -1, -1):
        weights[j] = weights[j + 1] * slots[j + 1][1]
    return weights


def digits_of_reference(subspace: Subspace, index: int) -> tuple[int, ...]:
    """Slot digits of one node id, one slot at a time; the reference for
    ``Subspace.digits``."""
    slots = _slots_reference(subspace)
    if not 0 <= index < math.prod(radix for _, radix, _ in slots):
        raise ValueError(f"node index {index} is outside the subspace")
    weights = _place_weights_reference(subspace)
    return tuple((index // w) % radix for (_, radix, _), w in zip(slots, weights))


def index_of_reference(subspace: Subspace, digits) -> int:
    """Node id of one full digit row; the reference for ``Subspace.index``."""
    index = 0
    weights = _place_weights_reference(subspace)
    for (_, radix, _), w, d in zip(_slots_reference(subspace), weights, digits, strict=True):
        if not 0 <= d < radix:
            raise ValueError(f"digit {d} is outside [0, {radix})")
        index += int(d) * w
    return index


def materialize_reference(subspace: Subspace, digits) -> tuple[int, ...]:
    """Per-layer choices of one digit row: fixed choices copied, free digits
    inserted, super-cell digits expanded to their candidate; the reference
    for ``Subspace.choices``."""
    choices: list[int | None] = [None] * subspace.spec.num_layers
    for pos, c in subspace.fixed.items():
        choices[pos] = c
    for (lead, _, sc), d in zip(_slots_reference(subspace), digits, strict=True):
        if sc is None:
            choices[lead] = int(d)
        else:
            for pos, c in zip(sc.positions, sc.candidates[d]):
                choices[pos] = c
    return tuple(choices)  # type: ignore[arg-type]


def measured_similarity_reference(digits, accuracies, subspace: Subspace, mode) -> list[np.ndarray]:
    """Per-slot similarity matrices with records grouped in dicts keyed by
    the other slots' digits, in first-seen order, a repeated row keeping its
    last accuracy; the reference for ``measured_similarity``."""
    rows = [tuple(int(d) for d in row) for row in digits]
    accs = [float(acc) for acc in accuracies]
    weights = []
    for j, (_, radix, _) in enumerate(_slots_reference(subspace)):
        groups: dict[tuple[int, ...], dict[int, float]] = {}
        for row, acc in zip(rows, accs):
            groups.setdefault(row[:j] + row[j + 1 :], {})[row[j]] = acc
        w = np.zeros((radix, radix))
        for c_a in range(radix):
            for c_b in range(c_a + 1, radix):
                pairs = [(g[c_a], g[c_b]) for g in groups.values() if c_a in g and c_b in g]
                weight = mode.fallback_weight
                if len(pairs) >= mode.min_pairs:
                    x = np.asarray([p[0] for p in pairs])
                    y = np.asarray([p[1] for p in pairs])
                    if x.std() > 0 and y.std() > 0:
                        weight = min(1.0, max(mode.floor, float(np.corrcoef(x, y)[0, 1])))
                w[c_a, c_b] = w[c_b, c_a] = weight
        weights.append(w)
    return weights


def extract_digits(subspace: Subspace, arch: Architecture) -> tuple[int, ...]:
    """Inverse of ``materialize`` for architectures consistent with the
    subspace; raises if the architecture contradicts fixed cells or picks
    choices no option of a slot provides."""
    subspace.spec.validate_architecture(arch)
    for pos, c in subspace.fixed.items():
        if arch.choices[pos] != c:
            raise ValueError(f"architecture choice {arch.choices[pos]} at fixed cell {pos} != {c}")
    digits = []
    for slot in subspace.slots:
        picked = tuple(arch.choices[p] for p in slot.positions)
        try:
            digits.append(slot.options.index(picked))
        except ValueError:
            raise ValueError(f"choices {picked} at cells {slot.positions} match no option") from None
    return tuple(digits)


@st.composite
def subspaces(draw):
    """Random specs (L 1-5, O 2-5) split into free, fixed and at most one
    super-cell with K >= 1 distinct candidates."""
    L = draw(st.integers(1, 5))
    O = draw(st.integers(2, 5))
    roles = draw(st.lists(st.sampled_from(("free", "fixed", "super")), min_size=L, max_size=L))
    free = tuple(p for p, role in enumerate(roles) if role == "free")
    fixed = {p: draw(st.integers(0, O - 1)) for p, role in enumerate(roles) if role == "fixed"}
    positions = tuple(p for p, role in enumerate(roles) if role == "super")
    super_cells = ()
    if positions:
        pool = list(itertools.product(range(O), repeat=len(positions)))
        k = draw(st.integers(1, min(len(pool), 8)))
        candidates = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k, unique=True))
        super_cells = (SuperCell(positions, tuple(candidates)),)
    return Subspace(SearchSpaceSpec(L, O), free, fixed, super_cells)


#: the single-node subspace with every layer fixed
ALL_FIXED = Subspace(SearchSpaceSpec(3, 4), (), {0: 1, 1: 0, 2: 3})


def hamming_adjacency_reference(subspace: Subspace, weight_of) -> sp.csr_matrix:
    """Hamming-1 adjacency written out as an edge list: for each slot and
    choice pair (c_a < c_b), every node at c_a links to the node at c_b with
    weight ``weight_of(j, c_a, c_b)``, stored in both directions; the
    reference for the Kronecker-sum construction in build_graph."""
    n = subspace.node_count
    idx = np.arange(n, dtype=np.int64)
    rows, cols, weights = [], [], []
    slots = _slots_reference(subspace)
    for j, ((_, radix, _), w) in enumerate(zip(slots, _place_weights_reference(subspace))):
        column = (idx // w) % radix
        for c_a in range(radix):
            src = idx[column == c_a]
            for c_b in range(c_a + 1, radix):
                rows.append(src)
                cols.append(src + (c_b - c_a) * w)
                weights.append(np.full(len(src), weight_of(j, c_a, c_b), dtype=np.float64))
    if not rows:
        return sp.csr_matrix((n, n), dtype=np.float64)
    u, v, wv = np.concatenate(rows), np.concatenate(cols), np.concatenate(weights)
    return sp.csr_matrix(
        (np.concatenate([wv, wv]), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(n, n),
    )


def normalize_reference(adjacency: sp.csr_matrix) -> sp.csr_matrix:
    """D^(-1/2) (A + I) D^(-1/2) by two broadcast multiplies; the reference
    for the in-place scaling in normalize_adjacency."""
    a_tilde = (adjacency + sp.eye(adjacency.shape[0], format="csr")).tocsr()
    inv_sqrt = 1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1)).ravel())
    return a_tilde.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :]).tocsr()


def power_iteration_largest_eigenvalue(matrix, iterations: int = 200, seed: int = 0) -> float:
    """Largest-magnitude eigenvalue of a symmetric operator by power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    value = 0.0
    for _ in range(iterations):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        value = float(v @ w)
        v = w / norm
    return value


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240601)
