"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from typing import Any, Sequence

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings
from hypothesis import strategies as st
from scipy.sparse import _sparsetools

from gcnas import arch_graph, cli
from gcnas.arch_graph import (
    ArchGraph,
    AssignedSimilarity,
    NormalizedAdjacency,
    build_graph,
    feature_basis,
)
from gcnas.evaluator import Evaluator, GroundTruthParams
from gcnas.gcn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    GcnConfig,
    GcnModel,
    _model_inputs,
    _Workspace,
    init_model,
    learning_rate_at,
)
from gcnas.search_engine import RoundReport, SearchConfig, iter_search_rounds
from gcnas.search_space import (
    Architecture,
    SearchSpaceSpec,
    SegmentPlan,
    Subspace,
    SuperCell,
    gray_code_table,
)

# a failing example prints the blob that replays it (``@reproduce_failure``)
settings.register_profile("gcnas", print_blob=True)
settings.load_profile("gcnas")

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
    O = truth.choices_per_layer
    v = np.random.default_rng(truth.interaction_seed).uniform(-1.0, 1.0, (L, L, O, O))
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
            digits.append(slot.candidates.index(picked))
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


def slot_matrices(graph: ArchGraph) -> list[np.ndarray]:
    """Each slot's zero-diagonal similarity matrix, ``w (1 - I)``."""
    return [graph.weight * (1 - np.eye(radix)) for radix in graph.radices]


def kronecker_sum_reference(weights: Sequence[np.ndarray]) -> sp.csr_matrix:
    """The Kronecker sum of the per-slot matrices folded from the last slot
    with ``sp.kronsum``, which puts each new slot on the more significant
    digit; the 1x1 start is the graph with no slots. The reference for the
    rows of ``A + I`` that the graph's operator generates."""
    adjacency = sp.csr_matrix((1, 1))
    for w in reversed(weights):
        adjacency = sp.kronsum(adjacency, w, format="csr")
    return adjacency


def normalize_reference(adjacency: sp.csr_matrix) -> sp.csr_matrix:
    """D^(-1/2) (A + I) D^(-1/2) by two broadcast multiplies; the reference
    for the in-place scaling in normalize_adjacency."""
    a_tilde = (adjacency + sp.eye(adjacency.shape[0], format="csr")).tocsr()
    inv_sqrt = 1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1)).ravel())
    return a_tilde.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :]).tocsr()


def a_hat_reference(graph: ArchGraph, dtype: np.dtype = np.float64) -> sp.csr_matrix:
    """A_hat as one CSR matrix: ``A + I`` folded from the per-slot matrices
    by ``sp.kronsum`` (``kronecker_sum_reference``), its rows then its
    columns scaled in place by SciPy's own kernels with
    ``1 / sqrt(a_tilde.sum(axis=1))`` in float64, then cast to ``dtype``; the
    reference for the rows the graph's operator generates, and for their
    products."""
    n = graph.num_nodes
    a_tilde = kronecker_sum_reference(slot_matrices(graph)) + sp.eye(n, format="csr")
    arrays = (a_tilde.indptr, a_tilde.indices, a_tilde.data, inv_sqrt_reference(a_tilde))
    _sparsetools.csr_scale_rows(n, n, *arrays)
    _sparsetools.csr_scale_columns(n, n, *arrays)
    a_tilde.data = a_tilde.data.astype(dtype, copy=False)
    return a_tilde


def every_row(a_hat: NormalizedAdjacency) -> sp.csr_matrix:
    """Every row of the operator, generated as one CSR matrix."""
    return a_hat.rows(np.arange(a_hat.shape[0]))


def inv_sqrt_reference(a_tilde: sp.csr_matrix) -> np.ndarray:
    """``D^(-1/2)`` from SciPy's row sums of ``A + I``."""
    return 1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1)).ravel())


def model_inputs_reference(
    graph: ArchGraph, dtype: np.dtype
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """``(A_hat, A_hat @ Z, M)`` with ``a_hat_reference`` as A_hat and
    SciPy's product; the reference for ``gcn._model_inputs``."""
    a_hat = a_hat_reference(graph, dtype)
    basis, coefficients = feature_basis(graph, dtype)
    return a_hat, a_hat @ basis, coefficients


def random_graph(sub: Subspace, rng: np.random.Generator) -> ArchGraph:
    """The graph of ``sub`` with a random edge weight."""
    return build_graph(sub, AssignedSimilarity(rng.uniform(0.1, 1.0)))


def block_radices_reference(radices: Sequence[int], cap: int) -> list[int]:
    """The radices of the trailing slots one block of generated rows spans,
    the last slot's first: the most whose product is at most ``cap``, and at
    least one if there is a slot."""
    inner: list[int] = []
    for radix in reversed(radices):
        if inner and math.prod(inner) * radix > cap:
            break
        inner.append(radix)
    return inner


def block_table_bytes(graph: ArchGraph, dtype) -> int:
    """The bytes one block of A_hat's rows may hold while it is generated:
    the inner slots' fold twice over (its last step and the one before),
    with a column index and a float64 value per entry, and the block's
    columns, entries, float64 values and gathered D^(-1/2)."""
    inner = block_radices_reference(graph.radices, arch_graph.BLOCK_ROWS)
    rows, index = math.prod(inner), np.dtype(np.int32).itemsize
    fold = rows * (1 + sum(r - 1 for r in inner))
    width = 1 + sum(r - 1 for r in graph.radices)
    return 2 * fold * (index + 8) + rows * width * (index + np.dtype(dtype).itemsize + 16)


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


def forward_reference(
    a_hat: sp.csr_matrix, propagated_input: np.ndarray, coefficients: np.ndarray, model: GcnModel
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The GCN forward pass over every node with a fresh array per product,
    the first layer as ``(A_hat Z)(M W)`` from the propagated basis and its
    coefficients, each layer past it as ``(A_hat H) W``: the output and
    every layer's post-relu activations; the reference for the workspace
    pass in gcnas.gcn. With the features as the basis and the identity as
    the coefficients, it is the plain ``(A_hat X) W`` form."""
    activations: list[np.ndarray] = []
    h = np.maximum(propagated_input @ (coefficients @ model.layer_weights[0]), 0)
    activations.append(h)
    for w in model.layer_weights[1:]:
        h = np.maximum((a_hat @ h) @ w, 0)
        activations.append(h)
    out = a_hat @ (h @ model.head) + model.bias[0]
    return out, activations


def gradients_reference(
    a_hat: sp.csr_matrix,
    propagated_input: np.ndarray,
    coefficients: np.ndarray,
    model: GcnModel,
    activations: list[np.ndarray],
    out_grad: np.ndarray,
    weight_decay: float,
) -> list[np.ndarray]:
    """Hand-derived gradients over every node with a fresh array per
    product, ordered like ``model.params()``."""
    u = a_hat.T @ out_grad
    g_head = activations[-1].T @ u + weight_decay * model.head
    g_bias = np.array([out_grad.sum()], dtype=model.bias.dtype)
    d_h = np.outer(u, model.head)
    grads_w: list[np.ndarray] = [np.empty(0)] * len(model.layer_weights)
    for layer in range(len(model.layer_weights) - 1, -1, -1):
        d_z = d_h * (activations[layer] > 0)
        if layer == 0:
            g_w = coefficients.T @ (propagated_input.T @ d_z)
        else:
            g_w = (a_hat @ activations[layer - 1]).T @ d_z
            d_h = a_hat.T @ (d_z @ model.layer_weights[layer].T)
        grads_w[layer] = g_w + weight_decay * model.layer_weights[layer]
    return [*grads_w, g_head, g_bias]


def train_reference(graph, labels, config: GcnConfig, seed: int) -> tuple[GcnModel, list[float]]:
    """Full-batch Adam on the mean absolute error, every epoch allocating its
    own arrays; the reference for gcnas.gcn.train."""
    dtype = np.dtype(config.dtype)
    idx = np.asarray(labels[0], dtype=np.int64)
    y = np.asarray(labels[1], dtype=dtype)
    a_hat, propagated, coefficients = model_inputs_reference(graph, dtype)
    model = init_model(graph.subspace.spec.feature_dim, config, seed)
    model.bias[0] = y.mean()
    params = model.params()
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]
    inv_n = dtype.type(1.0 / len(idx))
    losses: list[float] = []
    for epoch in range(config.epochs):
        out, activations = forward_reference(a_hat, propagated, coefficients, model)
        residual = out[idx] - y
        losses.append(float(np.abs(residual).mean()))
        out_grad = np.zeros(len(out), dtype=dtype)
        np.add.at(out_grad, idx, np.sign(residual) * inv_n)
        grads = gradients_reference(
            a_hat, propagated, coefficients, model, activations, out_grad, config.weight_decay
        )
        lr = learning_rate_at(epoch, config)
        bias_fix1 = 1.0 - ADAM_BETA1 ** (epoch + 1)
        bias_fix2 = 1.0 - ADAM_BETA2 ** (epoch + 1)
        for p, g, m1, m2 in zip(params, grads, moment1, moment2):
            m1 *= ADAM_BETA1
            m1 += (1 - ADAM_BETA1) * g
            m2 *= ADAM_BETA2
            m2 += (1 - ADAM_BETA2) * g * g
            p -= lr * (m1 / bias_fix1) / (np.sqrt(m2 / bias_fix2) + ADAM_EPS)
    return model, losses


def loss_and_gradients(
    graph: ArchGraph,
    model: GcnModel,
    node_indices: Sequence[int],
    targets: Sequence[float],
    weight_decay: float = 0.0,
) -> tuple[float, list[np.ndarray]]:
    """Mean absolute error over the labeled nodes and its (sub)gradients,
    computed by the same step that ``gcnas.gcn.train`` takes every epoch.

    The returned loss excludes the decay term; the returned gradients include
    it (0.5 * weight_decay * ||W||^2 per weight array, bias excluded).
    """
    dtype = model.layer_weights[0].dtype
    rows, label_rows = np.unique(np.asarray(node_indices, dtype=np.int64), return_inverse=True)
    y = np.asarray(targets, dtype=dtype)
    workspace = _Workspace(*_model_inputs(graph, dtype), model, rows)
    return workspace.step(label_rows, y, weight_decay)


def _fields(obj: Any, skip: Sequence[str] = ()) -> dict[str, Any]:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in skip}


def config_digest_reference(raw: dict) -> str:
    """``config_sha256`` of a raw config, its record rebuilt from the fields of
    the parsed objects, with the one similarity mode; the reference for the
    record ``parse_config`` builds from the values its section readers
    returned. The simulator and cost-model sections come from their readers,
    whose values the objects do not keep."""
    config = cli.parse_config(raw)
    search = config.search
    _, simulator = cli._parse_simulator(
        raw.get("simulator", {}), config.space, config.seed, "$.simulator"
    )
    _, cost_model = cli._parse_cost_model(raw.get("cost_model"), config.space, "$.cost_model")
    record = {
        "seed": config.seed,
        "search_space": _fields(config.space),
        "plan": [len(seg) for seg in config.plan.segments],
        "initial_architecture": config.initial_architecture.to_text(),
        "search": _fields(search, ("similarity", "gcn", "seed"))
        | {"similarity": {"mode": "assigned"} | _fields(search.similarity),
           "gcn": _fields(search.gcn)},
        "simulator": simulator,
        "cost_model": cost_model,
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def final_and_reports(
    spec: SearchSpaceSpec, plan: SegmentPlan, evaluator: Evaluator, config: SearchConfig
) -> tuple[Architecture, list[RoundReport]]:
    """A whole search through the driver: the last round's re-verified top-1
    architecture and every round's report."""
    reports = [result.report for result in iter_search_rounds(spec, plan, evaluator, config)]
    return reports[-1].best_selected.architecture, reports


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240601)
