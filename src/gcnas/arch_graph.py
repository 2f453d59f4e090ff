"""Per-round architecture graphs.

Nodes enumerate every slot-digit row of a subspace in mixed-radix order; an
undirected edge joins two nodes iff their architectures differ at exactly one
searchable position (a super-cell counts as one position). Every edge
carries one assigned weight, so the adjacency is the Kronecker sum of
``w (1 - I)`` over the slots, and the graph keeps just that weight and each
slot's number of choices. The GCN consumes the symmetric renormalized
adjacency as an operator that generates its rows, in blocks, from those and
``D^(-1/2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

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


@dataclass
class ArchGraph:
    """Graph over all nodes of a subspace.

    Fixed at build: ``radices``, each slot's number of choices, and
    ``weight``, the weight of every edge, which define the edges;
    ``choice_matrix``, the per-layer choices of each node's fully
    materialized architecture at ``np.min_scalar_type(O - 1)``, for
    cost and oracle lookups and for the node features. Caches filled after
    the build: ``normalized``, the A_hat operator in one dtype, which holds
    ``D^(-1/2)`` and generates rows on request, re-typed when asked for in
    another; ``propagated``, the pair ``(A_hat @ Z, M)`` of the
    ``feature_basis`` in that dtype; ``ranked_by`` the
    last model to rank the nodes with their order (descending prediction,
    stable), ``priced_by`` the last cost model with the cost per node. A
    model must not be mutated once it has ranked.
    """

    subspace: Subspace
    num_nodes: int
    radices: tuple[int, ...]
    weight: float
    choice_matrix: np.ndarray
    normalized: NormalizedAdjacency | None = None
    propagated: tuple[np.ndarray, np.ndarray] | None = None
    ranked_by: tuple[object, np.ndarray] | None = None
    priced_by: tuple[object, np.ndarray] | None = None

    @property
    def adjacency(self) -> sp.csr_matrix:
        """The raw adjacency, rebuilt on every call: for inspection only. It
        is the operator's generated rows at ``D = I``, each entry ``weight``."""
        ones = np.ones(self.num_nodes)
        a_tilde = NormalizedAdjacency(self.radices, self.weight, ones, np.float64)
        return a_tilde.rows(np.arange(self.num_nodes)) - sp.eye(self.num_nodes, format="csr")

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
    basis, coefficients = [], []  # per slot: its columns of Z and its rows of M
    for slot in graph.subspace.slots:
        columns = (np.array(slot.positions)[:, None] * bits + np.arange(bits)).ravel()
        slot_bits = gray[np.array(slot.candidates)].reshape(slot.radix, -1)
        varying = (slot_bits != slot_bits[0]).any(axis=0)
        constant[columns[~varying]], is_constant[columns[~varying]] = slot_bits[0, ~varying], True
        choices = graph.choice_matrix[:, slot.positions]
        if slot.radix < np.count_nonzero(varying):  # the one-hot of its digit
            basis.append(np.stack([(choices == c).all(axis=1) for c in slot.candidates], axis=1))
            m = np.zeros((slot.radix, spec.feature_dim), dtype)
            m[:, columns[varying]] = slot_bits[:, varying]
            coefficients.append(m)
        else:
            basis.append(gray[choices].reshape(len(choices), -1)[:, varying])
            coefficients.append(np.eye(spec.feature_dim, dtype=dtype)[columns[varying]])
    if is_constant.any():
        basis.append(np.ones((graph.num_nodes, 1), bool))
        coefficients.append(constant[None])
    # written into a C-ordered Z, as ``_propagate`` needs, whatever the parts' order
    z = np.empty((graph.num_nodes, sum(b.shape[1] for b in basis)), dtype)
    return np.concatenate(basis, axis=1, out=z), np.concatenate(coefficients)


def check_graph_size(n: int) -> None:
    """Raise if ``n`` nodes are past the node cap."""
    if n > MAX_GRAPH_NODES:
        raise ValueError(f"subspace has {n} nodes, exceeding the cap of {MAX_GRAPH_NODES}")


def node_index(subspace: Subspace, row: Sequence[int]) -> int:
    """Mixed-radix node id of one digit row."""
    return int(subspace.index(np.asarray(row)[None])[0])


def _fold(radices: Sequence[int], weight: float) -> tuple[np.ndarray, np.ndarray]:
    """``A + I`` for the Hamming-1 graph of slots of ``radices`` with edges of
    ``weight``, the first slot most significant, as (nodes, degree + 1)
    tables of each row's sorted columns and of their float64 values. It is
    built for the inner slots of a block of generated rows
    (``NormalizedAdjacency``), which for a graph of one block are all of
    them.

    Row ``i`` is ``i``'s closed neighbourhood: ``i``, and ``i`` with each
    slot's digit replaced by each of its other choices, sorted; each entry
    is ``weight`` but the diagonal's 1.
    """
    n = math.prod(radices)
    index_dtype = _index_dtype(n, 1 + sum(radix - 1 for radix in radices))
    own = np.arange(n, dtype=index_dtype)[:, None]
    columns, place = [own], n
    for digit, radix in zip(np.indices(radices, index_dtype).reshape(len(radices), n, 1), radices):
        place //= radix
        choice = np.arange(radix - 1, dtype=index_dtype)
        other = choice + (choice >= digit)  # every choice but the digit
        columns.append(own + (other - digit) * place)
    columns = np.concatenate(columns, axis=1)
    columns.sort(axis=1)
    return columns, np.where(columns == own, 1.0, weight)


def _index_dtype(n: int, width: int) -> type:
    """The column index type of an n-row table of ``width`` entries a row."""
    return np.int32 if n * width < 2**31 else np.int64


def _propagate(a: sp.csr_matrix | sp.csc_matrix, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ m`` written into ``out``, with the same bits: SciPy's own kernel
    for that product, CSR or CSC by the format of ``a``, which adds into its
    output, run on ``out`` zeroed. ``m`` is a vector or a matrix with one row
    per column of ``a``; ``out`` is C-contiguous, of ``a``'s dtype and the
    product's shape."""
    rows, cols = a.shape
    if not (
        m.dtype == out.dtype == a.dtype
        and m.shape[0] == cols
        and out.shape == (rows, *m.shape[1:])
        and out.flags.c_contiguous
    ):
        raise ValueError(
            f"cannot write a ({rows}, {cols}) {a.dtype} matrix times a {m.shape} {m.dtype} "
            f"array into a {out.shape} {out.dtype} buffer"
        )
    out.fill(0)
    if a.format == "csr":
        matvec, matvecs = _sparsetools.csr_matvec, _sparsetools.csr_matvecs
    else:
        matvec, matvecs = _sparsetools.csc_matvec, _sparsetools.csc_matvecs
    arrays = (a.indptr, a.indices, a.data)
    if m.ndim == 1 or m.shape[1] == 1:  # SciPy multiplies a one-column matrix as a vector
        matvec(rows, cols, *arrays, m.ravel(), out.ravel())
    else:
        matvecs(rows, cols, m.shape[1], *arrays, m.ravel(), out.ravel())
    return out


#: the most nodes whose rows of ``A_hat`` are generated as one block, unless
#: the last slot alone has more choices
BLOCK_ROWS = 2**13


def _inner_slots(radices: Sequence[int]) -> int:
    """How many trailing slots a block spans: the most whose radices multiply
    to at most ``BLOCK_ROWS``, and at least one if there is a slot."""
    rows, count = 1, 0
    for radix in reversed(radices):
        if count and rows * radix > BLOCK_ROWS:
            break
        rows, count = rows * radix, count + 1
    return count


@dataclass(frozen=True, eq=False)
class NormalizedAdjacency:
    """``A_hat = D^(-1/2) (A + I) D^(-1/2)`` of a graph in ``dtype``, held as
    the slot radices and the edge weight that define ``A + I`` and
    ``inv_sqrt``, the float64 ``D^(-1/2)``: its rows are generated on request
    and never stored.

    A row of ``A + I`` is a function of the node's slot digits (``_fold``):
    in column order, each slot's lower choices from the first slot on, the
    diagonal, then each slot's higher choices from the last slot back; every
    entry is ``weight`` but the diagonal's 1. So the diagonal sits at the
    node's digit sum, the sum of its slot digits, which alone fixes its
    degree: ``D^(-1/2)`` takes at most ``width`` values.

    Rows are generated in blocks of the nodes that share the digits of the
    outer slots, those before ``_inner_slots``. The inner slots' table
    (``_fold``) is built once per request and every block reads its rows
    from it, while each outer neighbour sits at a constant offset from its
    node throughout the block. An entry is ``(w * s_i) * s_j`` in float64,
    cast to ``dtype``: the bits of scaling the whole matrix's rows, then its
    columns, then casting it.
    """

    radices: tuple[int, ...]
    weight: float
    inv_sqrt: np.ndarray
    dtype: np.dtype

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.inv_sqrt), len(self.inv_sqrt)

    @property
    def width(self) -> int:
        """Entries per row: the degree and the self-loop."""
        return 1 + sum(radix - 1 for radix in self.radices)

    @property
    def nnz(self) -> int:
        return self.shape[0] * self.width

    @property
    def _index_dtype(self) -> type:
        return _index_dtype(self.shape[0], self.width)

    def astype(self, dtype: np.dtype) -> NormalizedAdjacency:
        """The operator in ``dtype``, sharing ``D^(-1/2)``."""
        return replace(self, dtype=np.dtype(dtype))

    def _inner_fold(self) -> tuple[np.ndarray, np.ndarray]:
        inner = self.radices[len(self.radices) - _inner_slots(self.radices) :]
        return _fold(inner, self.weight)

    def _blocks(self, ids: np.ndarray, rows: int):
        """``(positions, block, local)`` for each block of ``rows`` nodes that
        holds one of the sorted node ids ``ids``, in order: the positions of
        its ids in ``ids`` and their offsets in the block."""
        bounds = np.searchsorted(ids, rows * np.arange(self.shape[0] // rows + 1))
        for block in np.flatnonzero(np.diff(bounds)):
            positions = slice(bounds[block], bounds[block + 1])
            yield positions, int(block), ids[positions] - block * rows

    def _write(
        self, fold, block: int, local, columns: np.ndarray, data: np.ndarray, scratch: np.ndarray
    ) -> None:
        """Write the rows ``local`` (offsets, or a slice) of ``block`` from
        the inner slots' ``fold``: their columns, and their entries of
        ``A_hat`` in ``data``'s dtype, ``(w * s_i) * s_j`` in float64, cast
        as it is written. ``scratch`` is two float64 tables of at least as
        many rows, for the values and the gathered ``s_j``."""
        fold_columns, fold_values = fold
        rows = len(fold_columns)
        lower, upper = [], []  # the column offset of each outer neighbour
        place, rest = rows, block
        for radix in reversed(self.radices[: len(self.radices) - _inner_slots(self.radices)]):
            digit, rest = rest % radix, rest // radix
            offsets = [(b - digit) * place for b in range(radix) if b != digit]
            lower[:0], place = offsets[:digit], place * radix
            upper += offsets[digit:]
        start = block * rows
        ids = np.arange(start, start + rows, dtype=self._index_dtype)[local]
        lo, hi = len(lower), len(lower) + fold_columns.shape[1]
        offsets = np.array(lower + upper, ids.dtype)
        np.add(ids[:, None], offsets[:lo], out=columns[:, :lo])
        np.add(fold_columns[local], start, out=columns[:, lo:hi])
        np.add(ids[:, None], offsets[lo:], out=columns[:, hi:])
        values, col_scale = scratch[:, : len(columns)]
        row_scale = self.inv_sqrt[ids][:, None]
        np.multiply(self.weight, row_scale, out=values[:, :lo])
        np.multiply(fold_values[local], row_scale, out=values[:, lo:hi])
        np.multiply(self.weight, row_scale, out=values[:, hi:])
        # clip never moves a column id, and lets the gather write in place
        np.take(self.inv_sqrt, columns, out=col_scale, mode="clip")
        np.multiply(values, col_scale, out=data)

    def rows(self, ids: np.ndarray) -> sp.csr_matrix:
        """``A_hat[ids, :]`` as canonical CSR, for sorted distinct node ids,
        generated block by block in proportion to the rows asked for."""
        ids = np.asarray(ids, dtype=np.int64)
        columns = np.empty((len(ids), self.width), self._index_dtype)
        data = np.empty(columns.shape, self.dtype)
        fold = self._inner_fold()
        blocks = list(self._blocks(ids, len(fold[0])))
        scratch = np.empty((2, max((len(local) for *_, local in blocks), default=0), self.width))
        for positions, block, local in blocks:
            self._write(fold, block, local, columns[positions], data[positions], scratch)
        indptr = np.arange(0, columns.size + 1, self.width, dtype=columns.dtype)
        return sp.csr_matrix((data.ravel(), columns.ravel(), indptr), (len(ids), self.shape[0]))

    def matmul(self, m: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``A_hat @ m`` written into ``out`` (as ``_propagate``), one block
        of rows at a time: the block's rows are generated into one table,
        overwritten by the next block's, and ``_propagate`` multiplies them
        into their rows of ``out``, with the bits of the whole matrix's
        product."""
        if len(out) != self.shape[0]:
            raise ValueError(f"cannot write {self.shape[0]} rows into a {out.shape} buffer")
        fold = self._inner_fold()
        rows = len(fold[0])
        columns = np.empty((rows, self.width), self._index_dtype)
        data = np.empty(columns.shape, self.dtype)
        scratch = np.empty((2, *columns.shape))
        indptr = np.arange(0, columns.size + 1, self.width, dtype=columns.dtype)
        for block in range(self.shape[0] // rows):
            self._write(fold, block, slice(None), columns, data, scratch)
            table = sp.csr_matrix((data.ravel(), columns.ravel(), indptr), (rows, self.shape[0]))
            _propagate(table, m, out[block * rows : (block + 1) * rows])
        return out

    def __matmul__(self, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m)
        return self.matmul(m, np.empty((self.shape[0], *m.shape[1:]), self.dtype))


def build_graph(
    subspace: Subspace, similarity: AssignedSimilarity = AssignedSimilarity()
) -> ArchGraph:
    """Construct the Hamming-1 graph of a subspace.

    Edges link every pair of nodes differing in exactly one searchable
    position, each with the weight of ``similarity``. The graph is the
    Cartesian product of one complete graph per slot, so it keeps just the
    slot radices and the weight, which define every edge, and the choices
    of each node's materialized architecture, which define its features.
    """
    n = subspace.node_count
    check_graph_size(n)
    spec = subspace.spec
    choice_matrix = np.empty((n, spec.num_layers), np.min_scalar_type(spec.choices_per_layer - 1))
    for position, choice in subspace.fixed.items():
        choice_matrix[:, position] = choice
    # one slot at a time, each candidate written into the rows of its digit,
    # through a view of the table split at the slot's place
    for slot, place in zip(subspace.slots, subspace._place_weights):
        split = choice_matrix.reshape(-1, slot.radix, int(place), spec.num_layers)
        split[..., list(slot.positions)] = np.array(slot.candidates, choice_matrix.dtype)[:, None]
    radices = tuple(slot.radix for slot in subspace.slots)
    return ArchGraph(subspace, n, radices, similarity.weight, choice_matrix)


def normalize_adjacency(graph: ArchGraph, dtype: np.dtype = np.float64) -> NormalizedAdjacency:
    """Symmetric renormalization with self-loops:
    D^(-1/2) (A + I) D^(-1/2), D = diagonal of row sums of A + I.

    A degree depends only on the node's digit sum (``NormalizedAdjacency``):
    each of the ``width`` possible rows of ``A + I`` is reduced as SciPy's
    ``sum(axis=1)`` of the CSR matrix reduces it, and every node reads the
    ``D^(-1/2)`` of its digit sum, kept in float64. The operator is cached
    on the graph in ``dtype`` alone; asking for another dtype re-types it,
    with the same ``D^(-1/2)``.
    """
    dtype = np.dtype(dtype)
    if graph.normalized is None:
        width = 1 + sum(radix - 1 for radix in graph.radices)
        possible = np.full((width, width), graph.weight)
        np.fill_diagonal(possible, 1.0)
        by_diagonal = np.add.reduceat(possible.ravel(), np.arange(0, possible.size, width))
        np.divide(1.0, np.sqrt(by_diagonal, out=by_diagonal), out=by_diagonal)
        digit_sum = np.zeros(1, np.min_scalar_type(width - 1))
        for radix in graph.radices:  # the first slot most significant, as the node ids
            digit_sum = (digit_sum[:, None] + np.arange(radix, dtype=digit_sum.dtype)).ravel()
        operator = NormalizedAdjacency(graph.radices, graph.weight, by_diagonal[digit_sum], dtype)
        graph.normalized, graph.propagated = operator, None
    elif graph.normalized.dtype != dtype:
        graph.normalized, graph.propagated = graph.normalized.astype(dtype), None
    return graph.normalized


def node_architecture(graph: ArchGraph, index: int) -> Architecture:
    """Materialized architecture of one node."""
    return Architecture(tuple(graph.choice_matrix[index].tolist()))
