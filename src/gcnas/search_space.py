"""Chain-styled search spaces.

An architecture is a length-L vector of per-cell choice indices. A subspace
restricts the searchable region of a space to some free cells, fixes the
rest, and may collapse previously searched cells into "super-cells" whose
options are a handful of preserved sub-architectures. Node features are
binary-reflected Gray codes of the fully materialized architecture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

#: kernel {3,5,7} x expansion {3,6} labels of the default 6-choice cell
DEFAULT_CHOICE_LABELS = ("k3_e3", "k3_e6", "k5_e3", "k5_e6", "k7_e3", "k7_e6")


@dataclass(frozen=True)
class SearchSpaceSpec:
    """A chain of ``num_layers`` cells, each picking one of
    ``choices_per_layer`` interchangeable operators."""

    num_layers: int
    choices_per_layer: int
    choice_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.choices_per_layer < 2:
            raise ValueError(
                f"choices_per_layer must be >= 2, got {self.choices_per_layer}"
            )
        if self.choice_labels is not None:
            labels = tuple(self.choice_labels)
            if len(labels) != self.choices_per_layer:
                raise ValueError(
                    f"expected {self.choices_per_layer} choice labels, got {len(labels)}"
                )
            object.__setattr__(self, "choice_labels", labels)

    @property
    def bits_per_cell(self) -> int:
        """Number of Gray-code bits needed per cell: ceil(log2 O)."""
        return max(1, (self.choices_per_layer - 1).bit_length())

    @property
    def feature_dim(self) -> int:
        return self.num_layers * self.bits_per_cell

    @property
    def size(self) -> int:
        return self.choices_per_layer**self.num_layers

    def validate_architecture(self, arch: "Architecture") -> None:
        if len(arch.choices) != self.num_layers:
            raise ValueError(
                f"architecture has {len(arch.choices)} cells, space has {self.num_layers}"
            )
        for pos, c in enumerate(arch.choices):
            if not 0 <= c < self.choices_per_layer:
                raise ValueError(f"choice {c} at cell {pos} is outside [0, {self.choices_per_layer})")


def default_space() -> SearchSpaceSpec:
    """The default 19-cell, 6-choice space of inverted-residual cells."""
    return SearchSpaceSpec(19, 6, DEFAULT_CHOICE_LABELS)


@dataclass(frozen=True)
class Architecture:
    """One point of the space: a per-cell choice index vector."""

    choices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "choices", tuple(int(c) for c in self.choices))

    def __len__(self) -> int:
        return len(self.choices)

    def to_text(self) -> str:
        """Comma-joined decimal choice indices, e.g. ``"1,3,0,5"``."""
        return ",".join(str(c) for c in self.choices)

    @classmethod
    def from_text(cls, text: str) -> "Architecture":
        try:
            return cls(tuple(int(tok) for tok in text.strip().split(",")))
        except ValueError as exc:
            raise ValueError(f"malformed architecture string {text!r}") from exc


def default_initial_architecture(spec: SearchSpaceSpec) -> Architecture:
    """All cells at the kernel-3 / expansion-6 choice when that label exists,
    otherwise choice 0."""
    choice = 0
    if spec.choice_labels and "k3_e6" in spec.choice_labels:
        choice = spec.choice_labels.index("k3_e6")
    return Architecture((choice,) * spec.num_layers)


@dataclass(frozen=True)
class SuperCell:
    """A block of already-searched cells collapsed into a single searchable
    position whose K options are preserved sub-architectures."""

    positions: tuple[int, ...]
    candidates: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        positions = tuple(int(p) for p in self.positions)
        candidates = tuple(tuple(int(c) for c in cand) for cand in self.candidates)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "candidates", candidates)
        if not positions:
            raise ValueError("super-cell needs at least one position")
        if list(positions) != sorted(set(positions)):
            raise ValueError(f"super-cell positions must be strictly increasing, got {positions}")
        if not candidates:
            raise ValueError("super-cell needs at least one candidate")
        for cand in candidates:
            if len(cand) != len(positions):
                raise ValueError(
                    f"candidate {cand} does not cover the {len(positions)} super-cell positions"
                )
        if len(set(candidates)) != len(candidates):
            raise ValueError("super-cell candidates must be distinct")


@dataclass(frozen=True)
class Slot:
    """One searchable position of a subspace in canonical order: the layers
    it sets and, per digit, the choices it puts there. A free cell ``p`` is
    ``((p,), ((0,), ..., (O-1,)))``; a super-cell offers its candidates."""

    positions: tuple[int, ...]
    options: tuple[tuple[int, ...], ...]

    @property
    def radix(self) -> int:
        return len(self.options)


@dataclass(frozen=True)
class Subspace:
    """The searchable region of one round: free cells, fixed cells and
    super-cells partition the layer range. A node is a row of slot digits."""

    spec: SearchSpaceSpec
    free_positions: tuple[int, ...]
    fixed: Mapping[int, int]
    super_cells: tuple[SuperCell, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "free_positions", tuple(sorted(int(p) for p in self.free_positions)))
        object.__setattr__(self, "fixed", dict(self.fixed))
        object.__setattr__(self, "super_cells", tuple(self.super_cells))

        claimed: list[int] = list(self.free_positions) + list(self.fixed)
        for sc in self.super_cells:
            claimed.extend(sc.positions)
        expected = list(range(self.spec.num_layers))
        if sorted(claimed) != expected:
            raise ValueError(
                "free, fixed and super-cell positions must partition the layer range "
                f"[0, {self.spec.num_layers}); got {sorted(claimed)}"
            )
        O = self.spec.choices_per_layer
        for pos, c in self.fixed.items():
            if not 0 <= c < O:
                raise ValueError(f"fixed choice {c} at cell {pos} is outside [0, {O})")
        for sc in self.super_cells:
            for cand in sc.candidates:
                for c in cand:
                    if not 0 <= c < O:
                        raise ValueError(f"super-cell candidate entry {c} is outside [0, {O})")

    @cached_property
    def slots(self) -> tuple[Slot, ...]:
        """Searchable slots sorted by their leading layer index."""
        every_choice = tuple((c,) for c in range(self.spec.choices_per_layer))
        slots = [Slot((p,), every_choice) for p in self.free_positions]
        slots += [Slot(sc.positions, sc.candidates) for sc in self.super_cells]
        return tuple(sorted(slots, key=lambda s: s.positions[0]))

    @property
    def node_count(self) -> int:
        return math.prod(slot.radix for slot in self.slots)

    @cached_property
    def _radices(self) -> np.ndarray:
        return np.array([slot.radix for slot in self.slots], dtype=np.int64)

    @cached_property
    def _place_weights(self) -> np.ndarray:
        # big-endian mixed radix: the first slot is most significant
        return self.node_count // np.cumprod(self._radices)

    @cached_property
    def _gather(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat option table and (S+1, L) offsets: the choices of digit rows
        ``d`` are ``flat[d @ offsets[:-1] + offsets[-1]]``."""
        L = self.spec.num_layers
        flat = [self.fixed.get(pos, 0) for pos in range(L)]  # then each slot's options, row-major
        offsets = np.zeros((len(self.slots) + 1, L), dtype=np.int64)
        offsets[-1] = np.arange(L)
        for j, slot in enumerate(self.slots):
            width = len(slot.positions)
            offsets[j, slot.positions] = width
            offsets[-1, slot.positions] = len(flat) + np.arange(width)
            flat += [c for option in slot.options for c in option]
        return np.array(flat, dtype=np.int64), offsets

    def _checked(self, digits: np.ndarray) -> np.ndarray:
        d = np.asarray(digits, dtype=np.int64)
        if d.ndim != 2 or d.shape[1] != len(self.slots):
            raise ValueError(f"digit rows must have shape (n, {len(self.slots)}), got {d.shape}")
        bad = (d < 0) | (d >= self._radices)
        if np.count_nonzero(bad):
            i, j = np.argwhere(bad)[0]
            slot = self.slots[j]
            raise ValueError(f"digit {d[i, j]} for slot {slot.positions} is outside [0, {slot.radix})")
        return d

    def digits(self, ids: np.ndarray) -> np.ndarray:
        """(n, S) slot digits of the node ids ``ids``."""
        ids = np.asarray(ids, dtype=np.int64)
        bad = (ids < 0) | (ids >= self.node_count)
        if np.count_nonzero(bad):
            raise ValueError(f"node index {ids[bad][0]} is outside [0, {self.node_count})")
        return ids[:, None] // self._place_weights % self._radices

    def index(self, digits: np.ndarray) -> np.ndarray:
        """(n,) mixed-radix node ids of the digit rows ``digits``."""
        return self._checked(digits).dot(self._place_weights)

    def choices(self, digits: np.ndarray) -> np.ndarray:
        """(n, L) per-layer choices of the full architectures of ``digits``:
        fixed choices copied, free digits inserted, super-cell digits
        expanded to their candidate."""
        flat, offsets = self._gather
        return flat[self._checked(digits).dot(offsets[:-1]) + offsets[-1]]


def full_subspace(spec: SearchSpaceSpec) -> Subspace:
    """The whole space as one subspace (every cell free)."""
    return Subspace(spec, tuple(range(spec.num_layers)), {})


@dataclass(frozen=True)
class SegmentPlan:
    """Disjoint layer-index sets searched in successive rounds."""

    segments: tuple[tuple[int, ...], ...]
    num_layers: int

    def __post_init__(self) -> None:
        segments = tuple(tuple(sorted(int(p) for p in seg)) for seg in self.segments)
        object.__setattr__(self, "segments", segments)
        flat = [p for seg in segments for p in seg]
        if sorted(flat) != list(range(self.num_layers)):
            raise ValueError(
                f"segments must be pairwise disjoint and cover [0, {self.num_layers}); got {segments}"
            )

    @property
    def num_rounds(self) -> int:
        return len(self.segments)


def make_segment_plan(spec: SearchSpaceSpec, sizes: Sequence[int]) -> SegmentPlan:
    """Contiguous segments of the given sizes, in layer order."""
    sizes = [int(s) for s in sizes]
    if sum(sizes) != spec.num_layers:
        raise ValueError(
            f"segment sizes {sizes} sum to {sum(sizes)}, but the space has {spec.num_layers} layers"
        )
    if any(s < 1 for s in sizes):
        raise ValueError(f"segment sizes must be positive, got {sizes}")
    segments = []
    start = 0
    for s in sizes:
        segments.append(tuple(range(start, start + s)))
        start += s
    return SegmentPlan(tuple(segments), spec.num_layers)


def gray_code_table(num_codes: int, bits: int) -> np.ndarray:
    """First ``num_codes`` binary-reflected Gray codes as a (num_codes, bits)
    0/1 matrix, most significant bit first."""
    if num_codes > 2**bits:
        raise ValueError(f"{bits} bits cannot encode {num_codes} codes")
    codes = np.arange(num_codes, dtype=np.int64)
    gray = codes ^ (codes >> 1)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    return ((gray[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def sample_uniform(subspace: Subspace, m: int, seed: int) -> np.ndarray:
    """Digit rows (m, S) of ``m`` distinct nodes drawn uniformly without replacement."""
    n = subspace.node_count
    if m > n:
        raise ValueError(f"cannot sample {m} distinct nodes from a subspace of {n} nodes")
    if m < 0:
        raise ValueError(f"sample count must be non-negative, got {m}")
    rng = np.random.default_rng(seed)
    return subspace.digits(rng.choice(n, size=m, replace=False))


def materialize(subspace: Subspace, row: Sequence[int]) -> Architecture:
    """The full architecture of one digit row."""
    return Architecture(subspace.choices(np.asarray(row)[None])[0].tolist())
