"""Accuracy oracles.

The abstract :class:`Evaluator` is the pluggable interface the search engine
talks to. :class:`SyntheticSupernet` simulates shared-weight evaluation: a
deterministic ground-truth function plus an affine distortion and a
checkpoint-seeded noise field, so that ranking disagreement between two
checkpoints can be reproduced and calibrated at desk scale.
:class:`CostModel` prices architectures in multiply-add operations for
hardware-constrained selection.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .metrics import kendall_tau
from .search_space import Architecture, SearchSpaceSpec
from .seeding import seed_stream


class Evaluator(abc.ABC):
    """Maps an architecture to an accuracy in [0, 1].

    Implementations must be pure given their internal state: repeated calls
    with the same architecture return identical values, and concurrent calls
    are safe.
    """

    @abc.abstractmethod
    def evaluate(self, arch: Architecture) -> float:
        raise NotImplementedError

    def evaluate_many(self, archs: Sequence[Architecture]) -> np.ndarray:
        return np.array([self.evaluate(a) for a in archs], dtype=np.float64)

    def evaluate_matrix(self, choice_matrix: np.ndarray) -> np.ndarray:
        """Scores of the rows of an (n, L) matrix of choice indices; by
        default each row as an :class:`Architecture`, through
        :meth:`evaluate_many`."""
        rows = np.asarray(choice_matrix).tolist()
        return self.evaluate_many([Architecture(tuple(row)) for row in rows])

    def advanced(self) -> "Evaluator":
        """A copy of this evaluator advanced to a fresh checkpoint."""
        raise NotImplementedError(f"{type(self).__name__} has no notion of checkpoints")


def _choice_matrix(archs: Sequence[Architecture]) -> np.ndarray:
    return np.asarray([a.choices for a in archs], dtype=np.int64).reshape(len(archs), -1)


@dataclass(frozen=True)
class GroundTruthParams:
    """Deterministic ground-truth accuracy surface: a base offset, additive
    per-cell utilities and weak pairwise interactions."""

    base: float
    cell_utility: np.ndarray  # (L, O)
    pair_strength: float
    interaction_seed: int

    def __post_init__(self) -> None:
        u = np.asarray(self.cell_utility, dtype=np.float64)
        if u.ndim != 2:
            raise ValueError(f"cell_utility must be an LxO table, got shape {u.shape}")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "cell_utility", u)

    @property
    def num_layers(self) -> int:
        return self.cell_utility.shape[0]

    @property
    def choices_per_layer(self) -> int:
        return self.cell_utility.shape[1]

    @functools.cached_property
    def interactions(self) -> np.ndarray:
        """Pairwise term v[l, l', o, o'], fixed by the interaction seed; drawn
        on first use and kept, read-only, for the life of these params."""
        L, O = self.cell_utility.shape
        v = np.random.default_rng(self.interaction_seed).uniform(-1.0, 1.0, (L, L, O, O))
        v.setflags(write=False)
        return v

    @classmethod
    def random(
        cls,
        spec: SearchSpaceSpec,
        seed: int,
        base: float = 0.8,
        utility_amplitude: float = 0.01,
        pair_strength: float = 0.0005,
    ) -> "GroundTruthParams":
        """Utilities drawn uniformly from +-utility_amplitude; pairwise
        interaction terms derive from the same seed."""
        rng = np.random.default_rng(seed_stream(seed, "cell-utility"))
        u = rng.uniform(-utility_amplitude, utility_amplitude, (spec.num_layers, spec.choices_per_layer))
        return cls(base, u, pair_strength, seed_stream(seed, "interactions"))


def _choice_indices(choice_matrix: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``choice_matrix`` as (n, L) integer indices into the rows of an (L, O)
    per-cell ``table``, each checked to lie in [0, O); an integer array is
    read in its own dtype, anything else is cast to int64."""
    c = np.asarray(choice_matrix)
    if c.dtype.kind not in "iu":
        c = c.astype(np.int64)
    L, O = table.shape
    if c.ndim != 2 or c.shape[1] != L:
        raise ValueError(f"expected an (n, {L}) choice matrix, got shape {c.shape}")
    if c.size and not 0 <= c.min() <= c.max() < O:
        row, layer = np.argwhere((c < 0) | (c >= O))[0]
        raise ValueError(f"choice {c[row, layer]} at row {row}, layer {layer} is outside [0, {O})")
    return c


def ground_truth_many(choice_matrix: np.ndarray, truth: GroundTruthParams) -> np.ndarray:
    """Vectorized ground truth for an (n, L) matrix of choice indices."""
    # int64, so that a pair index ``c * O + c'`` cannot wrap
    c = _choice_indices(choice_matrix, truth.cell_utility).astype(np.int64, copy=False)
    L = truth.num_layers
    z = truth.base + truth.cell_utility[np.arange(L), c].sum(axis=1)
    if truth.pair_strength != 0.0:
        O = truth.choices_per_layer
        v = (truth.pair_strength * truth.interactions).reshape(L, L, O * O)
        columns = np.ascontiguousarray(c.T)
        for l in range(L):
            row = columns[l] * O
            for lp in range(l + 1, L):
                z += v[l, lp][row + columns[lp]]
    return np.clip(z, 0.0, 1.0)


def _unit_noise_field(choice_matrix: np.ndarray, checkpoint_seed: int) -> np.ndarray:
    """Standard-normal noise, a pure function of (architecture, checkpoint):
    each architecture hashes to a uniform variate that is pushed through the
    inverse normal CDF."""
    key = int(checkpoint_seed).to_bytes(8, "little", signed=False)
    rows = np.ascontiguousarray(choice_matrix, dtype=np.uint16)
    width = rows.shape[1] * rows.itemsize
    data = rows.tobytes()
    keyed = hashlib.blake2b(key=key, digest_size=8)

    def digest(row: bytes) -> bytes:
        h = keyed.copy()  # the key block is hashed once, not once per row
        h.update(row)
        return h.digest()

    digests = b"".join(digest(data[i : i + width]) for i in range(0, len(data), width))
    raw = np.frombuffer(digests, dtype="<u8")
    uniform = (raw.astype(np.float64) + 0.5) / 2.0**64
    return ndtri(uniform)


def _noise_field(choice_matrix: np.ndarray, checkpoint_seed: int, sigma: float) -> np.ndarray:
    """Zero-mean Gaussian noise of scale ``sigma``: the unit field, rescaled."""
    if sigma == 0.0:
        return np.zeros(len(choice_matrix), dtype=np.float64)
    return sigma * _unit_noise_field(choice_matrix, checkpoint_seed)


@dataclass(frozen=True)
class SyntheticSupernet(Evaluator):
    """Simulated shared-weight evaluation: accuracy = a * truth + b + noise,
    where the noise field is redrawn whenever the checkpoint advances."""

    truth: GroundTruthParams
    a: float = 0.95
    b: float = 0.05
    sigma: float = 0.0065
    checkpoint_seed: int = 0

    def __post_init__(self) -> None:
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        # the noise field keys on 64 unsigned bits, advancing derives from 64 signed ones
        if not 0 <= self.checkpoint_seed < 2**63:
            raise ValueError(f"checkpoint_seed must lie in [0, 2**63), got {self.checkpoint_seed}")

    def evaluate_many(self, archs: Sequence[Architecture]) -> np.ndarray:
        return self.evaluate_matrix(_choice_matrix(archs))

    def evaluate_matrix(self, choice_matrix: np.ndarray) -> np.ndarray:
        z = ground_truth_many(choice_matrix, self.truth)
        return self._observe(z, _noise_field(choice_matrix, self.checkpoint_seed, self.sigma))

    def _observe(self, z: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Scores of architectures with ground truth ``z`` under ``noise``:
        ``clip(a * z + b + noise)`` to [0, 1]."""
        return np.clip(self.a * z + self.b + noise, 0.0, 1.0)

    def evaluate(self, arch: Architecture) -> float:
        return float(self.evaluate_many([arch])[0])

    def advanced(self) -> "SyntheticSupernet":
        return dataclasses.replace(
            self, checkpoint_seed=seed_stream(self.checkpoint_seed, "checkpoint-advance")
        )


def sample_choice_matrix(spec: SearchSpaceSpec, n: int, seed: int) -> np.ndarray:
    """(n, L) choice indices of n distinct architectures drawn uniformly from
    the whole space, in draw order: batches of n uniform rows are drawn until
    n distinct rows have been seen, and the first occurrences are kept."""
    if n > spec.size:
        raise ValueError(f"cannot sample {n} distinct architectures from a space of {spec.size}")
    if n < 0:
        raise ValueError(f"sample count must be non-negative, got {n}")
    rng = np.random.default_rng(seed)
    dtype = np.min_scalar_type(spec.choices_per_layer - 1)
    row_bytes = np.dtype((np.void, spec.num_layers * dtype.itemsize))
    kept = np.empty((0, spec.num_layers), dtype=dtype)
    while len(kept) < n:
        batch = rng.integers(0, spec.choices_per_layer, (n, spec.num_layers))
        pool = np.concatenate([kept, batch.astype(dtype)])
        # kept rows are distinct and lead the pool, so they stay first
        _, first = np.unique(pool.view(row_bytes).ravel(), return_index=True)
        kept = pool[np.sort(first)[:n]]
    return kept.astype(np.int64)


def sample_architectures(spec: SearchSpaceSpec, n: int, seed: int) -> list[Architecture]:
    """n distinct architectures drawn uniformly from the whole space."""
    return [Architecture(tuple(row)) for row in sample_choice_matrix(spec, n, seed).tolist()]


#: the two-checkpoint Kendall-tau window ``calibrate_sigma`` bisects into
CALIBRATION_TARGET = (0.50, 0.60)
#: bisection steps ``calibrate_sigma`` takes before it gives up
CALIBRATION_STEPS = 60


def calibrate_sigma(
    supernet: SyntheticSupernet,
    spec: SearchSpaceSpec,
    n_archs: int = 10_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Bisect the noise scale until the Kendall-tau between two checkpoints'
    rankings of ``n_archs`` sampled architectures lands in
    ``CALIBRATION_TARGET``.

    Returns (sigma, achieved tau). Larger sigma always lowers the
    two-checkpoint agreement, so plain bisection converges.
    """
    lo_t, hi_t = CALIBRATION_TARGET
    if n_archs < 2:
        raise ValueError(f"n_archs must be >= 2 to rank two checkpoints, got {n_archs}")
    matrix = sample_choice_matrix(spec, n_archs, seed_stream(seed, "calibration-sample"))
    z = ground_truth_many(matrix, supernet.truth)
    spread = float(z.std())
    if z.min() == z.max():  # z.std() of a constant array need not be 0
        raise ValueError("ground truth is constant; two-checkpoint tau cannot be calibrated")
    # sigma only rescales each checkpoint's noise field, so hash both once
    unit_first = _unit_noise_field(matrix, supernet.checkpoint_seed)
    unit_second = _unit_noise_field(matrix, supernet.advanced().checkpoint_seed)

    def tau_at(sigma: float) -> float:
        return kendall_tau(
            supernet._observe(z, sigma * unit_first), supernet._observe(z, sigma * unit_second)
        )

    lo, hi = 0.0, spread
    tau = tau_at(hi)
    while tau > hi_t:
        hi *= 2.0
        if hi > 1e3 * spread:
            raise RuntimeError("calibration failed to bracket the target window")
        tau = tau_at(hi)
    sigma = hi
    for _ in range(CALIBRATION_STEPS):
        mid = 0.5 * (lo + hi)
        tau = tau_at(mid)
        sigma = mid
        if lo_t <= tau <= hi_t:
            break
        if tau > hi_t:
            lo = mid
        else:
            hi = mid
    else:
        raise RuntimeError(
            f"calibration did not reach tau in [{lo_t}, {hi_t}] after {CALIBRATION_STEPS} "
            f"iterations; last sigma={sigma:.6g}, tau={tau:.4f}"
        )
    return sigma, tau


@dataclass(frozen=True)
class CostModel:
    """Multiply-add cost: a fixed stem/head cost plus one table entry per
    cell choice."""

    fixed_cost: float
    cell_cost: np.ndarray  # (L, O)

    def __post_init__(self) -> None:
        table = np.asarray(self.cell_cost, dtype=np.float64)
        if table.ndim != 2:
            raise ValueError(f"cell_cost must be an LxO table, got shape {table.shape}")
        costs = np.append(table, self.fixed_cost)
        if not ((costs >= 0) & (costs < np.inf)).all():  # NaN fails both
            raise ValueError("costs must be finite and non-negative")
        table = table.copy()
        table.setflags(write=False)
        object.__setattr__(self, "cell_cost", table)


# Relative multiply-add weight of each (kernel, expansion) cell choice, in
# DEFAULT_CHOICE_LABELS order; expansion dominates, kernel adds quadratically.
_CHOICE_COST_WEIGHTS = np.array([1.0, 1.9, 1.15, 2.2, 1.4, 2.6])
# depth profile: later stages carry more channels, early ones more resolution
_DEPTH_COST_PROFILE = (0.8, 1.25)


def bundled_cost_model(spec: SearchSpaceSpec) -> CostModel:
    """A representative cost table scaled so that the all-max architecture
    lands near 600M multiply-adds and typical ones near 400M (for the default
    19-cell space)."""
    L, O = spec.num_layers, spec.choices_per_layer
    weights = _CHOICE_COST_WEIGHTS
    if O != len(weights):
        # fall back to a smooth ramp with the same max/mean ratio
        weights = np.linspace(1.0, 2.6, O)
    depth = np.linspace(_DEPTH_COST_PROFILE[0], _DEPTH_COST_PROFILE[1], L)
    depth = depth / depth.mean()
    fixed = 16.9e6
    per_unit = (600e6 - fixed) / (L * weights.max())
    table = np.rint(per_unit * depth[:, None] * weights[None, :])
    return CostModel(fixed, table)


#: rows ``flops_many`` sums at a time, so its temporaries are (rows, L), not (n, L)
FLOPS_BLOCK_ROWS = 2**11


def flops_many(choice_matrix: np.ndarray, cost_model: CostModel) -> np.ndarray:
    """Vectorized multiply-add counts for an (n, L) choice matrix. Rows are
    summed in blocks of ``FLOPS_BLOCK_ROWS``; each row's sum is the same
    reduction whatever the block, so the bits do not depend on it."""
    table = cost_model.cell_cost
    c = _choice_indices(choice_matrix, table)
    layers = np.arange(c.shape[1])
    cost = np.empty(len(c))
    for start in range(0, len(c), FLOPS_BLOCK_ROWS):
        rows = slice(start, start + FLOPS_BLOCK_ROWS)
        table[layers, c[rows]].sum(axis=1, out=cost[rows])
    cost += cost_model.fixed_cost
    return cost


def flops(arch: Architecture, cost_model: CostModel) -> float:
    """Multiply-add count of one architecture."""
    return float(flops_many(_choice_matrix([arch]), cost_model)[0])
