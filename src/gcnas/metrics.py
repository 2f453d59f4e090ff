"""Rank and fit statistics: Kendall's tau (tie-aware tau-b) and the
coefficient of determination of a linear fit."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _tie_pair_count(values: np.ndarray) -> int:
    """Number of item pairs sharing the same value."""
    _, counts = np.unique(values, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def _joint_tie_pair_count(x: np.ndarray, y: np.ndarray) -> int:
    """Number of item pairs tied in both vectors at once."""
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    new_group = np.empty(len(xs), dtype=bool)
    new_group[0] = True
    new_group[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    counts = np.diff(np.flatnonzero(np.append(new_group, True)))
    return int((counts * (counts - 1) // 2).sum())


# Below this length one pairwise comparison counts descents faster than
# further halving, whose cost is dominated by Python-level calls.
_BLOCK = 64


def _merge_count_inversions(y: np.ndarray) -> tuple[int, np.ndarray]:
    """Pairs (i < j) with y[i] > y[j], by merge counting (Knight 1966) down to
    blocks of ``_BLOCK`` items, each counted by direct comparison. Returns the
    count and ``y`` sorted."""
    n = len(y)
    if n <= _BLOCK:
        return int(np.triu(y[:, None] > y[None, :], 1).sum()), np.sort(y)
    mid = n // 2
    inv_l, left = _merge_count_inversions(y[:mid])
    inv_r, right = _merge_count_inversions(y[mid:])
    # strict descents across the split: count left entries > each right entry
    pos = np.searchsorted(left, right, side="right")
    cross = int(left.size * right.size - pos.sum())
    return inv_l + inv_r + cross, np.sort(np.concatenate([left, right]), kind="mergesort")


def kendall_tau(a: Sequence[float], b: Sequence[float]) -> float:
    """Kendall's tau-b between two equal-length score vectors.

    (C - D) / sqrt((C + D + T_a)(C + D + T_b)) over all item pairs, where
    T_a / T_b count pairs tied only in one vector; reduces to the tie-free
    tau (C - D) / (n(n-1)/2) when no values repeat.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise ValueError(f"need at least 2 items, got {n}")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("tau undefined: inputs contain NaN")

    order = np.lexsort((y, x))
    ys = y[order]
    # after sorting by (x asc, y asc), strict y-descents are exactly the
    # discordant pairs: x-tied pairs are y-sorted, y-tied pairs never descend
    discordant, _ = _merge_count_inversions(ys)

    n0 = n * (n - 1) // 2
    ties_a = _tie_pair_count(x)
    ties_b = _tie_pair_count(y)
    ties_both = _joint_tie_pair_count(x, y)
    comparable = n0 - ties_a - ties_b + ties_both
    numerator = comparable - 2 * discordant  # C - D
    denom = math.sqrt((n0 - ties_a) * (n0 - ties_b))
    if denom == 0.0:
        raise ValueError("tau undefined: one of the vectors is constant")
    return numerator / denom


def regression_score(pred: Sequence[float], target: Sequence[float]) -> float:
    """Squared Pearson correlation of ``pred`` and ``target``: the coefficient
    of determination of the least-squares linear fit of ``target`` on
    ``pred``; 1 for a perfect affine relation, 0 when ``pred`` carries no
    linear information."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.ndim != 1 or t.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if len(p) != len(t):
        raise ValueError(f"length mismatch: {len(p)} vs {len(t)}")
    if len(p) < 2:
        raise ValueError(f"need at least 2 items, got {len(p)}")
    pc = p - p.mean()
    tc = t - t.mean()
    ss_tot = float((tc**2).sum())
    if ss_tot == 0.0:
        raise ValueError("regression score undefined: target has zero variance")
    var_p = float((pc**2).sum())
    if var_p == 0.0:
        # fit collapses to the target mean
        return 0.0
    return float((pc * tc).sum()) ** 2 / (var_p * ss_tot)
