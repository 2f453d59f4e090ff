import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcnas import metrics
from gcnas.metrics import kendall_tau, regression_score
from conftest import (
    ACC_SNAPSHOT_A,
    ACC_SNAPSHOT_B,
    ACC_TRUE,
    TAU_TRUE_VS_A,
    TAU_TRUE_VS_B,
    merge_count_inversions_reference,
    regression_score_reference,
    tau_brute,
    tau_pairs,
)


def _score_pair(n: int, seed: int, levels: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Two correlated score vectors: integers in [0, levels) (tie-heavy) or,
    when ``levels`` is None, floats."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    b = a + rng.standard_normal(n)
    if levels is not None:
        a = np.floor((a - a.min()) / (np.ptp(a) + 1e-9) * levels)
        b = np.floor((b - b.min()) / (np.ptp(b) + 1e-9) * levels)
    return a, b


score_pairs = st.builds(
    _score_pair,
    st.integers(2, 600),
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3, 8, 50, None]),
)


class TestKendallTau:
    def test_published_eight_architecture_table(self):
        assert kendall_tau(ACC_TRUE, ACC_SNAPSHOT_A) == pytest.approx(TAU_TRUE_VS_A, abs=1e-4)
        assert kendall_tau(ACC_TRUE, ACC_SNAPSHOT_B) == pytest.approx(TAU_TRUE_VS_B, abs=1e-4)

    def test_identity_and_reversal(self):
        x = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        assert kendall_tau(x, x) == 1.0
        assert kendall_tau(x, [-v for v in x]) == -1.0
        ordered = sorted(x)
        assert kendall_tau(ordered, ordered[::-1]) == -1.0

    def test_tie_free_matches_simple_formula(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(7)
        b = rng.standard_normal(7)
        n0 = 7 * 6 / 2
        num = sum(
            np.sign(a[i] - a[j]) * np.sign(b[i] - b[j])
            for i in range(7)
            for j in range(i + 1, 7)
        )
        assert kendall_tau(a, b) == pytest.approx(num / n0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 8).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 4), min_size=n, max_size=n),
                st.lists(st.integers(0, 4), min_size=n, max_size=n),
            )
        )
    )
    def test_matches_bruteforce_with_ties(self, pair):
        a, b = pair
        if len(set(a)) < 2 or len(set(b)) < 2:
            return
        assert kendall_tau(a, b) == pytest.approx(tau_brute(a, b), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 8).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-100, 100), min_size=n, max_size=n),
                st.lists(st.floats(-100, 100), min_size=n, max_size=n),
            )
        )
    )
    def test_symmetry(self, pair):
        a, b = pair
        if len(set(a)) < 2 or len(set(b)) < 2:
            return
        assert kendall_tau(a, b) == pytest.approx(kendall_tau(b, a), abs=1e-12)

    def test_monotone_invariance(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(40)
        b = rng.standard_normal(40)
        assert kendall_tau(np.exp(a) + 3, b) == pytest.approx(kendall_tau(a, b), abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(score_pairs)
    @example(_score_pair(64, 0, None))
    @example(_score_pair(65, 1, 2))
    @example(_score_pair(129, 2, None))
    @example(_score_pair(600, 3, 8))
    def test_blocked_count_equals_recursive_reference(self, pair):
        a, b = pair
        ys = b[np.lexsort((b, a))]
        count, ordered = metrics._merge_count_inversions(ys)
        ref_count, ref_ordered = merge_count_inversions_reference(ys)
        assert count == ref_count
        assert (ordered == ref_ordered).all()
        if len(set(a)) < 2 or len(set(b)) < 2:
            return
        with mock.patch.object(metrics, "_merge_count_inversions", merge_count_inversions_reference):
            reference = kendall_tau(a, b)
        assert kendall_tau(a, b) == reference
        assert kendall_tau(a, b) == tau_pairs(a, b)

    def test_pair_count_oracle_agrees_with_bruteforce(self):
        for seed, levels in [(0, 3), (1, None)]:
            a, b = _score_pair(60, seed, levels)
            assert tau_pairs(a, b) == pytest.approx(tau_brute(a, b), abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            kendall_tau([1.0], [2.0])
        with pytest.raises(ValueError):
            kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            kendall_tau([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="NaN"):
            kendall_tau([1.0, 2.0, 3.0], [1.0, float("nan"), 2.0])

    def test_large_input_agrees_with_bruteforce_sample(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 50, 300).astype(float)
        b = a + rng.standard_normal(300) * 10
        from scipy.stats import kendalltau as scipy_tau

        assert kendall_tau(a, b) == pytest.approx(scipy_tau(a, b).statistic, abs=1e-12)


class TestRegressionScore:
    def test_exact_prediction(self):
        t = [0.1, 0.5, 0.3, 0.9]
        assert regression_score(t, t) == pytest.approx(1.0)

    def test_constant_prediction_scores_zero(self):
        assert regression_score([2.0, 2.0, 2.0], [0.1, 0.5, 0.9]) == 0.0

    def test_affine_prediction_scores_one(self):
        t = np.array([0.1, 0.5, 0.3, 0.9])
        assert regression_score(2 * t + 3, t) == pytest.approx(1.0)
        assert regression_score(-0.5 * t + 1, t) == pytest.approx(1.0)

    def test_affine_invariance_in_pred(self):
        rng = np.random.default_rng(4)
        p = rng.standard_normal(50)
        t = p + rng.standard_normal(50)
        base = regression_score(p, t)
        assert regression_score(3 * p + 7, t) == pytest.approx(base, abs=1e-10)

    def test_zero_target_variance_errors(self):
        with pytest.raises(ValueError):
            regression_score([1.0, 2.0], [3.0, 3.0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 200), st.integers(0, 2**32 - 1), st.floats(0.0, 10.0))
    def test_matches_least_squares_fit(self, n, seed, noise):
        rng = np.random.default_rng(seed)
        p = rng.standard_normal(n)
        t = p + noise * rng.standard_normal(n)
        assert regression_score(p, t) == pytest.approx(regression_score_reference(p, t), abs=1e-12)

    def test_bounded_above_by_one(self):
        rng = np.random.default_rng(5)
        p = rng.standard_normal(100)
        t = rng.standard_normal(100)
        assert regression_score(p, t) <= 1.0


@pytest.mark.parametrize("statistic", [kendall_tau, regression_score])
@pytest.mark.parametrize(
    "a, b, message",
    [
        ([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0], "inputs must be one-dimensional"),
        ([1.0, 2.0], [[1.0], [2.0]], "inputs must be one-dimensional"),
        ([1.0, 2.0, 3.0], [1.0, 2.0], "length mismatch: 3 vs 2"),
        ([1.0], [2.0], "need at least 2 items, got 1"),
        ([], [], "need at least 2 items, got 0"),
    ],
)
def test_paired_input_refusals(statistic, a, b, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        statistic(a, b)
    assert type(info.value) is ValueError
