import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from gcnas import evaluator
from gcnas.evaluator import (
    CALIBRATION_TARGET,
    CostModel,
    GroundTruthParams,
    SyntheticSupernet,
    bundled_cost_model,
    calibrate_sigma,
    flops,
    flops_many,
    ground_truth_many,
    sample_architectures,
    sample_choice_matrix,
    _noise_field,
)
from gcnas.metrics import kendall_tau
from gcnas.seeding import seed_stream
from gcnas.search_space import Architecture, SearchSpaceSpec, Subspace, default_space
from conftest import ground_truth_reference, sample_architectures_reference


def all_archs_matrix(spec: SearchSpaceSpec) -> np.ndarray:
    O, L = spec.choices_per_layer, spec.num_layers
    idx = np.arange(spec.size)
    return np.stack([(idx // O ** (L - 1 - p)) % O for p in range(L)], axis=1)


def flat_truth(spec: SearchSpaceSpec, base: float = 0.8) -> GroundTruthParams:
    return GroundTruthParams(
        base, np.zeros((spec.num_layers, spec.choices_per_layer)), 0.0, interaction_seed=0
    )


class TestGroundTruth:
    def test_zero_utilities_flat_surface(self):
        spec = SearchSpaceSpec(5, 4)
        truth = flat_truth(spec)
        assert ground_truth_many(np.array([[0, 1, 2, 3, 0]]), truth)[0] == 0.8
        assert ground_truth_many(np.array([[3, 3, 3, 3, 3]]), truth)[0] == 0.8

    def test_additivity_of_single_utility_bump(self):
        spec = SearchSpaceSpec(4, 6)
        base_truth = GroundTruthParams.random(spec, 7, pair_strength=0.0)
        bumped_utility = np.array(base_truth.cell_utility)
        delta = 0.013
        bumped_utility[0, 3] += delta
        bumped = dataclasses.replace(base_truth, cell_utility=bumped_utility)
        for choices in [(3, 0, 0, 0), (3, 5, 1, 2)]:
            row = np.array([choices])
            assert ground_truth_many(row, bumped)[0] == pytest.approx(
                ground_truth_many(row, base_truth)[0] + delta
            )
        untouched = np.array([[2, 5, 1, 2]])
        assert (
            ground_truth_many(untouched, bumped)[0] == ground_truth_many(untouched, base_truth)[0]
        )

    def test_separable_argmax_matches_percell_argmax(self):
        spec = SearchSpaceSpec(4, 6)
        matrix = all_archs_matrix(spec)
        for seed in range(3):
            truth = GroundTruthParams.random(spec, seed, pair_strength=0.0)
            z = ground_truth_many(matrix, truth)
            best = matrix[int(np.argmax(z))]
            expected = truth.cell_utility.argmax(axis=1)
            assert best.tolist() == expected.tolist()

    def test_pairwise_terms_match_reference_loop(self):
        spec = default_space()
        matrix = sample_choice_matrix(spec, 5000, seed=4)
        for seed in range(3):
            truth = GroundTruthParams.random(spec, seed, pair_strength=0.002)
            expected = ground_truth_reference(matrix, truth)
            assert (ground_truth_many(matrix, truth) == expected).all()

    def test_interaction_table_is_drawn_once_and_read_only(self):
        spec = SearchSpaceSpec(5, 4)
        truth = GroundTruthParams.random(spec, 3, pair_strength=0.002)
        sn = SyntheticSupernet(truth)
        matrix = all_archs_matrix(spec)[::7]
        first = sn.evaluate_matrix(matrix)
        table = truth.interactions
        assert sn.evaluate_matrix(matrix).tobytes() == first.tobytes()
        assert truth.interactions is table and sn.advanced().truth.interactions is table
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0, 0] = 0.0
        fresh = np.random.default_rng(truth.interaction_seed).uniform(-1.0, 1.0, (5, 5, 4, 4))
        assert table.tobytes() == fresh.tobytes()
        other = GroundTruthParams.random(spec, 4, pair_strength=0.002)
        assert other.interactions.tobytes() != table.tobytes()

    def test_clamped_to_unit_interval(self):
        spec = SearchSpaceSpec(3, 4)
        truth = GroundTruthParams(0.99, np.full((3, 4), 0.05), 0.0, 0)
        assert ground_truth_many(np.array([[0, 0, 0]]), truth)[0] == 1.0


class TestSyntheticSupernet:
    def test_zero_noise_is_exact_affine(self):
        spec = SearchSpaceSpec(4, 6)
        truth = GroundTruthParams.random(spec, 3)
        sn = SyntheticSupernet(truth, a=0.9, b=0.07, sigma=0.0)
        matrix = all_archs_matrix(spec)
        z = ground_truth_many(matrix, truth)
        assert sn.evaluate_matrix(matrix) == pytest.approx(0.9 * z + 0.07)

    def test_affine_rank_invariance_at_zero_noise(self):
        # coefficients chosen to keep values inside [0, 1]: clamping would
        # break exact affinity near the bounds
        spec = SearchSpaceSpec(4, 6)
        matrix = all_archs_matrix(spec)
        for seed in range(3):
            truth = GroundTruthParams.random(spec, seed)
            z = ground_truth_many(matrix, truth)
            for a, b in [(0.95, 0.05), (0.4, 0.3), (1.1, -0.2)]:
                sn = SyntheticSupernet(truth, a=a, b=b, sigma=0.0)
                scores = sn.evaluate_matrix(matrix)
                assert int(np.argmax(scores)) == int(np.argmax(z))
                assert (np.argsort(scores, kind="stable") == np.argsort(z, kind="stable")).all()

    def test_repeated_calls_identical(self):
        truth = GroundTruthParams.random(SearchSpaceSpec(5, 6), 1)
        sn = SyntheticSupernet(truth, sigma=0.02, checkpoint_seed=9)
        arch = Architecture((0, 1, 2, 3, 4))
        assert sn.evaluate(arch) == sn.evaluate(arch)

    def test_advance_checkpoint_redraws_noise(self):
        spec = SearchSpaceSpec(5, 6)
        truth = GroundTruthParams.random(spec, 1)
        sn = SyntheticSupernet(truth, sigma=0.02, checkpoint_seed=9)
        advanced = sn.advanced()
        assert advanced.checkpoint_seed != sn.checkpoint_seed
        assert advanced.truth is sn.truth and advanced.a == sn.a and advanced.sigma == sn.sigma
        archs = sample_architectures(spec, 50, seed=5)
        before = sn.evaluate_many(archs)
        after = advanced.evaluate_many(archs)
        assert (before != after).all()

    def test_advance_checkpoint_noiseless_values_unchanged(self):
        truth = GroundTruthParams.random(SearchSpaceSpec(5, 6), 1)
        sn = SyntheticSupernet(truth, sigma=0.0, checkpoint_seed=9)
        arch = Architecture((0, 1, 2, 3, 4))
        assert sn.evaluate(arch) == sn.advanced().evaluate(arch)

    def test_noise_field_is_zero_mean(self):
        spec = SearchSpaceSpec(10, 6)
        archs = sample_architectures(spec, 100_000, seed=0)
        matrix = np.asarray([a.choices for a in archs])
        sigma = 0.01
        eps = _noise_field(matrix, checkpoint_seed=42, sigma=sigma)
        assert abs(eps.mean()) < 3 * sigma / np.sqrt(len(eps))

    def test_noise_fields_independent_across_checkpoints(self):
        spec = SearchSpaceSpec(10, 6)
        archs = sample_architectures(spec, 10_000, seed=1)
        matrix = np.asarray([a.choices for a in archs])
        eps1 = _noise_field(matrix, checkpoint_seed=7, sigma=1.0)
        eps2 = _noise_field(matrix, checkpoint_seed=8, sigma=1.0)
        assert abs(np.corrcoef(eps1, eps2)[0, 1]) < 0.05

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_noise_field_is_a_keyed_hash_of_each_row(self, dtype):
        matrix = np.random.default_rng(2).integers(0, 6, (500, 7)).astype(dtype)
        key = (2**63 + 11).to_bytes(8, "little")
        raw = np.array([
            int.from_bytes(hashlib.blake2b(row.astype(np.uint16).tobytes(), key=key,
                                           digest_size=8).digest(), "little")
            for row in matrix
        ], dtype=np.uint64)
        expected = ndtri((raw.astype(np.float64) + 0.5) / 2.0**64)
        assert _noise_field(matrix, 2**63 + 11, 1.0).tobytes() == expected.tobytes()

    def test_values_clamped(self):
        truth = flat_truth(SearchSpaceSpec(3, 4), base=0.99)
        sn = SyntheticSupernet(truth, a=1.0, b=0.5, sigma=0.0)
        assert sn.evaluate(Architecture((0, 0, 0))) == 1.0

    @pytest.mark.parametrize("sigma", [-0.01, float("nan")])
    def test_negative_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be non-negative"):
            SyntheticSupernet(flat_truth(SearchSpaceSpec(3, 4)), sigma=sigma)


class TestEvaluateMatrix:
    def test_base_scores_each_row_as_an_architecture(self):
        seen = []

        class ByArchitecture(evaluator.Evaluator):
            def evaluate(self, arch):
                seen.append(arch.choices)
                return sum(arch.choices) / 10

        rows = np.array([[0, 1, 2], [3, 0, 1]], dtype=np.uint8)
        scores = ByArchitecture().evaluate_matrix(rows)
        assert scores.dtype == np.float64 and scores.tolist() == [0.3, 0.4]
        assert seen == [(0, 1, 2), (3, 0, 1)]
        assert all(type(c) is int for choices in seen for c in choices)

    def test_synthetic_supernet_rows_score_as_architectures(self):
        spec = SearchSpaceSpec(4, 6)
        sn = SyntheticSupernet(GroundTruthParams.random(spec, 2), sigma=0.02, checkpoint_seed=5)
        matrix = sample_choice_matrix(spec, 40, seed=1)
        archs = [Architecture(tuple(row)) for row in matrix.tolist()]
        by_rows = evaluator.Evaluator.evaluate_matrix(sn, matrix.astype(np.uint8))
        assert by_rows.tobytes() == sn.evaluate_matrix(matrix.astype(np.uint8)).tobytes()
        assert by_rows.tobytes() == sn.evaluate_many(archs).tobytes()


class TestSeedRanges:
    @pytest.mark.parametrize("seed", [-(2**63) - 1, 2**63, 2**64])
    def test_seed_stream_names_root_seed(self, seed):
        with pytest.raises(ValueError, match=f"root_seed must lie in .*got {seed}"):
            seed_stream(seed, "label")

    def test_seed_stream_bounds(self):
        assert seed_stream(-(2**63), "label") != seed_stream(2**63 - 1, "label")

    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_supernet_names_checkpoint_seed(self, seed):
        truth = flat_truth(SearchSpaceSpec(3, 4))
        with pytest.raises(ValueError, match=f"checkpoint_seed must lie in .*got {seed}"):
            SyntheticSupernet(truth, checkpoint_seed=seed)
        edge = SyntheticSupernet(truth, checkpoint_seed=2**63 - 1)
        assert edge.advanced().evaluate_matrix(np.zeros((1, 3), dtype=np.int64)).shape == (1,)


class TestCalibration:
    def test_calibrated_sigma_hits_target_window(self):
        spec = SearchSpaceSpec(6, 6)
        truth = GroundTruthParams.random(spec, 0)
        sn = SyntheticSupernet(truth, checkpoint_seed=11)
        sigma, tau = calibrate_sigma(sn, spec, n_archs=4000, seed=0)
        assert 0.50 <= tau <= 0.60
        assert sigma > 0
        # an independent sample agrees to within sampling error
        archs = sample_architectures(spec, 4000, seed=99)
        calibrated = dataclasses.replace(sn, sigma=sigma)
        fresh = kendall_tau(
            calibrated.evaluate_many(archs), calibrated.advanced().evaluate_many(archs)
        )
        assert 0.45 <= fresh <= 0.65

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_needs_two_architectures(self, n):
        spec = SearchSpaceSpec(3, 3)
        sn = SyntheticSupernet(GroundTruthParams.random(spec, 0))
        with pytest.raises(ValueError, match=f"n_archs must be >= 2.*got {n}"):
            calibrate_sigma(sn, spec, n_archs=n)

    @staticmethod
    def slope(a: float) -> tuple[SearchSpaceSpec, SyntheticSupernet, float]:
        """A 4x4 space whose truth varies by about 1e-6 around 0.5, scored at
        slope ``a`` around the same 0.5 (no clipping), and the spread of the
        truth over all 256 architectures, which a 256-architecture
        calibration sample sees; the noise scale is measured in that spread."""
        spec = SearchSpaceSpec(4, 4)
        truth = GroundTruthParams.random(spec, 0, base=0.5, utility_amplitude=1e-6,
                                         pair_strength=0.0)
        spread = float(ground_truth_many(all_archs_matrix(spec), truth).std())
        return spec, SyntheticSupernet(truth, a=a, b=0.5 - 0.5 * a, checkpoint_seed=3), spread

    @pytest.mark.parametrize(
        "a, low, high",
        [(0.5, 0.0, 0.5), (1.5, 0.5, 1.0), (3.0, 1.0, 2.0)],
        ids=["upper-end-down", "lower-end-up", "bracket-doubled"],
    )
    def test_bisection_moves_each_end(self, a, low, high):
        # the first midpoint, half the spread, agrees too little at slope 0.5
        # and too much at 1.5; at slope 3 even the whole spread agrees too much
        spec, sn, spread = self.slope(a)
        sigma, tau = calibrate_sigma(sn, spec, n_archs=spec.size)
        assert CALIBRATION_TARGET[0] <= tau <= CALIBRATION_TARGET[1]
        assert low * spread < sigma < high * spread

    def test_target_out_of_reach_fails_to_bracket(self):
        # at slope 1e4 noise 1000 times the spread still leaves tau above 0.9
        spec, sn, _ = self.slope(1e4)
        with pytest.raises(RuntimeError, match="failed to bracket the target window"):
            calibrate_sigma(sn, spec, n_archs=spec.size)

    def test_bisection_out_of_steps(self, monkeypatch):
        spec, sn, _ = self.slope(0.5)
        monkeypatch.setattr(evaluator, "CALIBRATION_STEPS", 1)
        with pytest.raises(RuntimeError, match=r"did not reach tau in \[0\.5, 0\.6\] after 1 "):
            calibrate_sigma(sn, spec, n_archs=spec.size)

    def test_pinned_result(self):
        # literals recorded at an earlier commit: calibration output must
        # stay bitwise reproducible across refactors of the noise path
        spec = SearchSpaceSpec(6, 6)
        truth = GroundTruthParams.random(spec, 0)
        sn = SyntheticSupernet(truth, checkpoint_seed=11)
        assert calibrate_sigma(sn, spec, n_archs=4000, seed=0) == (
            0.006266946025385198,
            0.5731237809452363,
        )


class TestSampleArchitectures:
    def test_distinct_and_deterministic(self):
        spec = SearchSpaceSpec(4, 4)
        archs = sample_architectures(spec, 200, seed=3)
        assert len({a.choices for a in archs}) == 200
        assert archs == sample_architectures(spec, 200, seed=3)

    @pytest.mark.parametrize(
        "layers, choices, n",
        [(2, 3, 9), (3, 2, 8), (4, 3, 50), (4, 3, 81), (19, 6, 30_000)],
    )
    def test_matches_rejection_loop_reference(self, layers, choices, n):
        spec = SearchSpaceSpec(layers, choices)
        for seed in range(3 if n < 1000 else 1):
            expected = sample_architectures_reference(spec, n, seed)
            matrix = sample_choice_matrix(spec, n, seed)
            assert matrix.dtype == np.int64 and matrix.shape == (n, layers)
            assert sample_architectures(spec, n, seed) == expected

    def test_space_size_bound(self):
        with pytest.raises(ValueError):
            sample_architectures(SearchSpaceSpec(2, 3), 10, seed=0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative, got -3"):
            sample_choice_matrix(SearchSpaceSpec(2, 3), -3, seed=0)
        assert sample_choice_matrix(SearchSpaceSpec(2, 3), 0, seed=0).shape == (0, 2)


class TestCostModel:
    def test_uniform_table(self):
        model = CostModel(0.0, np.full((19, 6), 100.0))
        arch = Architecture((0,) * 19)
        assert flops(arch, model) == 1900.0

    def test_monotone_in_cell_cost(self):
        spec = SearchSpaceSpec(5, 4)
        model = bundled_cost_model(spec)
        raised = np.array(model.cell_cost)
        raised[2, 1] += 1000.0
        model2 = CostModel(model.fixed_cost, raised)
        arch = Architecture((0, 1, 1, 2, 3))
        assert flops(arch, model2) > flops(arch, model)
        untouched = Architecture((0, 1, 2, 2, 3))
        assert flops(untouched, model2) == flops(untouched, model)

    def test_bundled_magnitudes(self):
        spec = default_space()
        model = bundled_cost_model(spec)
        heaviest = Architecture((int(np.argmax(model.cell_cost[0])),) * 19)
        worst = float(
            model.fixed_cost + model.cell_cost.max(axis=1).sum()
        )
        assert worst == pytest.approx(600e6, rel=0.01)
        rng = np.random.default_rng(0)
        sample = rng.integers(0, 6, (4000, 19))
        typical = flops_many(sample, model).mean()
        assert typical == pytest.approx(400e6, rel=0.1)
        assert flops(heaviest, model) <= worst * 1.001

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CostModel(-1.0, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            CostModel(0.0, np.array([[-1.0, 0.0]]))


class TestFlopsMany:
    """``flops_many`` sums its rows in blocks: the bits of the one-shot
    expression, with temporaries of one block."""

    @staticmethod
    def one_shot(choice_matrix: np.ndarray, model: CostModel) -> np.ndarray:
        c = np.asarray(choice_matrix, dtype=np.int64)
        return model.fixed_cost + model.cell_cost[np.arange(c.shape[1]), c].sum(axis=1)

    @pytest.mark.parametrize("n", [0, 1, evaluator.FLOPS_BLOCK_ROWS,
                                   3 * evaluator.FLOPS_BLOCK_ROWS + 5])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_same_bits_as_the_one_shot_expression(self, n, dtype):
        rng = np.random.default_rng(n)
        # non-integral costs, so a different summation order would show
        model = CostModel(rng.uniform(0, 1e7), rng.uniform(0, 1e6, (19, 6)))
        matrix = rng.integers(0, 6, (n, 19)).astype(dtype)
        cost = flops_many(matrix, model)
        want = self.one_shot(matrix, model)
        assert cost.dtype == want.dtype == np.float64 and cost.shape == (n,)
        assert cost.tobytes() == want.tobytes()

    def test_temporaries_are_one_block(self):
        # 6^6 nodes of 8 layers as one-byte choices: the (n,) result, and no
        # (n, L) index or cost table
        sub = Subspace(SearchSpaceSpec(8, 6), tuple(range(6)), {6: 1, 7: 4})
        matrix = sub.choices(sub.digits(np.arange(sub.node_count))).astype(np.uint8)
        model = bundled_cost_model(sub.spec)
        tracemalloc.start()
        try:
            flops_many(matrix, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(matrix) * 8

    @pytest.mark.parametrize("matrix, message", [
        (np.array([[0, 1, 2], [3, 4, 0]], np.uint8),
         r"^choice 4 at row 1, layer 1 is outside \[0, 4\)$"),
        (np.zeros((0, 4), np.uint8), r"^expected an \(n, 3\) choice matrix, got shape \(0, 4\)$"),
    ], ids=["one-byte-choice", "zero-rows"])
    def test_refusals_of_one_byte_choices(self, matrix, message):
        with pytest.raises(ValueError, match=message) as info:
            flops_many(matrix, bundled_cost_model(_RANGE_SPEC))
        assert type(info.value) is ValueError


_RANGE_SPEC = SearchSpaceSpec(3, 4)
_RANGE_TRUTH = GroundTruthParams.random(_RANGE_SPEC, seed=0)
CHOICE_SCORERS = {
    "ground_truth_many": lambda m: ground_truth_many(m, _RANGE_TRUTH),
    "flops_many": lambda m: flops_many(m, bundled_cost_model(_RANGE_SPEC)),
    "evaluate_matrix": lambda m: SyntheticSupernet(_RANGE_TRUTH).evaluate_matrix(m),
}


class TestChoiceRange:
    """Every choice-matrix consumer refuses a choice outside [0, O) instead
    of wrapping a negative one or failing on an index past the table."""

    @pytest.mark.parametrize("scorer", CHOICE_SCORERS)
    @pytest.mark.parametrize("choice", [-1, 4])
    def test_out_of_range_choice_rejected(self, scorer, choice):
        matrix = np.array([[0, 1, 2], [3, choice, 0]])
        message = rf"choice {choice} at row 1, layer 1 is outside \[0, 4\)"
        with pytest.raises(ValueError, match=message):
            CHOICE_SCORERS[scorer](matrix)

    @pytest.mark.parametrize("scorer", CHOICE_SCORERS)
    def test_wrong_width_rejected(self, scorer):
        with pytest.raises(ValueError, match=r"expected an \(n, 3\) choice matrix"):
            CHOICE_SCORERS[scorer](np.zeros((2, 4), dtype=np.int64))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GroundTruthParams(0.8, np.zeros(6), 0.0, interaction_seed=0),
         "cell_utility must be an LxO table, got shape (6,)"),
        (lambda: CostModel(1.0, np.zeros((2, 3, 4))),
         "cell_cost must be an LxO table, got shape (2, 3, 4)"),
        (lambda: calibrate_sigma(SyntheticSupernet(flat_truth(SearchSpaceSpec(3, 3))),
                                 SearchSpaceSpec(3, 3), n_archs=20),
         "ground truth is constant; two-checkpoint tau cannot be calibrated"),
    ],
    ids=["truth-table", "cost-table", "constant-truth"],
)
def test_refusals(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is ValueError
