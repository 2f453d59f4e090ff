"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with its measured numbers. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import time
from dataclasses import dataclass

import numpy as np
import pytest

import gcnas as g
from gcnas.evaluator import flops_many, ground_truth_many
from gcnas.gcn import CI_GCN_CONFIG, GcnConfig, loss_and_gradients
from gcnas.seeding import seed_stream
from conftest import (
    ACC_SNAPSHOT_A,
    ACC_SNAPSHOT_B,
    ACC_TRUE,
    TAU_TRUE_VS_A,
    TAU_TRUE_VS_B,
    final_and_reports,
    power_iteration_largest_eigenvalue,
    tau_brute,
)

SEEDS = (0, 1, 2, 3, 4)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared synthetic experiment on the 6^6 space (criteria 2, 3, 4, 6)


@dataclass
class SeedExperiment:
    tau_two_checkpoints: float
    tau_same_checkpoint: float
    tau_noisy_vs_truth: float
    tau_gcn_vs_truth: float
    tau_validation: float
    reg_score_gcn_vs_truth: float
    reg_score_noisy_vs_noisy: float
    best_selected_accuracy: float
    gcn_top1_accuracy: float
    consistency_seconds: float


@pytest.fixture(scope="session")
def synthetic_experiments():
    spec = g.SearchSpaceSpec(6, 6)
    subspace = g.full_subspace(spec)
    config = g.SearchConfig(
        m_samples=2000,
        train_split=1800,
        top_pool=100,
        k_preserve=6,
        gcn=CI_GCN_CONFIG,
    )
    runs: list[SeedExperiment] = []
    started = time.perf_counter()
    for seed in SEEDS:
        truth = g.GroundTruthParams.random(spec, seed_stream(seed, "truth"))
        base_supernet = g.SyntheticSupernet(
            truth, checkpoint_seed=seed_stream(seed, "checkpoint")
        )

        t0 = time.perf_counter()
        sigma, _ = g.calibrate_sigma(base_supernet, spec, 10_000, seed=seed)
        supernet = dataclasses.replace(base_supernet, sigma=sigma)
        probe = g.sample_architectures(spec, 10_000, seed=seed_stream(seed, "probe"))
        first = supernet.evaluate_many(probe)
        second = supernet.advanced().evaluate_many(probe)
        tau_cc = g.kendall_tau(first, second)
        tau_same = g.kendall_tau(first, first)
        consistency_seconds = time.perf_counter() - t0

        result = g.run_round(
            subspace, supernet, dataclasses.replace(config, seed=seed)
        )
        assert result.report.num_validation == 200
        z_all = ground_truth_many(result.graph.choice_matrix, truth)
        noisy_all = supernet.evaluate_matrix(result.graph.choice_matrix)
        noisy_next = supernet.advanced().evaluate_matrix(result.graph.choice_matrix)
        runs.append(
            SeedExperiment(
                tau_two_checkpoints=tau_cc,
                tau_same_checkpoint=tau_same,
                tau_noisy_vs_truth=g.kendall_tau(noisy_all, z_all),
                tau_gcn_vs_truth=g.kendall_tau(result.predictions, z_all),
                tau_validation=result.report.tau_val,
                reg_score_gcn_vs_truth=g.regression_score(result.predictions, z_all),
                reg_score_noisy_vs_noisy=g.regression_score(noisy_all, noisy_next),
                best_selected_accuracy=result.report.best_selected.accuracy,
                gcn_top1_accuracy=result.report.gcn_top1.accuracy,
                consistency_seconds=consistency_seconds,
            )
        )
    return runs, time.perf_counter() - started


class TestCriterion1FigureTable:
    def test_exact_tau_reproduction(self):
        t0 = time.perf_counter()
        tau_a = g.kendall_tau(ACC_TRUE, ACC_SNAPSHOT_A)
        tau_b = g.kendall_tau(ACC_TRUE, ACC_SNAPSHOT_B)
        elapsed = t0 and time.perf_counter() - t0
        ok = (
            abs(tau_a - TAU_TRUE_VS_A) <= 1e-4
            and abs(tau_b - TAU_TRUE_VS_B) <= 1e-4
            and elapsed < 1.0
        )
        report("1 (8-architecture table)", ok,
               f"tau={tau_a:.4f}/{tau_b:.4f} vs {TAU_TRUE_VS_A}/{TAU_TRUE_VS_B}, {elapsed:.3f}s")
        assert abs(tau_a - TAU_TRUE_VS_A) <= 1e-4
        assert abs(tau_b - TAU_TRUE_VS_B) <= 1e-4
        assert elapsed < 1.0


class TestCriterion2CheckpointInconsistency:
    @pytest.mark.slow
    def test_two_checkpoint_tau_window(self, synthetic_experiments):
        runs, _ = synthetic_experiments
        taus = [r.tau_two_checkpoints for r in runs]
        sames = [r.tau_same_checkpoint for r in runs]
        elapsed = sum(r.consistency_seconds for r in runs)
        ok = (
            all(0.45 <= t <= 0.65 for t in taus)
            and all(s == 1.0 for s in sames)
            and elapsed < 60.0
        )
        report("2 (checkpoint inconsistency)", ok,
               f"taus={[f'{t:.4f}' for t in taus]}, same={sames[0]:.1f}, {elapsed:.1f}s")
        for t in taus:
            assert 0.45 <= t <= 0.65
        for s in sames:
            assert s == 1.0
        assert elapsed < 60.0


class TestCriterion3DenoisingGain:
    @pytest.mark.slow
    def test_gcn_beats_noisy_evaluation(self, synthetic_experiments):
        runs, total_seconds = synthetic_experiments
        gains = [r.tau_gcn_vs_truth - r.tau_noisy_vs_truth for r in runs]
        mean_gain = float(np.mean(gains))
        validations = [r.tau_validation for r in runs]
        ok = (
            mean_gain >= 0.10
            and all(v > 0.5 for v in validations)
            and total_seconds < 1800.0
        )
        report("3 (denoising gain)", ok,
               f"mean gain={mean_gain:.4f} (per-seed {[f'{x:+.3f}' for x in gains]}), "
               f"held-out taus={[f'{v:.3f}' for v in validations]}, {total_seconds:.0f}s")
        assert mean_gain >= 0.10
        for v in validations:
            assert v > 0.5
        assert total_seconds < 1800.0


class TestCriterion4RegressionScoreSeparation:
    @pytest.mark.slow
    def test_determination_gap(self, synthetic_experiments):
        runs, _ = synthetic_experiments
        gaps = [r.reg_score_gcn_vs_truth - r.reg_score_noisy_vs_noisy for r in runs]
        mean_gap = float(np.mean(gaps))
        ok = mean_gap >= 0.2
        report("4 (regression-score separation)", ok,
               f"mean gap={mean_gap:.4f} (per-seed {[f'{x:+.3f}' for x in gaps]})")
        assert mean_gap >= 0.2


class TestCriterion5OracleEquivalence:
    def test_exhaustive_noiseless_matches_bruteforce(self):
        spec = g.SearchSpaceSpec(4, 6)
        subspace = g.full_subspace(spec)
        small_gcn = GcnConfig(hidden_dims=(8, 8), epochs=30, dtype="float64")
        round_hits = search_hits = constraint_hits = 0
        trials = 20
        for trial in range(trials):
            truth = g.GroundTruthParams.random(spec, seed_stream(trial, "oracle-truth"))
            supernet = g.SyntheticSupernet(truth, sigma=0.0, checkpoint_seed=trial)

            config = g.SearchConfig(
                m_samples=1296, train_split=1080, top_pool=1296, k_preserve=3,
                gcn=small_gcn, seed=trial,
            )
            result = g.run_round(subspace, supernet, config)
            scores = supernet.evaluate_matrix(result.graph.choice_matrix)
            round_hits += result.report.best_selected.node_index == int(np.argmax(scores))

            separable = dataclasses.replace(truth, pair_strength=0.0)
            sep_supernet = g.SyntheticSupernet(separable, sigma=0.0, checkpoint_seed=trial)
            sep_config = g.SearchConfig(
                m_samples=36, train_split=30, top_pool=36, k_preserve=1,
                gcn=small_gcn, seed=trial,
            )
            sep_plan = g.make_segment_plan(spec, [2, 2])
            final, _ = final_and_reports(spec, sep_plan, sep_supernet, sep_config)
            expected = tuple(int(c) for c in separable.cell_utility.argmax(axis=1))
            search_hits += final.choices == expected

            cost_model = g.bundled_cost_model(spec)
            all_cost = flops_many(result.graph.choice_matrix, cost_model)
            budget = float(np.median(all_cost))
            feasible = all_cost <= budget
            brute = int(np.flatnonzero(feasible)[np.argmax(scores[feasible])])
            selected = g.constraint_select(
                result.graph, result.model, cost_model, budget, supernet, 1296
            )
            constraint_hits += selected.node_index == brute

        ok = round_hits == search_hits == constraint_hits == trials
        report("5 (oracle equivalence)", ok,
               f"run_round {round_hits}/{trials}, search {search_hits}/{trials}, "
               f"constraint_select {constraint_hits}/{trials}")
        assert round_hits == trials
        assert search_hits == trials
        assert constraint_hits == trials


class TestCriterion6Reverification:
    @pytest.mark.slow
    def test_selected_never_below_gcn_top1(self, synthetic_experiments):
        runs, _ = synthetic_experiments
        deltas = [r.best_selected_accuracy - r.gcn_top1_accuracy for r in runs]
        ok = all(d >= 0 for d in deltas) and any(d > 0 for d in deltas)
        report("6 (re-verification gain)", ok,
               f"selected-minus-top1 per seed: {[f'{d:+.5f}' for d in deltas]}")
        for d in deltas:
            assert d >= 0.0
        assert any(d > 0 for d in deltas)


class TestCriterion7Scale:
    def test_full_scale_graph_and_forward(self):
        spec = g.default_space()
        subspace = g.Subspace(spec, tuple(range(7)), {p: 1 for p in range(7, 19)})
        t0 = time.perf_counter()
        graph = g.build_graph(subspace)
        a_hat = g.normalize_adjacency(graph)
        build_seconds = time.perf_counter() - t0
        degrees = graph.adjacency.getnnz(axis=1)
        assert graph.num_nodes == 279_936
        assert degrees.min() == degrees.max() == 35

        model = g.init_model(57, GcnConfig(dtype="float32"), 0)
        t0 = time.perf_counter()
        predictions = g.forward(graph, model)
        forward_seconds = time.perf_counter() - t0
        peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
        ok = forward_seconds < 60.0 and peak_gb < 8.0 and len(predictions) == 279_936
        report("7 (6^7 scale)", ok,
               f"build+normalize {build_seconds:.1f}s, full-width forward "
               f"{forward_seconds:.1f}s, peak RSS {peak_gb:.2f} GB")
        assert len(predictions) == 279_936
        assert np.isfinite(predictions).all()
        assert forward_seconds < 60.0
        assert peak_gb < 8.0


class TestCriterion8NumericalSuite:
    def test_gradient_check(self):
        spec = g.SearchSpaceSpec(3, 4)
        sub = g.Subspace(spec, (0, 1), {2: 0})  # 16 nodes
        graph = g.build_graph(sub)
        a_hat = g.normalize_adjacency(graph)
        config = GcnConfig(hidden_dims=(4,), dtype="float64")
        model = g.init_model(graph.features.shape[1], config, 3)
        model.bias[0] = 0.4
        # the loss must be locally smooth at the test point: keep relu
        # pre-activations and residuals clear of their kinks by more than the
        # finite-difference step can move them
        pre_activation = a_hat @ graph.features.astype(np.float64) @ model.layer_weights[0]
        assert np.abs(pre_activation).min() > 1e-3
        idx = np.array([0, 2, 5, 7, 11, 14])
        out = g.forward(graph, model)
        y = out[idx] - 0.05 * np.array([1, -1, 1, 1, -1, 1], dtype=np.float64)
        wd = 5e-4
        _, grads = loss_and_gradients(graph, model, idx, y, wd)

        def loss_at() -> float:
            out = g.forward(graph, model)
            reg = 0.5 * wd * sum(float((w**2).sum()) for w in [*model.layer_weights, model.head])
            return float(np.abs(out[idx] - y).mean()) + reg

        step = 1e-5
        worst = 0.0
        for param, grad in zip(model.params(), grads):
            flat = param.reshape(-1)
            flat_grad = grad.reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + step
                up = loss_at()
                flat[k] = keep - step
                down = loss_at()
                flat[k] = keep
                numeric = (up - down) / (2 * step)
                denom = max(abs(numeric), abs(flat_grad[k]), 1e-8)
                worst = max(worst, abs(flat_grad[k] - numeric) / denom)
        ok = worst < 1e-4
        report("8a (gradient check)", ok, f"max relative error {worst:.2e}")
        assert worst < 1e-4

    def test_normalized_adjacency_structure(self):
        sub = g.Subspace(g.SearchSpaceSpec(3, 6), (0, 1, 2), {})
        graph = g.build_graph(sub)
        a_hat = g.normalize_adjacency(graph)
        asym = abs(a_hat - a_hat.T).max()
        top = power_iteration_largest_eigenvalue(a_hat)
        ok = asym == 0.0 and top <= 1.0 + 1e-6
        report("8b (adjacency normalization)", ok,
               f"asymmetry {asym:.1e}, largest eigenvalue {top:.8f}")
        assert asym == 0.0
        assert top <= 1.0 + 1e-6

    def test_gray_one_bit_property(self):
        from gcnas.search_space import gray_code_table

        violations = 0
        for num_codes in range(2, 17):
            bits = max(1, (num_codes - 1).bit_length())
            table = gray_code_table(num_codes, bits)
            for i in range(num_codes - 1):
                violations += int(np.sum(table[i] != table[i + 1])) != 1
        ok = violations == 0
        report("8c (Gray one-bit property)", ok, f"{violations} violations over sizes 2..16")
        assert violations == 0

    def test_tau_bruteforce_equivalence(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 9))
            a = rng.integers(0, 4, n).astype(float)
            b = rng.integers(0, 4, n).astype(float)
            if len(set(a)) < 2 or len(set(b)) < 2:
                continue
            worst = max(worst, abs(g.kendall_tau(a, b) - tau_brute(a, b)))
        ok = worst < 1e-12
        report("8d (tau brute-force equivalence)", ok, f"max deviation {worst:.2e}")
        assert worst < 1e-12

    def test_byte_identical_reports(self, tmp_path):
        from gcnas.cli import main

        config = {
            "seed": 3,
            "output_dir": str(tmp_path / "out"),
            "search_space": {"num_layers": 4, "choices_per_layer": 4},
            "plan": [2, 2],
            "search": {
                "m_samples": 14, "train_split": 10, "top_pool": 10, "k_preserve": 4,
                "gcn": {"hidden_dims": [8, 8], "epochs": 30, "dtype": "float64"},
            },
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["search", "--config", str(path)]) == 0
        first = (tmp_path / "out" / "result.json").read_bytes()
        assert main(["search", "--config", str(path)]) == 0
        second = (tmp_path / "out" / "result.json").read_bytes()
        ok = first == second
        report("8e (deterministic reports)", ok,
               f"result.json identical across runs: {ok}")
        assert ok


class TestCriterion9PreservationAblation:
    def test_k6_vs_k1(self):
        spec = g.SearchSpaceSpec(6, 6)
        plan = g.make_segment_plan(spec, [3, 3])
        gcn = GcnConfig(hidden_dims=(16, 16), epochs=120, dtype="float64")
        truth_wins = 0
        evaluated_wins = 0
        for seed in SEEDS:
            truth = g.GroundTruthParams.random(
                spec, seed_stream(seed, "truth"),
                utility_amplitude=0.005, pair_strength=0.01,
            )
            supernet = g.SyntheticSupernet(
                truth, sigma=0.003, checkpoint_seed=seed_stream(seed, "ckpt")
            )
            true_acc = {}
            eval_acc = {}
            for k in (1, 6):
                config = g.SearchConfig(
                    m_samples=180, train_split=150, top_pool=100, k_preserve=k,
                    gcn=gcn, seed=seed,
                )
                final, reports = final_and_reports(spec, plan, supernet, config)
                true_acc[k] = ground_truth_many(np.array([final.choices]), truth)[0]
                eval_acc[k] = reports[-1].best_selected.accuracy
            truth_wins += true_acc[6] >= true_acc[1]
            evaluated_wins += eval_acc[6] >= eval_acc[1]
        ok = truth_wins >= 4 and evaluated_wins >= 4
        report("9 (K-preservation ablation)", ok,
               f"k=6 at least matches k=1 on {truth_wins}/5 seeds (ground truth), "
               f"{evaluated_wins}/5 (evaluated)")
        assert truth_wins >= 4
        assert evaluated_wins >= 4
