import dataclasses
import errno

import numpy as np
import pytest

from gcnas.arch_graph import build_graph, normalize_adjacency
from gcnas.evaluator import (
    CostModel,
    Evaluator,
    GroundTruthParams,
    SyntheticSupernet,
    flops_many,
    ground_truth_many,
)
from gcnas import search_engine
from gcnas.gcn import GcnConfig, forward, train
from gcnas.search_engine import (
    SearchConfig,
    constraint_select,
    reverify,
    run_round,
)
from gcnas.search_space import (
    Architecture,
    SearchSpaceSpec,
    full_subspace,
    make_segment_plan,
    sample_uniform,
)
from gcnas.seeding import seed_stream
from conftest import final_and_reports

SMALL_GCN = GcnConfig(hidden_dims=(8, 8), epochs=60, dtype="float64")


def noiseless_supernet(spec: SearchSpaceSpec, seed: int, pair_strength: float = 0.0005):
    truth = GroundTruthParams.random(spec, seed, pair_strength=pair_strength)
    return SyntheticSupernet(truth, sigma=0.0, checkpoint_seed=seed_stream(seed, "ckpt"))


def exhaustive_config(node_count: int, **overrides) -> SearchConfig:
    base = dict(
        m_samples=node_count,
        train_split=node_count - max(2, node_count // 6),
        top_pool=node_count,
        k_preserve=3,
        gcn=SMALL_GCN,
        seed=0,
    )
    base.update(overrides)
    return SearchConfig(**base)


class TestSearchConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SearchConfig(m_samples=100, train_split=100)
        with pytest.raises(ValueError):
            SearchConfig(k_preserve=10, top_pool=5)

    def test_at_least_two_validation_samples(self):
        with pytest.raises(ValueError, match="at least 2 validation samples"):
            SearchConfig(m_samples=10, train_split=9)
        assert SearchConfig(m_samples=10, train_split=8).train_split == 8


class TestReverify:
    def test_single_candidate(self):
        spec = SearchSpaceSpec(4, 6)
        sn = noiseless_supernet(spec, 0)
        arch = Architecture((1, 2, 3, 4))
        picked = reverify([arch], sn, [0])
        assert picked.architecture == arch
        assert picked.accuracy == sn.evaluate(arch)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            reverify([], noiseless_supernet(SearchSpaceSpec(2, 4), 0), [])

    def test_ties_break_to_lowest_node_index(self):
        spec = SearchSpaceSpec(3, 4)
        flat = GroundTruthParams(0.8, np.zeros((3, 4)), 0.0, 0)
        sn = SyntheticSupernet(flat, sigma=0.0)
        candidates = [Architecture((0, 0, 0)), Architecture((1, 1, 1)), Architecture((2, 2, 2))]
        picked = reverify(candidates, sn, node_indices=[7, 2, 9])
        assert picked.node_index == 2
        assert picked.architecture == candidates[1]

    def test_noiseless_recheck_flips_to_true_best(self):
        # craft a pool whose noisy front-runner is not the ground-truth best
        spec = SearchSpaceSpec(4, 6)
        truth = GroundTruthParams.random(spec, 5)
        noisy = SyntheticSupernet(truth, sigma=0.02, checkpoint_seed=3)
        clean = dataclasses.replace(noisy, sigma=0.0)
        rng = np.random.default_rng(1)
        archs = [Architecture(tuple(rng.integers(0, 6, 4))) for _ in range(64)]
        noisy_scores = noisy.evaluate_many(archs)
        true_scores = np.array([ground_truth_many(np.array([a.choices]), truth)[0] for a in archs])
        assert int(np.argmax(noisy_scores)) != int(np.argmax(true_scores))
        picked = reverify(archs, clean, node_indices=list(range(len(archs))))
        assert picked.architecture == archs[int(np.argmax(true_scores))]


class TestTiesGoToTheLowestNodeId:
    """A flat ground truth without noise scores every node alike, so each
    selection falls to its tie rule."""

    spec = SearchSpaceSpec(3, 4)
    config = SearchConfig(m_samples=30, train_split=24, top_pool=12, k_preserve=5,
                          gcn=SMALL_GCN, seed=4)

    @pytest.fixture(autouse=True)
    def constant_scores_have_no_tau(self, monkeypatch):
        # the validation tau and R^2 are undefined on constant scores, and no
        # selection reads them
        for name in ("kendall_tau", "regression_score"):
            monkeypatch.setattr(search_engine, name, lambda *a: 0.0)

    def flat_round(self):
        flat = GroundTruthParams(0.8, np.zeros((3, 4)), 0.0, 0)
        sn = SyntheticSupernet(flat, sigma=0.0)
        sub = full_subspace(self.spec)
        return sub, sn, run_round(sub, sn, self.config)

    def test_round_preserves_the_lowest_ids_of_its_pool(self):
        _, _, result = self.flat_round()
        pool = np.argsort(-result.predictions, kind="stable")[: self.config.top_pool]
        preserved = [p.node_index for p in result.preserved]
        assert preserved == sorted(pool.tolist())[: self.config.k_preserve]
        assert result.report.best_selected.node_index == preserved[0] == pool.min()
        assert result.report.gcn_top1.node_index == pool[0]

    def test_best_sampled_is_the_lowest_sampled_id(self):
        sub, _, result = self.flat_round()
        digits = sample_uniform(sub, self.config.m_samples,
                                seed_stream(self.config.seed, "sample", 0))
        assert result.report.best_sampled.node_index == sub.index(digits).min()

    def test_constraint_select_returns_the_lowest_id_of_its_pool(self):
        _, sn, result = self.flat_round()
        cost = CostModel(10.0, np.linspace(1, 12, 12).reshape(3, 4))
        all_cost = flops_many(result.graph.choice_matrix, cost)
        budget = float(np.median(all_cost))
        order = np.argsort(-result.predictions, kind="stable")
        pool = order[all_cost[order] <= budget][:6]
        picked = constraint_select(result.graph, result.model, cost, budget, sn, 6)
        assert picked.node_index == pool.min()


class TestRunRound:
    def brute_force_best(self, subspace, supernet):
        graph = build_graph(subspace)
        scores = supernet.evaluate_matrix(graph.choice_matrix)
        return int(np.argmax(scores)), graph

    def test_exhaustive_noiseless_finds_bruteforce_optimum(self):
        spec = SearchSpaceSpec(4, 6)
        sub = full_subspace(spec)
        for seed in range(3):
            sn = noiseless_supernet(spec, seed)
            config = exhaustive_config(sub.node_count, seed=seed)
            result = run_round(sub, sn, config)
            best_node, graph = self.brute_force_best(sub, sn)
            assert result.report.best_selected.node_index == best_node
            z = ground_truth_many(graph.choice_matrix, sn.truth)
            assert result.report.best_selected.accuracy == pytest.approx(
                sn.a * z.max() + sn.b
            )

    def test_report_counts(self):
        spec = SearchSpaceSpec(3, 6)
        sub = full_subspace(spec)
        sn = noiseless_supernet(spec, 1)
        config = SearchConfig(
            m_samples=100, train_split=80, top_pool=10, k_preserve=4, gcn=SMALL_GCN, seed=3
        )
        result = run_round(sub, sn, config)
        report = result.report
        assert report.num_train == 80
        assert report.num_validation == 20
        assert report.num_nodes == 216
        assert len(report.preserved) == 4
        nodes = [p.node_index for p in report.preserved]
        assert len(set(nodes)) == 4

    def test_config_exceeding_subspace_errors(self):
        spec = SearchSpaceSpec(2, 4)
        sub = full_subspace(spec)
        sn = noiseless_supernet(spec, 0)
        with pytest.raises(ValueError, match="m_samples"):
            run_round(sub, sn, SearchConfig(m_samples=100, train_split=90, gcn=SMALL_GCN))
        with pytest.raises(ValueError, match="top_pool"):
            run_round(
                sub,
                sn,
                SearchConfig(m_samples=14, train_split=10, top_pool=20, k_preserve=2,
                             gcn=SMALL_GCN),
            )

    class Shifted(SyntheticSupernet):
        """Scores outside the [0, 1] contract."""

        def evaluate_many(self, archs):
            return super().evaluate_many(archs) + 5

    class Short(SyntheticSupernet):
        """Three scores too few."""

        def evaluate_many(self, archs):
            return super().evaluate_many(archs)[:-3]

    @pytest.mark.parametrize(
        "broken, message, pool_message",
        [(Shifted, r"score 5\.\d+ for architecture [\d,]+ is not a finite value in \[0, 1\]",
          r"is not a finite value in \[0, 1\]"),
         (Short, r"scores of shape \(17,\) for 20 architectures",
          r"scores of shape \(2,\) for 5 architectures")],
        ids=["out-of-range", "short"],
    )
    def test_evaluator_outputs_checked_before_training(
        self, monkeypatch, broken, message, pool_message
    ):
        spec = SearchSpaceSpec(3, 4)
        evaluator = broken(noiseless_supernet(spec, 2).truth)
        config = SearchConfig(m_samples=20, train_split=15, top_pool=5, k_preserve=2,
                              gcn=SMALL_GCN)
        monkeypatch.setattr(search_engine, "train", lambda *a: pytest.fail("trained"))
        with pytest.raises(ValueError, match=message):
            run_round(full_subspace(spec), evaluator, config)
        with pytest.raises(ValueError, match=pool_message):
            reverify([Architecture((0, 0, i)) for i in range(4)] + [Architecture((1, 0, 0))],
                     evaluator, [0, 1, 2, 3, 16])

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), -0.1])
    def test_non_finite_or_negative_scores_rejected(self, score):
        class Constant(Evaluator):
            def evaluate(self, arch):
                return score

        with pytest.raises(ValueError, match="not a finite value in"):
            reverify([Architecture((0,))], Constant(), [0])

    def test_measured_similarity_round(self):
        # the sampled evaluations seed the similarity table; sparse statistics
        # fall back to the assigned weight, so the round must still complete
        from gcnas.arch_graph import MeasuredSimilarity

        spec = SearchSpaceSpec(3, 4)
        sub = full_subspace(spec)
        truth = GroundTruthParams.random(spec, 4)
        sn = SyntheticSupernet(truth, sigma=0.005, checkpoint_seed=2)
        config = SearchConfig(
            m_samples=60, train_split=50, top_pool=12, k_preserve=3,
            similarity=MeasuredSimilarity(min_pairs=3), gcn=SMALL_GCN, seed=5,
        )
        result = run_round(sub, sn, config)
        assert len(result.preserved) == 3
        weights = np.unique(result.graph.adjacency.data)
        assert weights.min() >= 0.01 and weights.max() <= 1.0

    def test_selected_is_argmax_of_reverified_pool(self):
        spec = SearchSpaceSpec(4, 4)
        sub = full_subspace(spec)
        truth = GroundTruthParams.random(spec, 9)
        sn = SyntheticSupernet(truth, sigma=0.01, checkpoint_seed=1)
        config = SearchConfig(
            m_samples=120, train_split=100, top_pool=24, k_preserve=6, gcn=SMALL_GCN, seed=2
        )
        result = run_round(sub, sn, config)
        report = result.report
        assert report.best_selected.accuracy >= report.gcn_top1.accuracy
        preserved_accs = [p.accuracy for p in report.preserved]
        assert preserved_accs == sorted(preserved_accs, reverse=True)


class TestRunSearch:
    def test_separable_truth_exhaustive_finds_percell_argmax(self):
        spec = SearchSpaceSpec(4, 6)
        plan = make_segment_plan(spec, [2, 2])
        for seed in range(3):
            sn = noiseless_supernet(spec, seed, pair_strength=0.0)
            config = exhaustive_config(
                36, k_preserve=1, seed=seed
            )
            final, reports = final_and_reports(spec, plan, sn, config)
            expected = sn.truth.cell_utility.argmax(axis=1)
            assert final.choices == tuple(int(c) for c in expected)
            assert len(reports) == 2

    def test_round_structure_with_supercells(self):
        spec = SearchSpaceSpec(6, 6)
        plan = make_segment_plan(spec, [2, 2, 2])
        sn = noiseless_supernet(spec, 4)
        config = SearchConfig(
            m_samples=30, train_split=24, top_pool=30, k_preserve=6,
            gcn=SMALL_GCN, seed=1
        )
        final, reports = final_and_reports(spec, plan, sn, config)
        assert [r.round_index for r in reports] == [0, 1, 2]
        assert [r.num_nodes for r in reports] == [36, 36 * 6, 36 * 6]
        # layers finalized in round t never resampled later
        seen: set[int] = set()
        for report in reports:
            assert not (set(report.segment) & seen)
            seen |= set(report.segment)
        assert seen == set(range(6))

    def test_deterministic_in_seed(self):
        spec = SearchSpaceSpec(4, 4)
        plan = make_segment_plan(spec, [2, 2])
        truth = GroundTruthParams.random(spec, 2)
        sn = SyntheticSupernet(truth, sigma=0.01, checkpoint_seed=8)
        config = SearchConfig(
            m_samples=14, train_split=10, top_pool=10, k_preserve=4,
            gcn=SMALL_GCN, seed=12
        )
        final1, reports1 = final_and_reports(spec, plan, sn, config)
        final2, reports2 = final_and_reports(spec, plan, sn, config)
        assert final1 == final2
        assert [r.best_selected.accuracy for r in reports1] == [
            r.best_selected.accuracy for r in reports2
        ]

    def test_plan_must_cover_the_space(self):
        spec = SearchSpaceSpec(4, 4)
        plan = make_segment_plan(SearchSpaceSpec(3, 4), [2, 1])
        with pytest.raises(ValueError, match="plan covers 3 layers, space has 4"):
            final_and_reports(spec, plan, noiseless_supernet(spec, 0), exhaustive_config(16))

    @pytest.mark.parametrize("advance", [True, False], ids=["advanced", "fixed"])
    def test_advance_checkpoints_scores_round_t_on_checkpoint_t(self, advance):
        spec = SearchSpaceSpec(6, 4)
        plan = make_segment_plan(spec, [2, 2, 2])
        sn = SyntheticSupernet(GroundTruthParams.random(spec, 3), sigma=0.01, checkpoint_seed=5)
        config = SearchConfig(m_samples=14, train_split=10, top_pool=10, k_preserve=3,
                              gcn=dataclasses.replace(SMALL_GCN, epochs=20), seed=4,
                              advance_checkpoints=advance)
        _, reports = final_and_reports(spec, plan, sn, config)
        checkpoint = sn
        for t, report in enumerate(reports):
            if t > 0 and advance:
                checkpoint = checkpoint.advanced()
            archs = [p.architecture for p in report.preserved]
            scores = checkpoint.evaluate_many(archs).tolist()
            assert [p.accuracy for p in report.preserved] == scores
            # the noise field differs between checkpoints, so the check above
            # tells an advanced search from one that stays on the first
            assert not np.array_equal(sn.evaluate_many(archs), sn.advanced().evaluate_many(archs))

    def test_round_errors_carry_round_context(self):
        spec = SearchSpaceSpec(4, 4)
        plan = make_segment_plan(spec, [2, 2])
        config = exhaustive_config(300)  # too many samples
        with pytest.raises(ValueError, match="round 0"):
            final_and_reports(spec, plan, noiseless_supernet(spec, 0), config)

    @pytest.mark.parametrize(
        "error",
        [
            OSError(errno.EIO, "evaluation store unreadable"),
            UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
            KeyError("checkpoint"),
        ],
    )
    def test_round_errors_keep_type_and_args(self, error):
        class Failing(Evaluator):
            def evaluate(self, arch):
                raise error

        spec = SearchSpaceSpec(4, 4)
        plan = make_segment_plan(spec, [2, 2])
        with pytest.raises(type(error)) as info:
            final_and_reports(spec, plan, Failing(), exhaustive_config(16))
        assert info.value is error
        assert info.value.args == error.args
        assert info.value.__notes__ == ["search round 0"]


class TestConstraintSelect:
    def setup_round(self, seed=0):
        spec = SearchSpaceSpec(4, 6)
        sub = full_subspace(spec)
        sn = noiseless_supernet(spec, seed)
        graph = build_graph(sub)
        normalize_adjacency(graph)
        scores = sn.evaluate_matrix(graph.choice_matrix)
        labeled = np.arange(0, graph.num_nodes, 2)
        model, _ = train(graph, (labeled, scores[labeled]), SMALL_GCN, 0)
        cost = CostModel(10.0, np.linspace(1, 60, 24).reshape(4, 6))
        return graph, model, cost, sn

    def test_infinite_budget_matches_unconstrained(self):
        graph, model, cost, sn = self.setup_round()
        unconstrained = reverify(
            [Architecture(tuple(int(c) for c in row)) for row in graph.choice_matrix],
            sn,
            node_indices=list(range(graph.num_nodes)),
        )
        selected = constraint_select(graph, model, cost, float("inf"), sn, graph.num_nodes)
        assert selected.architecture == unconstrained.architecture

    def test_budget_below_minimum_reports_minimum(self):
        graph, model, cost, sn = self.setup_round()
        min_cost = flops_many(graph.choice_matrix, cost).min()
        with pytest.raises(ValueError, match=f"{min_cost:g}"):
            constraint_select(graph, model, cost, min_cost - 1.0, sn, 10)

    def test_exhaustive_matches_bruteforce_within_budget(self):
        graph, model, cost, sn = self.setup_round(seed=3)
        scores = sn.evaluate_matrix(graph.choice_matrix)
        all_cost = flops_many(graph.choice_matrix, cost)
        budget = float(np.median(all_cost))
        feasible = all_cost <= budget
        expected = int(np.flatnonzero(feasible)[np.argmax(scores[feasible])])
        selected = constraint_select(graph, model, cost, budget, sn, graph.num_nodes)
        assert selected.node_index == expected
        assert all_cost[selected.node_index] <= budget

    def test_run_round_honors_budget(self):
        spec = SearchSpaceSpec(4, 6)
        sub = full_subspace(spec)
        sn = noiseless_supernet(spec, 2)
        cost = CostModel(10.0, np.linspace(1, 60, 24).reshape(4, 6))
        all_cost = flops_many(build_graph(sub).choice_matrix, cost)
        budget = float(np.median(all_cost))
        config = SearchConfig(
            m_samples=200, train_split=180, top_pool=40, k_preserve=5,
            gcn=SMALL_GCN, seed=1, constraint_budget=budget,
        )
        result = run_round(sub, sn, config, cost_model=cost)
        for candidate in result.preserved:
            idx = candidate.node_index
            assert all_cost[idx] <= budget

    def test_run_round_budget_requires_cost_model(self):
        spec = SearchSpaceSpec(3, 4)
        sub = full_subspace(spec)
        config = SearchConfig(
            m_samples=30, train_split=24, top_pool=10, k_preserve=2,
            gcn=SMALL_GCN, constraint_budget=100.0,
        )
        with pytest.raises(ValueError, match="cost model"):
            run_round(sub, noiseless_supernet(spec, 0), config)

    def test_output_always_within_budget(self):
        graph, model, cost, sn = self.setup_round(seed=7)
        all_cost = flops_many(graph.choice_matrix, cost)
        for budget in np.quantile(all_cost, [0.1, 0.4, 0.8]):
            selected = constraint_select(graph, model, cost, float(budget), sn, 20)
            idx = selected.node_index
            assert all_cost[idx] <= budget

    def test_nan_budget_rejected_before_ranking(self, monkeypatch):
        graph, model, cost, sn = self.setup_round()
        monkeypatch.setattr(search_engine, "forward", lambda *a: pytest.fail("ranked"))
        with pytest.raises(ValueError, match="budget must be a number.*nan"):
            constraint_select(graph, model, cost, float("nan"), sn, 10)

    @pytest.mark.parametrize("top_pool", [0, -1])
    def test_top_pool_below_one_rejected(self, top_pool):
        graph, model, cost, sn = self.setup_round()
        with pytest.raises(ValueError, match="top_pool"):
            constraint_select(graph, model, cost, float("inf"), sn, top_pool)


def oracle_select(graph, model, cost, budget, evaluator, top_pool) -> int:
    """The node constraint_select should pick, from the model's own forward
    pass and the cost model's own costs: the measured argmax of the top pool
    within budget, ties toward the lowest node id."""
    order = np.argsort(-forward(graph, model), kind="stable")
    order = order[flops_many(graph.choice_matrix, cost)[order] <= budget][:top_pool]
    scores = evaluator.evaluate_matrix(graph.choice_matrix[order])
    return int(order[np.lexsort((order, -scores))[0]])


class TestLookupTable:
    """constraint_select keeps the node order per model and the costs per
    cost model on the graph; a different model or cost model replaces them."""

    setup_round = TestConstraintSelect.setup_round

    def test_each_model_ranks_with_its_own_predictions(self):
        graph, model, cost, sn = self.setup_round(seed=5)
        # negating the linear head reverses the ranking
        flipped = dataclasses.replace(model, head=-model.head, bias=-model.bias)
        budget = float(np.median(flops_many(graph.choice_matrix, cost)))
        picks = {}
        for m in (model, flipped, model, flipped):
            picked = constraint_select(graph, m, cost, budget, sn, 5)
            assert picked.node_index == oracle_select(graph, m, cost, budget, sn, 5)
            picks.setdefault(id(m), picked.node_index)
        assert picks[id(model)] != picks[id(flipped)]

    def test_each_cost_model_prices_with_its_own_costs(self):
        graph, model, cost, sn = self.setup_round(seed=6)
        reversed_cost = CostModel(cost.fixed_cost, cost.cell_cost[:, ::-1])
        budget = float(np.quantile(flops_many(graph.choice_matrix, cost), 0.3))
        picks = {}
        for c in (cost, reversed_cost, cost, reversed_cost):
            picked = constraint_select(graph, model, c, budget, sn, 5)
            assert picked.node_index == oracle_select(graph, model, c, budget, sn, 5)
            assert flops_many(graph.choice_matrix[[picked.node_index]], c)[0] <= budget
            picks.setdefault(id(c), picked.node_index)
        assert picks[id(cost)] != picks[id(reversed_cost)]

    def test_queries_after_a_round_reuse_its_ranking_and_costs(self, monkeypatch):
        spec = SearchSpaceSpec(4, 6)
        sub = full_subspace(spec)
        sn = noiseless_supernet(spec, 4)
        cost = CostModel(10.0, np.linspace(1, 60, 24).reshape(4, 6))
        config = SearchConfig(m_samples=200, train_split=180, top_pool=20, k_preserve=5,
                              gcn=SMALL_GCN, seed=2)
        result = run_round(sub, sn, config, cost_model=cost)
        calls = {"forward": 0, "flops_many": 0}

        def counted(name):
            inner = getattr(search_engine, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(search_engine, name, counted(name))
        all_cost = flops_many(result.graph.choice_matrix, cost)
        for budget in np.quantile(all_cost, [0.2, 0.6, 0.9]):
            picked = constraint_select(result.graph, result.model, cost, float(budget), sn, 20)
            assert picked.node_index == oracle_select(
                result.graph, result.model, cost, float(budget), sn, 20)
        assert calls == {"forward": 0, "flops_many": 1}
