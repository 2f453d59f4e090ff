"""Segmented iterative search.

Each round samples and evaluates architectures from the active subspace,
fits the graph regressor to the noisy evaluations, ranks every node of the
subspace by prediction, re-evaluates a pool of top-ranked candidates and
preserves the best K of them. Preserved candidates travel to the next round
as a super-cell; after the last round the re-verified top-1 is the result.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from .arch_graph import (
    ArchGraph,
    AssignedSimilarity,
    SimilarityMode,
    build_graph,
    node_architecture,
    node_index,
    normalize_adjacency,
)
from .evaluator import CostModel, Evaluator, flops_many
from .gcn import GcnConfig, GcnModel, forward, train
from .metrics import kendall_tau, regression_score
from .search_space import (
    Architecture,
    SearchSpaceSpec,
    SegmentPlan,
    Subspace,
    SuperCell,
    default_initial_architecture,
    materialize,
    sample_uniform,
)
from .seeding import seed_stream


@dataclass(frozen=True)
class SearchConfig:
    m_samples: int = 2000
    train_split: int = 1800
    top_pool: int = 100
    k_preserve: int = 6
    plan: SegmentPlan | None = None
    similarity: SimilarityMode = AssignedSimilarity()
    gcn: GcnConfig = GcnConfig()
    seed: int = 0
    constraint_budget: float | None = None
    advance_checkpoints: bool = False
    initial_architecture: Architecture | None = None

    def __post_init__(self) -> None:
        if not 0 < self.train_split < self.m_samples:
            raise ValueError(
                f"train_split must lie in (0, m_samples); got {self.train_split} of {self.m_samples}"
            )
        if not 1 <= self.k_preserve <= self.top_pool:
            raise ValueError(
                f"need 1 <= k_preserve <= top_pool; got k={self.k_preserve}, pool={self.top_pool}"
            )


@dataclass(frozen=True)
class ScoredArchitecture:
    architecture: Architecture
    accuracy: float
    node_index: int | None = None

    def as_dict(self) -> dict[str, Any]:
        return {"architecture": self.architecture.to_text(), "accuracy": self.accuracy}


@dataclass(frozen=True)
class RoundReport:
    round_index: int
    segment: tuple[int, ...]
    num_nodes: int
    num_train: int
    num_validation: int
    tau_val: float
    reg_score_val: float
    best_sampled: ScoredArchitecture
    best_selected: ScoredArchitecture
    gcn_top1: ScoredArchitecture
    preserved: tuple[ScoredArchitecture, ...]
    final_train_loss: float
    wall_seconds: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "round_index": self.round_index,
            "segment": list(self.segment),
            "num_nodes": self.num_nodes,
            "num_train": self.num_train,
            "num_validation": self.num_validation,
            "tau_val": self.tau_val,
            "reg_score_val": self.reg_score_val,
            "best_sampled": self.best_sampled.as_dict(),
            "best_selected": self.best_selected.as_dict(),
            "gcn_top1": self.gcn_top1.as_dict(),
            "preserved": [p.as_dict() for p in self.preserved],
            "final_train_loss": self.final_train_loss,
            "wall_seconds": self.wall_seconds,
        }


@dataclass
class RoundResult:
    """Everything a round produced; ``preserved`` and ``report`` are the
    contract, the rest supports downstream tooling (prediction dumps,
    constraint filtering)."""

    preserved: tuple[ScoredArchitecture, ...]
    report: RoundReport
    graph: ArchGraph
    model: GcnModel
    predictions: np.ndarray
    loss_curve: list[float]


def _rank_by_accuracy(accuracies: np.ndarray, node_ids: np.ndarray) -> np.ndarray:
    """Descending accuracy, ties broken by lowest node index."""
    return np.lexsort((node_ids, -accuracies))


def _evaluate(evaluator: Evaluator, archs: Sequence[Architecture]) -> np.ndarray:
    """``evaluator.evaluate_many(archs)``, checked against the Evaluator
    contract: one finite score in [0, 1] per architecture."""
    scores = np.asarray(evaluator.evaluate_many(archs), dtype=np.float64)
    if scores.shape != (len(archs),):
        raise ValueError(
            f"evaluator returned scores of shape {scores.shape} for {len(archs)} architectures"
        )
    bad = ~((scores >= 0.0) & (scores <= 1.0))  # NaN fails both comparisons
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"evaluator score {float(scores[i])!r} for architecture {archs[i].to_text()} "
            "is not a finite value in [0, 1]"
        )
    return scores


def _rank_within_budget(
    graph: ArchGraph,
    predictions: np.ndarray,
    cost_model: CostModel | None,
    budget: float | None,
    context: str = "",
) -> np.ndarray:
    """Node ids by descending prediction (stable), keeping those whose
    multiply-add cost is within ``budget``; ``None`` keeps every node.
    Raises if no node is within budget, the message prefixed by ``context``."""
    order = np.argsort(-predictions, kind="stable")
    if budget is None:
        return order
    cost = flops_many(graph.choice_matrix, cost_model)
    order = order[cost[order] <= budget]
    if len(order) == 0:
        raise ValueError(
            f"{context}no architecture within budget {budget:g}; "
            f"minimum achievable cost is {cost.min():g}"
        )
    return order


def reverify(
    candidates: Sequence[Architecture],
    evaluator: Evaluator,
    node_indices: Sequence[int] | None = None,
) -> ScoredArchitecture:
    """Evaluate each candidate once under the current checkpoint and return
    the measured argmax; ties break toward the lowest node index (or the
    earliest candidate when indices are not given)."""
    if not candidates:
        raise ValueError("reverify needs a non-empty candidate list")
    ids = np.arange(len(candidates)) if node_indices is None else np.asarray(node_indices)
    accuracies = _evaluate(evaluator, list(candidates))
    best = _rank_by_accuracy(accuracies, ids)[0]
    node = None if node_indices is None else int(ids[best])
    return ScoredArchitecture(candidates[best], float(accuracies[best]), node)


def run_round(
    subspace: Subspace,
    evaluator: Evaluator,
    config: SearchConfig,
    round_index: int = 0,
    cost_model: CostModel | None = None,
) -> RoundResult:
    """One search round: sample, evaluate, fit the regressor, re-verify the
    predicted top pool and preserve the best K candidates."""
    start = time.perf_counter()
    n = subspace.node_count
    if config.m_samples > n:
        raise ValueError(
            f"round {round_index}: m_samples={config.m_samples} exceeds the "
            f"{n} nodes of the subspace"
        )
    if config.top_pool > n:
        raise ValueError(
            f"round {round_index}: top_pool={config.top_pool} exceeds the "
            f"{n} nodes of the subspace"
        )
    if config.m_samples - config.train_split < 2:
        raise ValueError(
            f"round {round_index}: need at least 2 validation samples, got "
            f"{config.m_samples - config.train_split}"
        )
    if config.constraint_budget is not None and cost_model is None:
        raise ValueError(f"round {round_index}: constraint_budget set but no cost model given")

    digits = sample_uniform(
        subspace, config.m_samples, seed_stream(config.seed, "sample", round_index)
    )
    node_ids = np.array([node_index(subspace, row) for row in digits], dtype=np.int64)
    archs = [materialize(subspace, row) for row in digits]
    accuracies = _evaluate(evaluator, archs)

    graph = build_graph(subspace, config.similarity, samples=(digits, accuracies))
    normalize_adjacency(graph)

    split = config.train_split
    train_labels = list(zip(node_ids[:split].tolist(), accuracies[:split].tolist()))
    val_ids = node_ids[split:]
    val_accs = accuracies[split:]

    gcn_config = dataclasses.replace(
        config.gcn, seed=seed_stream(config.seed, "gcn-init", round_index)
    )
    model, loss_curve = train(graph, train_labels, gcn_config)
    predictions = forward(graph, model)

    tau_val = kendall_tau(predictions[val_ids], val_accs)
    reg_score_val = regression_score(predictions[val_ids], val_accs)

    order = _rank_within_budget(
        graph, predictions, cost_model, config.constraint_budget, f"round {round_index}: "
    )
    pool_ids = order[: config.top_pool]
    pool_archs = [node_architecture(graph, int(i)) for i in pool_ids]
    pool_accs = _evaluate(evaluator, pool_archs)
    pool_rank = _rank_by_accuracy(pool_accs, pool_ids)

    k = min(config.k_preserve, len(pool_ids))
    preserved = tuple(
        ScoredArchitecture(pool_archs[i], float(pool_accs[i]), int(pool_ids[i]))
        for i in pool_rank[:k]
    )
    gcn_top1 = ScoredArchitecture(pool_archs[0], float(pool_accs[0]), int(pool_ids[0]))
    best_sampled_at = _rank_by_accuracy(accuracies, node_ids)[0]
    best_sampled = ScoredArchitecture(
        archs[best_sampled_at], float(accuracies[best_sampled_at]), int(node_ids[best_sampled_at])
    )

    report = RoundReport(
        round_index=round_index,
        segment=tuple(subspace.free_positions),
        num_nodes=n,
        num_train=split,
        num_validation=len(val_ids),
        tau_val=tau_val,
        reg_score_val=reg_score_val,
        best_sampled=best_sampled,
        best_selected=preserved[0],
        gcn_top1=gcn_top1,
        preserved=preserved,
        final_train_loss=loss_curve[-1],
        wall_seconds=time.perf_counter() - start,
    )
    return RoundResult(preserved, report, graph, model, predictions, loss_curve)


def round_subspace(
    spec: SearchSpaceSpec,
    segment: Sequence[int],
    searched: Sequence[int],
    preserved: Sequence[ScoredArchitecture],
    initial: Architecture,
) -> Subspace:
    """Subspace of one round: the segment is free, previously searched layers
    form one super-cell of the preserved candidates, everything else stays at
    the initial architecture."""
    super_cells: tuple[SuperCell, ...] = ()
    if searched:
        positions = tuple(sorted(searched))
        candidates = tuple(
            tuple(p.architecture.choices[pos] for pos in positions) for p in preserved
        )
        super_cells = (SuperCell(positions, candidates),)
    untouched = set(range(spec.num_layers)) - set(segment) - set(searched)
    fixed = {pos: initial.choices[pos] for pos in untouched}
    return Subspace(spec, tuple(segment), fixed, super_cells)


def iter_search_rounds(
    spec: SearchSpaceSpec,
    evaluator: Evaluator,
    config: SearchConfig,
    cost_model: CostModel | None = None,
) -> Iterator[RoundResult]:
    """Run the plan's segments in order, yielding each round's result."""
    plan = config.plan
    if plan is None:
        raise ValueError("search config has no segment plan")
    if plan.num_layers != spec.num_layers:
        raise ValueError(
            f"plan covers {plan.num_layers} layers, space has {spec.num_layers}"
        )
    initial = config.initial_architecture or default_initial_architecture(spec)
    spec.validate_architecture(initial)

    preserved: tuple[ScoredArchitecture, ...] = ()
    searched: list[int] = []
    current = evaluator
    for t, segment in enumerate(plan.segments):
        if t > 0 and config.advance_checkpoints:
            current = current.advanced()
        subspace = round_subspace(spec, segment, searched, preserved, initial)
        try:
            result = run_round(subspace, current, config, round_index=t, cost_model=cost_model)
        except Exception as exc:
            exc.add_note(f"search round {t}")
            raise
        preserved = result.preserved
        searched.extend(segment)
        yield result


def run_search(
    spec: SearchSpaceSpec,
    evaluator: Evaluator,
    config: SearchConfig,
    cost_model: CostModel | None = None,
) -> tuple[Architecture, list[RoundReport]]:
    """Run every segment of the plan in order and return the final
    re-verified top-1 architecture with the per-round reports."""
    reports: list[RoundReport] = []
    final: ScoredArchitecture | None = None
    for result in iter_search_rounds(spec, evaluator, config, cost_model):
        reports.append(result.report)
        final = result.preserved[0]
    assert final is not None  # plans are non-empty by construction
    return final.architecture, reports


def constraint_select(
    graph: ArchGraph,
    model: GcnModel,
    cost_model: CostModel,
    budget: float,
    evaluator: Evaluator,
    top_pool: int,
) -> ScoredArchitecture:
    """Rank all nodes by prediction, keep those within the multiply-add
    budget, re-evaluate the surviving top pool and return the measured
    argmax."""
    pool_ids = _rank_within_budget(graph, forward(graph, model), cost_model, budget)[:top_pool]
    pool_archs = [node_architecture(graph, int(i)) for i in pool_ids]
    return reverify(pool_archs, evaluator, node_indices=pool_ids.tolist())
