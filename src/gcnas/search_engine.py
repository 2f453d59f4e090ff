"""Segmented iterative search.

Each round samples and evaluates architectures from the active subspace,
fits the graph regressor to the noisy evaluations, ranks every node of the
subspace by prediction, re-evaluates a pool of top-ranked candidates and
preserves the best K of them. Preserved candidates travel to the next round
as a super-cell; after the last round the re-verified top-1 is the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
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
    """The settings of one round; the driver takes the plan and the start
    architecture."""

    m_samples: int = 2000
    train_split: int = 1800
    top_pool: int = 100
    k_preserve: int = 6
    similarity: SimilarityMode = AssignedSimilarity()
    gcn: GcnConfig = GcnConfig()
    seed: int = 0
    constraint_budget: float | None = None
    advance_checkpoints: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.train_split <= self.m_samples - 2:
            raise ValueError(
                "train_split must lie in (0, m_samples - 2] to leave at least 2 validation "
                f"samples; got {self.train_split} of {self.m_samples}"
            )
        if not 1 <= self.k_preserve <= self.top_pool:
            raise ValueError(
                f"need 1 <= k_preserve <= top_pool; got k={self.k_preserve}, pool={self.top_pool}"
            )


@dataclass(frozen=True)
class ScoredArchitecture:
    architecture: Architecture
    accuracy: float
    node_index: int

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
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value: Any) -> Any:
    """A report field as JSON data: scored architectures as dicts, tuples as lists."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.as_dict() if isinstance(value, ScoredArchitecture) else value


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


def _best(
    archs: Sequence[Architecture], node_ids: np.ndarray, accuracies: np.ndarray, k: int = 1
) -> tuple[ScoredArchitecture, ...]:
    """The ``k`` best by measured accuracy, highest first; ties go to the
    lowest node id."""
    return tuple(
        ScoredArchitecture(archs[i], float(accuracies[i]), int(node_ids[i]))
        for i in np.lexsort((node_ids, -accuracies))[:k]
    )


def _ranked_within_budget(
    graph: ArchGraph, model: GcnModel, cost_model: CostModel | None, budget: float | None,
    scores: np.ndarray | None = None, context: str = "",
) -> np.ndarray:
    """Node ids by descending ``model`` prediction (stable; ``scores`` if the
    caller has them) that a multiply-add ``budget`` allows; ``None`` keeps every
    node. The order per model and the cost per node per cost model stay on the
    graph. Raises if no node is within budget, the message led by ``context``."""
    if graph.ranked_by is None or graph.ranked_by[0] is not model:
        scores = forward(graph, model) if scores is None else scores
        graph.ranked_by = (model, np.argsort(-scores, kind="stable"))
    order = graph.ranked_by[1]
    if budget is None:
        return order
    if graph.priced_by is None or graph.priced_by[0] is not cost_model:
        graph.priced_by = (cost_model, flops_many(graph.choice_matrix, cost_model))
    cost = graph.priced_by[1]
    order = order[cost[order] <= budget]
    if len(order) == 0:
        raise ValueError(
            f"{context}no architecture within budget {budget:g}; "
            f"minimum achievable cost is {cost.min():g}"
        )
    return order


def reverify(
    candidates: Sequence[Architecture], evaluator: Evaluator, node_indices: Sequence[int]
) -> ScoredArchitecture:
    """Evaluate each candidate once under the current checkpoint and return
    the best: the highest measured accuracy, ties to the lowest node index."""
    if not candidates:
        raise ValueError("reverify needs a non-empty candidate list")
    return _best(candidates, np.asarray(node_indices), _evaluate(evaluator, list(candidates)))[0]


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
    val_ids = node_ids[split:]
    val_accs = accuracies[split:]

    labels = (node_ids[:split], accuracies[:split])
    seed = seed_stream(config.seed, "gcn-init", round_index)
    model, loss_curve = train(graph, labels, config.gcn, seed)
    predictions = forward(graph, model)

    tau_val = kendall_tau(predictions[val_ids], val_accs)
    reg_score_val = regression_score(predictions[val_ids], val_accs)

    pool_ids = _ranked_within_budget(
        graph, model, cost_model, config.constraint_budget, predictions, f"round {round_index}: "
    )[: config.top_pool]
    pool_archs = [node_architecture(graph, int(i)) for i in pool_ids]
    pool_accs = _evaluate(evaluator, pool_archs)
    preserved = _best(pool_archs, pool_ids, pool_accs, config.k_preserve)
    gcn_top1 = ScoredArchitecture(pool_archs[0], float(pool_accs[0]), int(pool_ids[0]))

    report = RoundReport(
        round_index=round_index,
        segment=tuple(subspace.free_positions),
        num_nodes=n,
        num_train=split,
        num_validation=len(val_ids),
        tau_val=tau_val,
        reg_score_val=reg_score_val,
        best_sampled=_best(archs, node_ids, accuracies)[0],
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
    plan: SegmentPlan,
    evaluator: Evaluator,
    config: SearchConfig,
    cost_model: CostModel | None = None,
    initial: Architecture | None = None,
) -> Iterator[RoundResult]:
    """Run the plan's segments in order from ``initial`` (the default
    initial architecture when omitted), yielding each round's result."""
    if plan.num_layers != spec.num_layers:
        raise ValueError(
            f"plan covers {plan.num_layers} layers, space has {spec.num_layers}"
        )
    initial = initial or default_initial_architecture(spec)
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
        # the next round needs only the preserved candidates; holding this
        # round's result would keep its graph and model alive while the next
        # round builds and trains its own
        del result


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
    argmax. The ranking and the costs stay on the graph for the next query."""
    if top_pool < 1:
        raise ValueError(f"top_pool must be at least 1, got {top_pool}")
    if np.isnan(budget):
        raise ValueError(f"budget must be a number of multiply-adds, got {budget}")
    pool_ids = _ranked_within_budget(graph, model, cost_model, budget)[:top_pool]
    pool_archs = [node_architecture(graph, int(i)) for i in pool_ids]
    return reverify(pool_archs, evaluator, node_indices=pool_ids.tolist())
