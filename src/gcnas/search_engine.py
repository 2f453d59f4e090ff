"""Segmented iterative search.

Each round samples and evaluates architectures from the active subspace,
fits the graph regressor to the noisy evaluations, ranks every node of the
subspace by prediction, re-evaluates a pool of top-ranked candidates and
preserves the best K of them. Preserved candidates travel to the next round
as a super-cell; after the last round the re-verified top-1 is the result.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .arch_graph import (
    ArchGraph,
    AssignedSimilarity,
    build_graph,
    check_graph_size,
    node_architecture,
    node_index,
    normalize_adjacency,
)
from .evaluator import CostModel, Evaluator, _choice_matrix, flops_many
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
    similarity: AssignedSimilarity = AssignedSimilarity()
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
        if self.constraint_budget is not None and np.isnan(self.constraint_budget):
            raise ValueError(f"constraint_budget must be a number, got {self.constraint_budget}")


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


def _checked(scores: Any, count: int, architecture: Callable[[int], Architecture]) -> np.ndarray:
    """``scores`` as float64, checked against the Evaluator contract: one
    finite score in [0, 1] for each of ``count`` architectures, the ``i``-th
    of which ``architecture(i)`` builds for the message."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (count,):
        raise ValueError(
            f"evaluator returned scores of shape {scores.shape} for {count} architectures"
        )
    bad = ~((scores >= 0.0) & (scores <= 1.0))  # NaN fails both comparisons
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"evaluator score {float(scores[i])!r} for architecture {architecture(i).to_text()} "
            "is not a finite value in [0, 1]"
        )
    return scores


def _check_validation_scores(
    accuracies: np.ndarray, train_split: int, evaluator: Evaluator
) -> None:
    """Raise if the scores past ``train_split``, the validation set, are all
    equal: their tau against any prediction is undefined, and the round would
    find that out only after training."""
    val = accuracies[train_split:]
    if (val == val[0]).all():
        raise ValueError(
            f"the {len(val)} validation scores past train_split={train_split} are all "
            f"{float(val[0])!r} under {type(evaluator).__name__}; validation tau is undefined"
        )


def _best(
    architecture: Callable[[int], Architecture], node_ids: np.ndarray, accuracies: np.ndarray,
    k: int = 1,
) -> tuple[ScoredArchitecture, ...]:
    """The ``k`` best by measured accuracy, highest first; ties go to the
    lowest node id. ``architecture(i)`` builds the ``i``-th candidate, and is
    called only for those returned."""
    return tuple(
        ScoredArchitecture(architecture(i), float(accuracies[i]), int(node_ids[i]))
        for i in np.lexsort((node_ids, -accuracies))[:k]
    )


def _node_architectures(graph: ArchGraph, node_ids: np.ndarray) -> Callable[[int], Architecture]:
    """Builds the architecture of the ``i``-th node of ``node_ids`` on request."""
    return lambda i: node_architecture(graph, int(node_ids[i]))


def _reverify_rows(
    rows: np.ndarray, node_ids: np.ndarray, evaluator: Evaluator,
    architecture: Callable[[int], Architecture], k: int = 1,
) -> tuple[tuple[ScoredArchitecture, ...], np.ndarray]:
    """Score a pool given as choice ``rows`` (one per id of ``node_ids``)
    with one checked ``evaluator.evaluate_matrix`` call; return its ``k``
    best, as ``_best`` picks them, and every row's score. Only the returned
    candidates are built as architectures."""
    scores = _checked(evaluator.evaluate_matrix(rows), len(rows), architecture)
    return _best(architecture, node_ids, scores, k), scores


def _ranked_within_budget(
    graph: ArchGraph, model: GcnModel, cost_model: CostModel | None, budget: float | None,
    top: int, scores: np.ndarray | None = None,
) -> np.ndarray:
    """The first ``top`` node ids by descending ``model`` prediction (stable;
    ``scores`` if the caller has them) that a multiply-add ``budget`` allows;
    ``None`` allows every node. The ranking is read only until ``top`` ids
    are within budget: prefixes of ``top``, then 4x longer each time, so a
    query whose pool fills early never touches the rest. The order per model
    and the cost per node per cost model stay on the graph. Raises if no node
    is within budget."""
    if graph.ranked_by is None or graph.ranked_by[0] is not model:
        scores = forward(graph, model) if scores is None else scores
        graph.ranked_by = (model, np.argsort(-scores, kind="stable"))
    order = graph.ranked_by[1]
    if budget is None:
        return order[:top]
    if graph.priced_by is None or graph.priced_by[0] is not cost_model:
        graph.priced_by = (cost_model, flops_many(graph.choice_matrix, cost_model))
    cost = graph.priced_by[1]
    stop = top
    while True:
        head = order[:stop]
        within = head[cost[head] <= budget]
        if len(within) >= top or stop >= len(order):
            break
        stop *= 4
    if len(within) == 0:
        raise _over_budget(budget, cost.min())
    return within[:top]


def _over_budget(budget: float, minimum: float) -> ValueError:
    return ValueError(
        f"no architecture within budget {budget:g}; minimum achievable cost is {minimum:g}"
    )


def check_budget(subspace: Subspace, cost_model: CostModel, budget: float) -> None:
    """Raise, as the ranking would, if no node of ``subspace`` is within the
    multiply-add ``budget``; known before anything is sampled, because a
    node's cost is a sum over its layers, so the cheapest node takes each
    slot's cheapest candidate."""
    table = cost_model.cell_cost
    cheapest = [
        min(range(slot.radix), key=lambda d: table[slot.positions, slot.candidates[d]].sum())
        for slot in subspace.slots
    ]
    minimum = flops_many(subspace.choices(np.array([cheapest])), cost_model)[0]
    if not budget >= minimum:
        raise _over_budget(budget, minimum)


def reverify(
    candidates: Sequence[Architecture], evaluator: Evaluator, node_indices: Sequence[int]
) -> ScoredArchitecture:
    """Evaluate each candidate once under the current checkpoint and return
    the best: the highest measured accuracy, ties to the lowest node index."""
    if not candidates:
        raise ValueError("reverify needs a non-empty candidate list")
    if len(node_indices) != len(candidates):
        raise ValueError(
            f"reverify got {len(candidates)} candidates but {len(node_indices)} node indices"
        )
    rows = _choice_matrix(candidates)
    return _reverify_rows(rows, np.asarray(node_indices), evaluator, candidates.__getitem__)[0][0]


def _later_round_nodes(spec: SearchSpaceSpec, segment: Sequence[int], config: SearchConfig) -> int:
    """The node count of a round after the first when no constraint budget
    is set: every preceding round preserves exactly ``k_preserve`` candidates,
    which form one super-cell beside the segment's free layers."""
    return spec.choices_per_layer ** len(segment) * config.k_preserve


def _check_nodes(n: int, config: SearchConfig) -> None:
    """Raise if a round of ``n`` nodes is past the node cap or holds fewer
    nodes than ``m_samples`` or ``top_pool``."""
    check_graph_size(n)
    for name in ("m_samples", "top_pool"):
        if getattr(config, name) > n:
            raise ValueError(
                f"{name}={getattr(config, name)} exceeds the {n} nodes of the subspace"
            )


def check_round(
    subspace: Subspace, config: SearchConfig, cost_model: CostModel | None = None
) -> None:
    """Raise, as ``run_round`` does before it samples, if the round cannot
    run: the subspace is past the node cap, holds fewer nodes than
    ``m_samples`` or ``top_pool``, or no node is within the constraint
    budget. Known from the config alone, so a command checks its first round
    before it writes anything."""
    _check_nodes(subspace.node_count, config)
    if config.constraint_budget is not None:
        if cost_model is None:
            raise ValueError("constraint_budget set but no cost model given")
        check_budget(subspace, cost_model, config.constraint_budget)


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
    check_round(subspace, config, cost_model)
    n = subspace.node_count

    digits = sample_uniform(
        subspace, config.m_samples, seed_stream(config.seed, "sample", round_index)
    )
    node_ids = np.array([node_index(subspace, row) for row in digits], dtype=np.int64)
    archs = [materialize(subspace, row) for row in digits]
    accuracies = _checked(evaluator.evaluate_many(archs), len(archs), archs.__getitem__)
    _check_validation_scores(accuracies, config.train_split, evaluator)

    graph = build_graph(subspace, config.similarity)
    normalize_adjacency(graph, np.dtype(config.gcn.dtype))

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
        graph, model, cost_model, config.constraint_budget, config.top_pool, predictions
    )
    pool_architecture = _node_architectures(graph, pool_ids)
    preserved, pool_accs = _reverify_rows(
        graph.choice_matrix[pool_ids], pool_ids, evaluator, pool_architecture, config.k_preserve
    )
    gcn_top1 = ScoredArchitecture(pool_architecture(0), float(pool_accs[0]), int(pool_ids[0]))

    report = RoundReport(
        round_index=round_index,
        segment=tuple(subspace.free_positions),
        num_nodes=n,
        num_train=split,
        num_validation=len(val_ids),
        tau_val=tau_val,
        reg_score_val=reg_score_val,
        best_sampled=_best(archs.__getitem__, node_ids, accuracies)[0],
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


@contextlib.contextmanager
def in_round(t: int) -> Iterator[None]:
    """Note round ``t`` on any exception that escapes, which keeps its
    identity, type and arguments."""
    try:
        yield
    except Exception as exc:
        exc.add_note(f"round {t}")
        raise


def iter_search_rounds(
    spec: SearchSpaceSpec,
    plan: SegmentPlan,
    evaluator: Evaluator,
    config: SearchConfig,
    cost_model: CostModel | None = None,
    initial: Architecture | None = None,
) -> Iterator[RoundResult]:
    """Run the plan's segments in order from ``initial`` (the default
    initial architecture when omitted), yielding each round's result. The
    plan, the start architecture and the first round (``check_round``) are
    checked at the call, before any round runs, and so are the node counts of
    the later rounds when no constraint budget is set; with one, a round may
    preserve fewer candidates, and each later round is checked as it starts."""
    if plan.num_layers != spec.num_layers:
        raise ValueError(
            f"plan covers {plan.num_layers} layers, space has {spec.num_layers}"
        )
    initial = initial or default_initial_architecture(spec)
    spec.validate_architecture(initial)
    with in_round(0):
        check_round(round_subspace(spec, plan.segments[0], (), (), initial), config, cost_model)
    if config.constraint_budget is None:
        for t, segment in enumerate(plan.segments[1:], start=1):
            with in_round(t):
                _check_nodes(_later_round_nodes(spec, segment, config), config)
    return _search_rounds(spec, plan, evaluator, config, cost_model, initial)


def _search_rounds(
    spec: SearchSpaceSpec,
    plan: SegmentPlan,
    evaluator: Evaluator,
    config: SearchConfig,
    cost_model: CostModel | None,
    initial: Architecture,
) -> Iterator[RoundResult]:
    preserved: tuple[ScoredArchitecture, ...] = ()
    searched: list[int] = []
    current = evaluator
    for t, segment in enumerate(plan.segments):
        if t > 0 and config.advance_checkpoints:
            current = current.advanced()
        subspace = round_subspace(spec, segment, searched, preserved, initial)
        with in_round(t):
            result = run_round(subspace, current, config, round_index=t, cost_model=cost_model)
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
    """Read the ranking of all nodes by prediction until ``top_pool`` nodes
    within the multiply-add budget are found, re-evaluate that pool from its
    choice rows and return the measured argmax, the one node built as an
    architecture. The ranking and the costs stay on the graph for the next
    query."""
    if top_pool < 1:
        raise ValueError(f"top_pool must be at least 1, got {top_pool}")
    if np.isnan(budget):
        raise ValueError(f"budget must be a number of multiply-adds, got {budget}")
    pool_ids = _ranked_within_budget(graph, model, cost_model, budget, top_pool)
    rows = graph.choice_matrix[pool_ids]
    return _reverify_rows(rows, pool_ids, evaluator, _node_architectures(graph, pool_ids))[0][0]
