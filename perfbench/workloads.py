"""The benchmark's workloads: inputs made from the seed, the timed body, and
the output checks with their exact oracles.

Every workload runs in a child process (see ``child.py``) in three steps:
``setup`` builds what the timed body needs, ``body`` runs the timed
operations, each inside an ``op`` span, and ``verify`` checks the outputs
afterwards, with the tracer removed, against oracles recomputed with NumPy
and SciPy. Oracles and checks are never inside a timed region.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from gcnas import cli, gcn, search_engine
from gcnas.evaluator import flops, ground_truth_many, sample_architectures
from gcnas.search_space import Architecture, Subspace
from gcnas.seeding import seed_stream

from tracing import Tracer

# Epoch counts are the run-length settings: each is chosen so that one
# operation takes a few seconds on a 2-core machine, leaving room for several
# operations, and several set-ups, inside one measured run.
SEARCH_CI_EPOCHS = 40
ROUND_WIDE_EPOCHS = 10
LOOKUP_EPOCHS = 4
CALIBRATE_N = 30_000
LOOKUP_QUERIES = 12

CI_GCN = {"hidden_dims": [32, 32], "dtype": "float32"}


@dataclass
class Context:
    """What one child run shares between set-up, body and checks."""

    seed: int
    dir: Path
    tracer: Tracer
    state: dict[str, Any] = field(default_factory=dict)
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    def op(self, fn: Callable, *args: Any) -> Any:
        """One timed operation of the body."""
        return self.tracer.call("op", "bench", fn, *args)

    def cli(self, *argv: str) -> str:
        """``gcnas <argv>`` in this process; returns what it printed."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.tracer.call("cli.main", "cli", cli.main, list(argv))
        if code != 0:
            raise RuntimeError(f"gcnas {' '.join(argv)} exited with {code}")
        return out.getvalue()

    def capture(self, module: Any, attr: str, sink: list, generator: bool = False) -> None:
        """Keep every result ``module.attr`` returns (or yields) in ``sink``,
        so the checks can see what the command computed."""
        original = getattr(module, attr)
        if generator:

            @functools.wraps(original)
            def keep(*args: Any, **kwargs: Any) -> Any:
                for item in original(*args, **kwargs):
                    sink.append(item)
                    yield item

        else:

            @functools.wraps(original)
            def keep(*args: Any, **kwargs: Any) -> Any:
                result = original(*args, **kwargs)
                sink.append(result)
                return result

        self._patches.append((module, attr, original))
        setattr(module, attr, keep)

    def release(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write_config(self, raw: dict) -> str:
        path = self.dir / "config.json"
        path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
        return str(path)


@dataclass
class Outcome:
    """Checks of one child run. ``op_ok`` has one flag per timed operation;
    ``failures`` describes every check that failed."""

    op_ok: list[bool]
    failures: list[str]
    quality: dict[str, float | None]
    output_sha256: str


def _digest(*paths: Path, drop: tuple[str, ...] = ()) -> str:
    h = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        if drop:
            report = json.loads(data)
            for key in drop:
                report.pop(key, None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(data)
    return h.hexdigest()


def _kendall(a: np.ndarray, b: np.ndarray) -> float:
    import scipy.stats  # imported here to keep it out of the measured set-up

    return float(scipy.stats.kendalltau(a, b).statistic)


def _expected_reverify(choices: np.ndarray, pool: np.ndarray, evaluator: Any) -> tuple[int, float]:
    """Node and accuracy re-verification must return for ``pool``: the
    measured argmax, ties to the lowest node index."""
    accs = evaluator.evaluate_matrix(choices[pool])
    best = np.lexsort((pool, -accs))[0]
    return int(pool[best]), float(accs[best])


def expected_selection(
    preds: np.ndarray, cost: np.ndarray, budget: float, choices: np.ndarray, evaluator: Any, top: int
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """What a budget query must return: the nodes within budget by falling
    prediction, the re-verified pool (their first ``top``), and its best
    node with that node's accuracy."""
    order = np.argsort(-preds, kind="stable")
    within = order[cost[order] <= budget]
    pool = within[:top]
    return (within, pool, *_expected_reverify(choices, pool, evaluator))


def _top_by_truth(truth: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    return ids[np.lexsort((ids, -truth[ids]))[:k]]


def _round_checks(results: list, reports: list[dict], config: Any) -> tuple[list[str], dict]:
    """Checks shared by the round workloads, and their quality figures."""
    failures = []
    sim = config.simulator
    top = config.search.top_pool
    precisions = []
    for result, report in zip(results, reports):
        t = report["round_index"]
        if report["best_selected"]["accuracy"] < report["gcn_top1"]["accuracy"]:
            failures.append(f"round {t}: best_selected below gcn_top1")
        for key in ("best_selected", "gcn_top1"):
            arch = Architecture.from_text(report[key]["architecture"])
            if round(sim.evaluate(arch), 6) != report[key]["accuracy"]:
                failures.append(f"round {t}: {key} accuracy is not the evaluator's score")
        preds = result.predictions
        if not np.isfinite(preds).all():
            failures.append(f"round {t}: non-finite predictions")
        choices = result.graph.choice_matrix
        pool = np.argsort(-preds, kind="stable")[:top]
        node, acc = _expected_reverify(choices, pool, sim)
        best = result.preserved[0]
        if (best.node_index, best.accuracy) != (node, acc):
            failures.append(f"round {t}: re-verified best {best.node_index} != oracle {node}")
        truth = ground_truth_many(choices, sim.truth)
        ids = np.arange(len(truth))
        precisions.append(len(np.intersect1d(pool, _top_by_truth(truth, ids, top))) / len(pool))
    last = results[-1]
    truth = ground_truth_many(last.graph.choice_matrix, sim.truth)
    quality = {
        "tau_val": last.report.tau_val,
        "tau_truth": _kendall(last.predictions, truth),
        "regret": float(truth.max() - ground_truth_many(
            np.asarray([last.preserved[0].architecture.choices]), sim.truth)[0]),
        "pool_precision": float(np.mean(precisions)),
    }
    return failures, quality


def _evals(ctx: Context) -> int:
    return sum(s.get("items", 0) for s in ctx.tracer.spans if s["name"] == "evaluate_matrix")


class SearchCI:
    name = "search-ci"

    @staticmethod
    def raw_config(seed: int) -> dict:
        return {
            "seed": seed,
            "search_space": {"num_layers": 10, "choices_per_layer": 6},
            "plan": [5, 5],
            "search": {"gcn": CI_GCN | {"epochs": SEARCH_CI_EPOCHS}},
        }

    def setup(self, ctx: Context) -> None:
        ctx.state["config"] = ctx.write_config(self.raw_config(ctx.seed))
        ctx.state["rounds"] = []
        ctx.capture(cli, "iter_search_rounds", ctx.state["rounds"], generator=True)

    def body(self, ctx: Context) -> None:
        ctx.op(ctx.cli, "search", "--config", ctx.state["config"], "--out", str(ctx.dir),
               "--dump-predictions")

    def verify(self, ctx: Context) -> Outcome:
        config = cli.load_config(ctx.state["config"])
        results = ctx.state["rounds"]
        reports = [json.loads((ctx.dir / f"round_{t}.json").read_text()) for t in range(len(results))]
        failures, quality = _round_checks(results, reports, config)
        search = config.search
        expected = len(results) * (search.m_samples + search.top_pool)
        quality["evals"] = _evals(ctx)
        if quality["evals"] != expected or len(results) != config.plan.num_rounds:
            failures.append(f"evals {quality['evals']} != rounds x (m_samples + top_pool) = {expected}")
        final = json.loads((ctx.dir / "result.json").read_text())
        arch = Architecture.from_text(final["architecture"])
        if round(config.simulator.evaluate(arch), 6) != final["accuracy"]:
            failures.append("result.json accuracy is not the evaluator's score")
        if arch != results[-1].preserved[0].architecture:
            failures.append("result.json architecture is not the last round's best")
        return Outcome([not failures], failures, quality, _digest(ctx.dir / "result.json"))


class RoundWide:
    name = "round-wide"

    @staticmethod
    def raw_config(seed: int) -> dict:
        return {"seed": seed, "plan": [5, 7, 7], "search": {"gcn": {"epochs": ROUND_WIDE_EPOCHS}}}

    def setup(self, ctx: Context) -> None:
        ctx.state["config"] = ctx.write_config(self.raw_config(ctx.seed))
        ctx.state["rounds"] = []
        ctx.capture(cli, "run_round", ctx.state["rounds"])

    def body(self, ctx: Context) -> None:
        ctx.op(ctx.cli, "round", "--config", ctx.state["config"], "--out", str(ctx.dir),
               "--segment", "0")

    def verify(self, ctx: Context) -> Outcome:
        config = cli.load_config(ctx.state["config"])
        results = ctx.state["rounds"]
        reports = [json.loads((ctx.dir / "round_0.json").read_text())]
        failures, quality = _round_checks(results, reports, config)
        expected = config.search.m_samples + config.search.top_pool
        quality["evals"] = _evals(ctx)
        if quality["evals"] != expected or len(results) != 1:
            failures.append(f"evals {quality['evals']} != m_samples + top_pool = {expected}")
        # wall_seconds is the one field of a round report that varies by run
        digest = _digest(ctx.dir / "round_0.json", drop=("wall_seconds",))
        return Outcome([not failures], failures, quality, digest)


class Calibrate:
    name = "calibrate"
    window = (0.50, 0.60)

    def setup(self, ctx: Context) -> None:
        raw = {"seed": ctx.seed}
        ctx.state["raw"] = raw
        ctx.state["config"] = ctx.write_config(raw)

    def _calibrate_then_consistency(self, ctx: Context) -> None:
        fragment = ctx.dir / "sigma.json"
        ctx.state["printed"] = ctx.cli(
            "calibrate-sigma", "--config", ctx.state["config"], "--n", str(CALIBRATE_N),
            "--fragment", str(fragment), "--out", str(ctx.dir))
        sigma = json.loads(fragment.read_text())["simulator"]["sigma"]
        calibrated = ctx.dir / "calibrated.json"
        calibrated.write_text(json.dumps(ctx.state["raw"] | {"simulator": {"sigma": sigma}}))
        ctx.state["calibrated"] = str(calibrated)
        ctx.cli("consistency", "--config", str(calibrated), "--n", str(CALIBRATE_N),
                "--out", str(ctx.dir))

    def body(self, ctx: Context) -> None:
        ctx.op(self._calibrate_then_consistency, ctx)

    def verify(self, ctx: Context) -> Outcome:
        failures = []
        match = re.search(r"two-checkpoint tau=(-?[0-9.]+)", ctx.state["printed"])
        achieved = float(match.group(1)) if match else float("nan")
        lo, hi = self.window
        if not lo <= achieved <= hi:
            failures.append(f"calibrated two-checkpoint tau {achieved} outside [{lo}, {hi}]")
        report = json.loads((ctx.dir / "consistency.json").read_text())
        if report["tau_same_checkpoint"] != 1.0:
            failures.append(f"same-checkpoint tau {report['tau_same_checkpoint']} != 1")
        config = cli.load_config(ctx.state["calibrated"])
        archs = sample_architectures(
            config.space, CALIBRATE_N, seed_stream(config.seed, "consistency-sample"))
        matrix = np.asarray([a.choices for a in archs])
        first = config.simulator.evaluate_matrix(matrix)
        second = config.simulator.advanced().evaluate_matrix(matrix)
        expected = round(_kendall(first, second), 6)
        if abs(report["tau_between_checkpoints"] - expected) > 1e-6:
            failures.append(
                f"tau between checkpoints {report['tau_between_checkpoints']} != oracle {expected}")
        quality = {
            "tau_val": achieved,
            "tau_truth": _kendall(first, ground_truth_many(matrix, config.simulator.truth)),
            "regret": None,
            "pool_precision": None,
            "evals": _evals(ctx),
        }
        digest = _digest(ctx.dir / "sigma.json", ctx.dir / "consistency.json")
        return Outcome([not failures], failures, quality, digest)


class Lookup:
    name = "lookup-6p7"

    @staticmethod
    def raw_config(seed: int) -> dict:
        return {"seed": seed, "search": {"gcn": CI_GCN | {"epochs": LOOKUP_EPOCHS}}}

    def setup(self, ctx: Context) -> None:
        config = cli.load_config(ctx.write_config(self.raw_config(ctx.seed)))
        segment = config.plan.segments[0]
        fixed = {p: config.initial_architecture.choices[p]
                 for p in range(config.space.num_layers) if p not in segment}
        subspace = Subspace(config.space, segment, fixed)
        result = search_engine.run_round(
            subspace, config.simulator, config.search, 0, config.cost_model)
        # budgets span the subspace's achievable multiply-add range
        table = config.cost_model.cell_cost
        fixed_cost = config.cost_model.fixed_cost + sum(table[p, c] for p, c in fixed.items())
        lo = fixed_cost + table[list(segment)].min(axis=1).sum()
        hi = fixed_cost + table[list(segment)].max(axis=1).sum()
        rng = np.random.default_rng(seed_stream(ctx.seed, "lookup-budgets"))
        budgets = lo + (hi - lo) * rng.uniform(0.05, 1.0, LOOKUP_QUERIES)
        ctx.state.update(config=config, result=result, budgets=budgets.tolist(), selected=[])

    def _query(self, ctx: Context, i: int, budget: float) -> None:
        config, result = ctx.state["config"], ctx.state["result"]
        picked = search_engine.constraint_select(
            result.graph, result.model, config.cost_model, budget, config.simulator,
            config.search.top_pool)
        ctx.state["selected"].append(picked)
        cli.write_report(ctx.dir / f"constraint_{i}.json", {
            "architecture": picked.architecture.to_text(),
            "accuracy": picked.accuracy,
            "flops": flops(picked.architecture, config.cost_model),
            "budget": budget,
        })

    def body(self, ctx: Context) -> None:
        for i, budget in enumerate(ctx.state["budgets"]):
            ctx.op(self._query, ctx, i, budget)

    def verify(self, ctx: Context) -> Outcome:
        config, result = ctx.state["config"], ctx.state["result"]
        sim, top = config.simulator, config.search.top_pool
        graph = result.graph
        choices = graph.choice_matrix
        preds = gcn.forward(graph, result.model)
        table = config.cost_model.cell_cost
        cost = config.cost_model.fixed_cost + table[np.arange(table.shape[0]), choices].sum(axis=1)
        truth = ground_truth_many(choices, sim.truth)
        failures, op_ok, regrets, precisions = [], [], [], []
        for i, (budget, picked) in enumerate(zip(ctx.state["budgets"], ctx.state["selected"])):
            within, pool, node, acc = expected_selection(preds, cost, budget, choices, sim, top)
            ok = (picked.node_index, picked.accuracy) == (node, acc) and bool(cost[node] <= budget)
            if not ok:
                failures.append(f"query {i}: selected {picked.node_index}, oracle {node}")
            op_ok.append(ok)
            regrets.append(float(truth[within].max() - truth[picked.node_index]))
            precisions.append(len(np.intersect1d(pool, _top_by_truth(truth, within, top))) / len(pool))
        quality = {
            "tau_val": result.report.tau_val,
            "tau_truth": _kendall(preds, truth),
            "regret": float(np.mean(regrets)),
            "pool_precision": float(np.mean(precisions)),
            "evals": _evals(ctx),
        }
        expected = config.search.m_samples + top + sum(
            min(top, int((cost <= b).sum())) for b in ctx.state["budgets"])
        if quality["evals"] != expected:
            failures.append(f"evals {quality['evals']} != {expected}")
            op_ok = [False] * len(op_ok)
        paths = [ctx.dir / f"constraint_{i}.json" for i in range(len(ctx.state["budgets"]))]
        return Outcome(op_ok, failures, quality, _digest(*paths))


WORKLOADS = {w.name: w for w in (SearchCI(), RoundWide(), Calibrate(), Lookup())}
