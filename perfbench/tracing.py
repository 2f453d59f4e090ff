"""Spans recorded from outside the program.

A :class:`Tracer` replaces public ``gcnas`` functions, at the module
attributes their callers look up, with wrappers that record one span per
call: name, layer, start, end, parent span, run id, an optional work count
and the type of any exception that escaped. Spans stay in memory until the
run writes them out; :func:`layer_metrics` turns them into the per-layer
figures the benchmark reports. Nothing under ``src/`` is changed: every
patched attribute is put back when the tracer is removed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

LAYERS = ("search_space", "arch_graph", "gcn", "evaluator", "metrics", "search_engine", "cli")

# Reads a call's arguments and result, after its span has ended, into extra
# span fields such as work counts.
Counter = Callable[[tuple, dict, Any], dict]


def _nodes_and_nnz(args: tuple, kwargs: dict, graph: Any) -> dict:
    return {"nodes": graph.num_nodes, "nnz": int(graph.adjacency.nnz)}


def _rows(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"items": len(result)}


def _tau_items(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"items": len(args[0])}


def _epoch_flop(args: tuple, kwargs: dict, result: Any) -> dict:
    """Computed multiply-add flop of one training epoch (dense and sparse
    products, twice the multiply-adds), from the graph and the config."""
    graph, _labels, config = args[:3]
    epochs = len(result[1])
    n = graph.num_nodes
    nnz = int(graph.normalized.nnz)
    dims = (graph.features.shape[1], *config.hidden_dims)
    flop = 2 * n * dims[0] * dims[1] * 2  # first layer forward, and its weight gradient
    for h_in, h_out in zip(dims[1:-1], dims[2:]):
        # forward h @ W and A @ (.), backward A @ dZ, act.T @ q and q @ W.T
        flop += 2 * n * h_in * h_out * 3 + 2 * nnz * h_out * 2
    flop += 2 * n * dims[-1] * 2 + 2 * nnz * 2  # head forward/backward and A @ vector twice
    return {"epochs": epochs, "epoch_flop": flop}


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` recorded as ``name`` in ``layer``."""

    owner: str  # "module" or "module:Class"
    attr: str
    name: str
    layer: str
    counter: Counter | None = None


TARGETS = (
    Target("gcnas.search_engine", "run_round", "run_round", "search_engine"),
    Target("gcnas.search_engine", "constraint_select", "constraint_select", "search_engine"),
    Target("gcnas.search_engine", "reverify", "reverify", "search_engine"),
    Target("gcnas.search_engine", "build_graph", "build_graph", "arch_graph", _nodes_and_nnz),
    Target("gcnas.search_engine", "normalize_adjacency", "normalize_adjacency", "arch_graph"),
    Target("gcnas.search_engine", "node_architecture", "node_architecture", "arch_graph"),
    Target("gcnas.search_engine", "node_index", "node_index", "search_space"),
    Target("gcnas.search_engine", "sample_uniform", "sample_uniform", "search_space", _rows),
    Target("gcnas.search_engine", "materialize", "materialize", "search_space"),
    Target("gcnas.search_engine", "train", "train", "gcn", _epoch_flop),
    Target("gcnas.search_engine", "forward", "forward", "gcn"),
    Target("gcnas.search_engine", "kendall_tau", "kendall_tau", "metrics", _tau_items),
    Target("gcnas.search_engine", "flops_many", "flops_many", "evaluator", _rows),
    Target("gcnas.evaluator", "kendall_tau", "kendall_tau", "metrics", _tau_items),
    Target("gcnas.evaluator", "sample_architectures", "sample_architectures", "search_space", _rows),
    Target("gcnas.evaluator:SyntheticSupernet", "evaluate_many", "evaluate_many", "evaluator"),
    Target("gcnas.evaluator:SyntheticSupernet", "evaluate_matrix", "evaluate_matrix", "evaluator", _rows),
    Target("gcnas.cli", "run_round", "run_round", "search_engine"),
    Target("gcnas.cli", "calibrate_sigma", "calibrate_sigma", "evaluator"),
    Target("gcnas.cli", "sample_architectures", "sample_architectures", "search_space", _rows),
    Target("gcnas.cli", "kendall_tau", "kendall_tau", "metrics", _tau_items),
    Target("gcnas.cli", "load_config", "load_config", "cli"),
    Target("gcnas.cli", "parse_config", "parse_config", "cli"),
    Target("gcnas.cli", "write_report", "write_report", "cli"),
    Target("gcnas.cli", "write_loss_curve", "write_loss_curve", "cli"),
)


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


@dataclass
class Tracer:
    """In-memory span recorder for one run (one child process)."""

    run_id: str
    spans: list[dict] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[dict]:
        """Record the enclosed code as one span; yields the span record."""
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "name": name,
            "layer": layer,
            "start_ns": 0,
            "end_ns": 0,
            "error": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, layer: str, fn: Callable, *args: Any) -> Any:
        """Run ``fn`` inside a span of its own."""
        with self.span(name, layer):
            return fn(*args)

    def wrap(self, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(target.name, target.layer) as record:
                result = fn(*args, **kwargs)
            if target.counter is not None:
                record.update(target.counter(args, kwargs, result))
            return result

        return wrapper

    def install(self, targets: Iterable[Target] = TARGETS) -> None:
        """Replace every target attribute with its wrapper."""
        for target in targets:
            owner = _resolve(target.owner)
            original = owner.__dict__[target.attr]
            self._saved.append((owner, target.attr, original))
            setattr(owner, target.attr, self.wrap(original, target))

    def remove(self) -> None:
        """Put back every attribute :meth:`install` replaced, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.remove()


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover, in ns.
    Calls are sequential, so children never overlap one another."""
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return own


def _outermost(spans: list[dict], by_id: dict[int, dict], pick: Callable[[dict], bool]) -> list[dict]:
    """Spans matching ``pick`` that have no matching ancestor."""
    out = []
    for s in spans:
        if not pick(s):
            continue
        parent = s["parent"]
        while parent is not None and not pick(by_id[parent]):
            parent = by_id[parent]["parent"]
        if parent is None:
            out.append(s)
    return out


def _seconds(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


def _total_s(spans: Iterable[dict]) -> float:
    return sum(_seconds(s) for s in spans)


def _reverify_spans(spans: list[dict], by_id: dict[int, dict]) -> list[dict]:
    """Re-verification work: ``reverify`` calls, plus the evaluator calls a
    round makes after its full-graph ``forward`` (the top-pool re-evaluation)."""
    out = [s for s in spans if s["name"] == "reverify"]
    forward_end: dict[int, int] = {}
    for s in spans:
        parent = s["parent"]
        if parent is None or by_id[parent]["name"] != "run_round":
            continue
        if s["name"] == "forward":
            forward_end[parent] = s["end_ns"]
        elif s["layer"] == "evaluator" and parent in forward_end and s["start_ns"] >= forward_end[parent]:
            out.append(s)
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one run's spans; bypassed layers read 0."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)

    def named(*names: str) -> list[dict]:
        return [s for s in spans if s["name"] in names]

    builds = named("build_graph")
    trains = named("train")
    forwards = named("forward")
    evals = _outermost(spans, by_id, lambda s: s["name"] in ("evaluate_many", "evaluate_matrix"))
    scored = sum(s.get("items", 0) for s in named("evaluate_matrix"))
    taus = named("kendall_tau")
    sampling = _outermost(spans, by_id, lambda s: s["layer"] == "search_space")
    selects = named("constraint_select")
    train_s = _total_s(trains)
    epochs = sum(s.get("epochs", 0) for s in trains)
    flop = sum(s.get("epochs", 0) * s.get("epoch_flop", 0) for s in trains)
    eval_s = _total_s(evals)

    m = {
        "arch_graph.build_s": _total_s(builds),
        "arch_graph.normalize_s": _total_s(named("normalize_adjacency")),
        "arch_graph.nodes": sum(s.get("nodes", 0) for s in builds),
        "arch_graph.nnz": sum(s.get("nnz", 0) for s in builds),
        "gcn.train_s": train_s,
        "gcn.epoch_ms": 1e3 * train_s / epochs if epochs else 0.0,
        "gcn.predict_ms": 1e3 * statistics.median(_seconds(s) for s in forwards) if forwards else 0.0,
        "gcn.epoch_flop": flop / epochs if epochs else 0.0,
        "gcn.gflops": flop / train_s / 1e9 if train_s else 0.0,
        "evaluator.calls": len(named("evaluate_matrix")),
        "evaluator.eval_s": eval_s,
        "evaluator.evals_per_s": scored / eval_s if eval_s else 0.0,
        "evaluator.calibrate_s": _total_s(named("calibrate_sigma")),
        "metrics.tau_calls": len(taus),
        "metrics.tau_items": sum(s.get("items", 0) for s in taus),
        "metrics.tau_s": _total_s(taus),
        "search_space.calls": len(sampling),
        "search_space.sample_s": _total_s(sampling),
        "search_engine.round_s": _total_s(named("run_round")),
        "search_engine.self_s": sum(own[s["id"]] for s in spans if s["layer"] == "search_engine") / 1e9,
        "search_engine.reverify_s": _total_s(_reverify_spans(spans, by_id)),
        "search_engine.select_ms": (
            1e3 * statistics.median(_seconds(s) for s in selects) if selects else 0.0
        ),
        "cli.parse_s": _total_s(_outermost(spans, by_id, lambda s: s["name"] in ("load_config", "parse_config"))),
        "cli.report_s": _total_s(named("write_report", "write_loss_curve")),
        "cli.self_s": sum(own[s["id"]] for s in spans if s["layer"] == "cli") / 1e9,
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(1 for s in spans if s["layer"] == layer and s["error"])
    return m
