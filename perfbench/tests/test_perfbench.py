"""Tests of the benchmark's own code: the tracer, its per-layer figures, the
oracles, and the refusal to run without the package sources."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from gcnas import (  # noqa: E402
    GcnConfig,
    GroundTruthParams,
    SearchConfig,
    SearchSpaceSpec,
    SyntheticSupernet,
    bundled_cost_model,
    full_subspace,
    reverify,
    search_engine,
)
from gcnas.arch_graph import node_architecture  # noqa: E402

import tracing  # noqa: E402
from tracing import TARGETS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import _expected_reverify, _top_by_truth, expected_selection  # noqa: E402

SPEC = SearchSpaceSpec(4, 3)
CONFIG = SearchConfig(m_samples=40, train_split=30, top_pool=5, k_preserve=2,
                      gcn=GcnConfig(hidden_dims=(8,), epochs=5))


def _supernet() -> SyntheticSupernet:
    return SyntheticSupernet(GroundTruthParams.random(SPEC, 0))


def _round():
    return search_engine.run_round(full_subspace(SPEC), _supernet(), CONFIG)


def _attributes() -> list:
    return [tracing._resolve(t.owner).__dict__.get(t.attr) for t in TARGETS]


def test_wrappers_leave_outputs_and_attributes_unchanged():
    before = _attributes()
    plain = _round()
    with Tracer("test") as tracer:
        assert all(a is not b for a, b in zip(_attributes(), before))
        traced = _round()
    assert all(a is b for a, b in zip(_attributes(), before))

    np.testing.assert_array_equal(plain.predictions, traced.predictions)
    assert plain.loss_curve == traced.loss_curve
    drop = {"wall_seconds"}
    assert ({k: v for k, v in plain.report.as_dict().items() if k not in drop}
            == {k: v for k, v in traced.report.as_dict().items() if k not in drop})
    names = {s["name"] for s in tracer.spans}
    assert {"run_round", "build_graph", "train", "forward", "evaluate_many",
            "evaluate_matrix", "kendall_tau", "sample_uniform"} <= names
    assert {s["run"] for s in tracer.spans} == {"test"}


def test_spans_nest_under_their_caller():
    with Tracer("nest") as tracer:
        _round()
    by_id = {s["id"]: s for s in tracer.spans}
    (root,) = [s for s in tracer.spans if s["parent"] is None]
    assert root["name"] == "run_round"
    for span in tracer.spans:
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]
    train = next(s for s in tracer.spans if s["name"] == "train")
    assert train["epochs"] == CONFIG.gcn.epochs and train["epoch_flop"] > 0


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "parent": None, "start_ns": 0, "end_ns": 100},
        {"id": 1, "parent": 0, "start_ns": 10, "end_ns": 40},
        {"id": 2, "parent": 0, "start_ns": 50, "end_ns": 60},
        {"id": 3, "parent": 1, "start_ns": 20, "end_ns": 25},
    ]
    assert self_times(spans) == {0: 60, 1: 25, 2: 10, 3: 5}


def test_layer_metrics_of_a_round():
    with Tracer("layers") as tracer:
        result = _round()
    m = layer_metrics(tracer.spans)
    assert m["arch_graph.nodes"] == SPEC.size
    assert m["arch_graph.nnz"] == result.graph.adjacency.nnz
    assert m["evaluator.calls"] == 2  # the sample and the re-verified pool
    assert m["metrics.tau_items"] == CONFIG.m_samples - CONFIG.train_split
    assert m["search_space.calls"] == 1 + 2 * CONFIG.m_samples
    assert 0 < m["gcn.train_s"] < m["search_engine.round_s"]
    assert m["search_engine.reverify_s"] > 0
    assert m["cli.parse_s"] == m["evaluator.calibrate_s"] == 0
    assert all(m[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)


def test_errors_are_counted_and_keep_their_type():
    too_many = dataclasses.replace(CONFIG, m_samples=SPEC.size + 1, train_split=1)
    with Tracer("errors") as tracer, pytest.raises(ValueError, match="exceeds"):
        search_engine.run_round(full_subspace(SPEC), _supernet(), too_many)
    assert layer_metrics(tracer.spans)["search_engine.errors"] == 1


def test_oracles_match_the_program():
    result = _round()
    sim = _supernet()
    pool = np.argsort(-result.predictions, kind="stable")[:CONFIG.top_pool]
    picked = reverify([node_architecture(result.graph, int(i)) for i in pool], sim,
                      node_indices=pool.tolist())
    node, acc = _expected_reverify(result.graph.choice_matrix, pool, sim)
    assert (picked.node_index, picked.accuracy) == (node, acc)

    cost_model = bundled_cost_model(SPEC)
    cost = search_engine.flops_many(result.graph.choice_matrix, cost_model)
    budget = float(np.median(cost))
    chosen = search_engine.constraint_select(result.graph, result.model, cost_model, budget, sim,
                                             CONFIG.top_pool)
    _, pool, node, acc = expected_selection(result.predictions, cost, budget,
                                            result.graph.choice_matrix, sim, CONFIG.top_pool)
    assert (chosen.node_index, chosen.accuracy) == (node, acc)
    assert (cost[pool] <= budget).all() and cost[node] <= budget


def test_top_by_truth_breaks_ties_toward_low_ids():
    truth = np.array([0.5, 0.9, 0.9, 0.1, 0.9])
    np.testing.assert_array_equal(_top_by_truth(truth, np.array([4, 2, 1, 0]), 3), [1, 2, 4])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calibrate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
