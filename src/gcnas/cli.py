"""Command-line entry point and JSON configuration.

All experiments are driven by one JSON config; every omitted key falls back
to the default search setup (19-cell, 6-choice space, 7/6/6 segment plan,
2000 samples per round with an 1800/200 split, K=6, 600-epoch regressor).
Reports are JSON with floats at 6 decimal places; the search result record
is byte-identical across runs with the same config and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .arch_graph import AssignedSimilarity, MeasuredSimilarity, SimilarityMode
from .evaluator import (
    CostModel,
    GroundTruthParams,
    SyntheticSupernet,
    bundled_cost_model,
    calibrate_sigma,
    flops,
    sample_architectures,  # unused here; kept bound so the benchmark tracer can wrap it
    sample_choice_matrix,
)
from .gcn import GcnConfig, write_loss_curve
from .metrics import kendall_tau
from .search_engine import (
    RoundResult,
    SearchConfig,
    constraint_select,
    iter_search_rounds,
    run_round,
)
from .search_space import (
    Architecture,
    SearchSpaceSpec,
    SegmentPlan,
    Subspace,
    default_initial_architecture,
    make_segment_plan,
)
from .seeding import seed_stream


class ConfigError(ValueError):
    """Schema violation, with the offending JSON path in the message."""


# ---------------------------------------------------------------------------
# configuration schema


def _require_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(obj: dict, allowed: Sequence[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")


def _get_int(obj: dict, key: str, default: int, path: str) -> int:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _get_float(obj: dict, key: str, default: float, path: str) -> float:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    return float(value)


def _get_bool(obj: dict, key: str, default: bool, path: str) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected a boolean, got {value!r}")
    return value


def _get_str(obj: dict, key: str, default: str, path: str) -> str:
    value = obj.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {value!r}")
    return value


def _parse_space(obj: dict, path: str) -> SearchSpaceSpec:
    _reject_unknown(obj, ("num_layers", "choices_per_layer", "choice_labels"), path)
    num_layers = _get_int(obj, "num_layers", 19, path)
    choices = _get_int(obj, "choices_per_layer", 6, path)
    labels = obj.get("choice_labels")
    if labels is None and num_layers == 19 and choices == 6:
        from .search_space import DEFAULT_CHOICE_LABELS

        labels = list(DEFAULT_CHOICE_LABELS)
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ConfigError(f"{path}.choice_labels: expected a list of strings")
        labels = tuple(labels)
    try:
        return SearchSpaceSpec(num_layers, choices, labels)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_plan(value: Any, spec: SearchSpaceSpec, path: str) -> SegmentPlan:
    if value is None:
        sizes = [7, 6, 6] if spec.num_layers == 19 else [spec.num_layers]
    else:
        if not isinstance(value, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value
        ):
            raise ConfigError(f"{path}: expected a list of integers")
        sizes = value
    try:
        return make_segment_plan(spec, sizes)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_similarity(obj: Any, path: str) -> SimilarityMode:
    obj = _require_mapping(obj, path)
    mode = _get_str(obj, "mode", "assigned", path)
    if mode == "assigned":
        _reject_unknown(obj, ("mode", "weight"), path)
        weight = _get_float(obj, "weight", math.exp(-0.5), path)
        try:
            return AssignedSimilarity(weight)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if mode == "measured":
        _reject_unknown(obj, ("mode", "min_pairs", "floor", "fallback_weight"), path)
        try:
            return MeasuredSimilarity(
                min_pairs=_get_int(obj, "min_pairs", 30, path),
                floor=_get_float(obj, "floor", 0.01, path),
                fallback_weight=_get_float(obj, "fallback_weight", math.exp(-0.5), path),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f'{path}.mode: expected "assigned" or "measured", got {mode!r}')


def _parse_gcn(obj: Any, path: str) -> GcnConfig:
    obj = _require_mapping(obj, path)
    _reject_unknown(
        obj, ("hidden_dims", "epochs", "lr", "lr_decay", "weight_decay", "dtype"), path
    )
    dims = obj.get("hidden_dims", [512, 512])
    if not isinstance(dims, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in dims
    ):
        raise ConfigError(f"{path}.hidden_dims: expected a list of integers")
    try:
        return GcnConfig(
            hidden_dims=tuple(dims),
            epochs=_get_int(obj, "epochs", 600, path),
            lr=_get_float(obj, "lr", 0.01, path),
            lr_decay=_get_float(obj, "lr_decay", 0.1, path),
            weight_decay=_get_float(obj, "weight_decay", 5e-4, path),
            dtype=_get_str(obj, "dtype", "float64", path),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_search(
    obj: Any,
    plan: SegmentPlan,
    initial: Architecture,
    seed: int,
    path: str,
) -> SearchConfig:
    obj = _require_mapping(obj, path)
    _reject_unknown(
        obj,
        (
            "m_samples",
            "train_split",
            "top_pool",
            "k_preserve",
            "similarity",
            "advance_checkpoints",
            "constraint_budget",
            "gcn",
        ),
        path,
    )
    budget = obj.get("constraint_budget")
    if budget is not None and (isinstance(budget, bool) or not isinstance(budget, (int, float))):
        raise ConfigError(f"{path}.constraint_budget: expected a number or null, got {budget!r}")
    try:
        return SearchConfig(
            m_samples=_get_int(obj, "m_samples", 2000, path),
            train_split=_get_int(obj, "train_split", 1800, path),
            top_pool=_get_int(obj, "top_pool", 100, path),
            k_preserve=_get_int(obj, "k_preserve", 6, path),
            plan=plan,
            similarity=_parse_similarity(obj.get("similarity", {}), f"{path}.similarity"),
            gcn=_parse_gcn(obj.get("gcn", {}), f"{path}.gcn"),
            seed=seed,
            constraint_budget=None if budget is None else float(budget),
            advance_checkpoints=_get_bool(obj, "advance_checkpoints", False, path),
            initial_architecture=initial,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_simulator(
    obj: Any, spec: SearchSpaceSpec, seed: int, path: str
) -> tuple[SyntheticSupernet, dict[str, Any]]:
    obj = _require_mapping(obj, path)
    _reject_unknown(
        obj,
        (
            "a",
            "b",
            "sigma",
            "base",
            "utility_amplitude",
            "pair_strength",
            "truth_seed",
            "checkpoint_seed",
        ),
        path,
    )
    truth_seed = obj.get("truth_seed")
    if truth_seed is None:
        truth_seed = seed_stream(seed, "ground-truth")
    elif isinstance(truth_seed, bool) or not isinstance(truth_seed, int):
        raise ConfigError(f"{path}.truth_seed: expected an integer or null, got {truth_seed!r}")
    checkpoint_seed = obj.get("checkpoint_seed")
    if checkpoint_seed is None:
        checkpoint_seed = seed_stream(seed, "checkpoint")
    elif isinstance(checkpoint_seed, bool) or not isinstance(checkpoint_seed, int):
        raise ConfigError(
            f"{path}.checkpoint_seed: expected an integer or null, got {checkpoint_seed!r}"
        )
    resolved = {
        "a": _get_float(obj, "a", 0.95, path),
        "b": _get_float(obj, "b", 0.05, path),
        "sigma": _get_float(obj, "sigma", 0.0065, path),
        "base": _get_float(obj, "base", 0.8, path),
        "utility_amplitude": _get_float(obj, "utility_amplitude", 0.01, path),
        "pair_strength": _get_float(obj, "pair_strength", 0.0005, path),
        "truth_seed": truth_seed,
        "checkpoint_seed": checkpoint_seed,
    }
    truth = GroundTruthParams.random(
        spec,
        truth_seed,
        base=resolved["base"],
        utility_amplitude=resolved["utility_amplitude"],
        pair_strength=resolved["pair_strength"],
    )
    try:
        supernet = SyntheticSupernet(
            truth=truth,
            a=resolved["a"],
            b=resolved["b"],
            sigma=resolved["sigma"],
            checkpoint_seed=checkpoint_seed,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return supernet, resolved


def _parse_cost_model(value: Any, spec: SearchSpaceSpec, path: str) -> tuple[CostModel, Any]:
    if value is None or value == "bundled":
        return bundled_cost_model(spec), "bundled"
    obj = _require_mapping(value, path)
    _reject_unknown(obj, ("fixed_cost", "cell_cost"), path)
    table = obj.get("cell_cost")
    if not isinstance(table, list):
        raise ConfigError(f"{path}.cell_cost: expected an LxO table")
    try:
        model = CostModel(_get_float(obj, "fixed_cost", 0.0, path), np.asarray(table, dtype=float))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return model, {"fixed_cost": model.fixed_cost, "cell_cost": model.cell_cost.tolist()}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    seed: int
    output_dir: Path
    space: SearchSpaceSpec
    plan: SegmentPlan
    initial_architecture: Architecture
    search: SearchConfig
    simulator: SyntheticSupernet
    cost_model: CostModel
    config_sha256: str


_TOP_LEVEL_KEYS = (
    "seed",
    "output_dir",
    "search_space",
    "plan",
    "initial_architecture",
    "search",
    "simulator",
    "cost_model",
)


def parse_config(raw: Any) -> RunConfig:
    """Validate a raw JSON object and resolve every default."""
    raw = _require_mapping(raw, "$")
    _reject_unknown(raw, _TOP_LEVEL_KEYS, "$")
    seed = _get_int(raw, "seed", 0, "$")
    output_dir = Path(_get_str(raw, "output_dir", "gcnas-output", "$"))
    space = _parse_space(_require_mapping(raw.get("search_space", {}), "$.search_space"), "$.search_space")
    plan = _parse_plan(raw.get("plan"), space, "$.plan")
    initial_text = raw.get("initial_architecture")
    if initial_text is None:
        initial = default_initial_architecture(space)
    elif isinstance(initial_text, str):
        initial = Architecture.from_text(initial_text)
        try:
            space.validate_architecture(initial)
        except ValueError as exc:
            raise ConfigError(f"$.initial_architecture: {exc}") from exc
    else:
        raise ConfigError(
            f"$.initial_architecture: expected a string or null, got {initial_text!r}"
        )
    search = _parse_search(raw.get("search", {}), plan, initial, seed, "$.search")
    simulator, simulator_resolved = _parse_simulator(
        raw.get("simulator", {}), space, seed, "$.simulator"
    )
    cost_model, cost_model_resolved = _parse_cost_model(
        raw.get("cost_model"), space, "$.cost_model"
    )

    resolved = {
        "seed": seed,
        "output_dir": str(output_dir),
        "search_space": {
            "num_layers": space.num_layers,
            "choices_per_layer": space.choices_per_layer,
            "choice_labels": list(space.choice_labels) if space.choice_labels else None,
        },
        "plan": [len(seg) for seg in plan.segments],
        "initial_architecture": initial.to_text(),
        "search": {
            "m_samples": search.m_samples,
            "train_split": search.train_split,
            "top_pool": search.top_pool,
            "k_preserve": search.k_preserve,
            "similarity": dataclasses.asdict(search.similarity)
            | {"mode": "measured" if isinstance(search.similarity, MeasuredSimilarity) else "assigned"},
            "advance_checkpoints": search.advance_checkpoints,
            "constraint_budget": search.constraint_budget,
            "gcn": {
                "hidden_dims": list(search.gcn.hidden_dims),
                "epochs": search.gcn.epochs,
                "lr": search.gcn.lr,
                "lr_decay": search.gcn.lr_decay,
                "weight_decay": search.gcn.weight_decay,
                "dtype": search.gcn.dtype,
            },
        },
        "simulator": simulator_resolved,
        "cost_model": cost_model_resolved,
    }
    digest = hashlib.sha256(
        json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return RunConfig(
        seed=seed,
        output_dir=output_dir,
        space=space,
        plan=plan,
        initial_architecture=initial,
        search=search,
        simulator=simulator,
        cost_model=cost_model,
        config_sha256=digest,
    )


def load_config(path: str | Path) -> RunConfig:
    """Parse, default and validate a JSON config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# report emission


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_report(path: Path, payload: dict) -> None:
    """JSON report with floats at 6 decimal places; re-emitting a loaded
    report reproduces the same bytes."""
    text = json.dumps(_round_floats(payload), indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")


def _provenance(config: RunConfig) -> dict[str, Any]:
    return {"config_sha256": config.config_sha256, "seed": config.seed}


def _dump_predictions(path: Path, result: RoundResult) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["architecture", "predicted_score"])
        for i in range(result.graph.num_nodes):
            arch = ",".join(str(c) for c in result.graph.choice_matrix[i])
            writer.writerow([arch, f"{result.predictions[i]:.6f}"])


# ---------------------------------------------------------------------------
# commands


def _with_overrides(args: argparse.Namespace) -> RunConfig:
    if args.config:
        config = load_config(args.config)
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    else:
        config, raw = parse_config({}), {}
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
        config = parse_config(raw)
    if getattr(args, "out", None) is not None:
        config = dataclasses.replace(config, output_dir=Path(args.out))
    return config


def _cmd_search(args: argparse.Namespace) -> int:
    config = _with_overrides(args)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    final = None
    for result in iter_search_rounds(
        config.space, config.simulator, config.search, config.cost_model
    ):
        t = result.report.round_index
        write_report(out / f"round_{t}.json", result.report.as_dict() | _provenance(config))
        write_loss_curve(result.loss_curve, out / f"loss_round_{t}.csv")
        if args.dump_predictions:
            _dump_predictions(out / f"predictions_round_{t}.csv", result)
        reports.append(result.report)
        final = result.preserved[0]
    assert final is not None
    payload = {
        "architecture": final.architecture.to_text(),
        "accuracy": final.accuracy,
        "flops": flops(final.architecture, config.cost_model),
        "per_round_tau": [r.tau_val for r in reports],
        "per_round_reg_score": [r.reg_score_val for r in reports],
        **_provenance(config),
    }
    write_report(out / "result.json", payload)
    print(f"best architecture: {final.architecture.to_text()}")
    print(f"evaluated accuracy: {final.accuracy:.6f}")
    print(f"reports written to {out}")
    return 0


def _single_round(config: RunConfig, segment_index: int) -> RoundResult:
    segments = config.plan.segments
    if not 0 <= segment_index < len(segments):
        raise ValueError(
            f"segment index {segment_index} outside [0, {len(segments)}) of the plan"
        )
    segment = segments[segment_index]
    fixed = {
        p: config.initial_architecture.choices[p]
        for p in range(config.space.num_layers)
        if p not in segment
    }
    subspace = Subspace(config.space, tuple(segment), fixed)
    return run_round(
        subspace, config.simulator, config.search, segment_index, config.cost_model
    )


def _cmd_round(args: argparse.Namespace) -> int:
    config = _with_overrides(args)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    result = _single_round(config, args.segment)
    t = result.report.round_index
    write_report(out / f"round_{t}.json", result.report.as_dict() | _provenance(config))
    write_loss_curve(result.loss_curve, out / f"loss_round_{t}.csv")
    print(f"round {t}: tau_val={result.report.tau_val:.6f} "
          f"best={result.report.best_selected.architecture.to_text()}")
    print(f"reports written to {out}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    config = _with_overrides(args)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    result = _single_round(config, args.segment)
    t = result.report.round_index
    write_report(out / f"round_{t}.json", result.report.as_dict() | _provenance(config))
    write_loss_curve(result.loss_curve, out / f"loss_round_{t}.csv")
    path = out / f"predictions_round_{t}.csv"
    _dump_predictions(path, result)
    print(f"lookup table with {result.graph.num_nodes} entries written to {path}")
    return 0


def _read_csv_column(spec_text: str) -> np.ndarray:
    path_text, _, column_text = spec_text.rpartition(":")
    if not path_text:
        raise ValueError(f"column spec {spec_text!r} must look like FILE.csv:COLUMN")
    try:
        column = int(column_text)
    except ValueError:
        raise ValueError(f"column spec {spec_text!r} has a non-integer column") from None
    if column < 1:
        raise ValueError(f"column index must be >= 1, got {column}")
    path = Path(path_text)
    if not path.exists():
        raise ValueError(f"file not found: {path}")
    values = []
    with path.open(encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            if len(row) < column:
                continue
            try:
                values.append(float(row[column - 1]))
            except ValueError:
                continue  # header or stray text
    if len(values) < 2:
        raise ValueError(f"{path}: column {column} has fewer than 2 numeric values")
    return np.asarray(values)


def _cmd_tau(args: argparse.Namespace) -> int:
    a = _read_csv_column(args.a)
    b = _read_csv_column(args.b)
    print(f"{kendall_tau(a, b):.6f}")
    return 0


def _cmd_calibrate_sigma(args: argparse.Namespace) -> int:
    config = _with_overrides(args)
    sigma, tau = calibrate_sigma(
        config.simulator,
        config.space,
        n_archs=args.n,
        seed=seed_stream(config.seed, "calibration"),
    )
    out = Path(args.fragment) if args.fragment else config.output_dir / "sigma.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_report(out, {"simulator": {"sigma": sigma}})
    print(f"calibrated sigma={sigma:.6f} (two-checkpoint tau={tau:.6f})")
    print(f"config fragment written to {out}")
    return 0


def _cmd_consistency(args: argparse.Namespace) -> int:
    config = _with_overrides(args)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    matrix = sample_choice_matrix(
        config.space, args.n, seed_stream(config.seed, "consistency-sample")
    )
    first = config.simulator.evaluate_matrix(matrix)
    second = config.simulator.advanced().evaluate_matrix(matrix)
    tau_cross = kendall_tau(first, second)
    tau_same = kendall_tau(first, first)
    payload = {
        "n_archs": args.n,
        "sigma": config.simulator.sigma,
        "tau_between_checkpoints": tau_cross,
        "tau_same_checkpoint": tau_same,
        **_provenance(config),
    }
    write_report(out / "consistency.json", payload)
    print(f"tau between checkpoints: {tau_cross:.6f} (same checkpoint: {tau_same:.6f})")
    return 0


def _cmd_constraint(args: argparse.Namespace) -> int:
    config = _with_overrides(args)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    result = _single_round(config, args.segment)
    selected = constraint_select(
        result.graph,
        result.model,
        config.cost_model,
        args.budget,
        config.simulator,
        config.search.top_pool,
    )
    payload = {
        "architecture": selected.architecture.to_text(),
        "accuracy": selected.accuracy,
        "flops": flops(selected.architecture, config.cost_model),
        "budget": float(args.budget),
        **_provenance(config),
    }
    write_report(out / "constraint.json", payload)
    print(f"best within budget {args.budget:g}: {selected.architecture.to_text()} "
          f"({payload['flops']:.0f} multiply-adds)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcnas",
        description="Graph-regressor assisted search over chain-styled architecture spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")

    p = sub.add_parser("search", help="run the full segmented search")
    common(p)
    p.add_argument("--dump-predictions", action="store_true",
                   help="write per-round prediction lookup tables")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("round", help="run a single round on one segment")
    common(p)
    p.add_argument("--segment", type=int, default=0)
    p.set_defaults(func=_cmd_round)

    p = sub.add_parser("predict", help="run one round and dump its prediction lookup table")
    common(p)
    p.add_argument("--segment", type=int, default=0)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("tau", help="Kendall tau of two CSV columns (FILE.csv:COLUMN, 1-based)")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("calibrate-sigma", help="bisect the noise scale to the target "
                                               "two-checkpoint rank agreement")
    common(p)
    p.add_argument("--n", type=int, default=10_000, help="architectures to sample")
    p.add_argument("--fragment", help="path of the emitted config fragment")
    p.set_defaults(func=_cmd_calibrate_sigma)

    p = sub.add_parser("consistency", help="rank agreement of two checkpoints on sampled "
                                           "architectures")
    common(p)
    p.add_argument("--n", type=int, default=10_000, help="architectures to sample")
    p.set_defaults(func=_cmd_consistency)

    p = sub.add_parser("constraint", help="select the best architecture within a multiply-add "
                                          "budget")
    common(p)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--segment", type=int, default=0)
    p.set_defaults(func=_cmd_constraint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for note in getattr(exc, "__notes__", ()):
            print(f"  {note}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
