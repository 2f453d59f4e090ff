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
import inspect
import json
import sys
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

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
    round_subspace,
    run_round,
)
from .search_space import (
    Architecture,
    SearchSpaceSpec,
    SegmentPlan,
    default_initial_architecture,
    default_space,
    make_segment_plan,
)
from .seeding import seed_stream


class ConfigError(ValueError):
    """Schema violation, with the offending JSON path in the message."""


# ---------------------------------------------------------------------------
# configuration schema
#
# Every default lives with the class that owns it: the dataclass fields, the
# keyword defaults of GroundTruthParams.random and default_space(). The rules
# that are not such defaults are spelled out where the section is read.


@dataclasses.dataclass(frozen=True)
class _OrNull:
    """Default of a key that may be null: absent means null, any other value
    must have ``shape`` (a type, or a one-type tuple for a list of it)."""

    shape: Any


_SHAPE_NAMES = {
    bool: "a boolean", int: "an integer", float: "a finite number", str: "a string",
    (int,): "a list of integers", (str,): "a list of strings",
}


def _matches(value: Any, shape: Any) -> bool:
    if isinstance(shape, tuple):
        return isinstance(value, list) and all(_matches(x, shape[0]) for x in value)
    if isinstance(value, bool):
        return shape is bool
    if shape is float:  # NaN, +-Infinity and ints past the float range all fail
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, shape)


def _require_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _read(raw: Any, path: str, defaults: Mapping[str, Any]) -> dict[str, Any]:
    """The JSON object ``raw`` read against ``{key: default}``.

    Unknown keys are rejected and absent keys take their default. A present
    value must have the JSON type of its default; an int given where the
    default is a float is stored as a float, so that ``1`` and ``1.0`` hash
    alike. A ``None`` or ``{}`` default passes the value through for the
    caller to read (the cost model, or a nested object).
    """
    obj = _require_mapping(raw, path)
    for key in obj:
        if key not in defaults:
            raise ConfigError(f"unknown key {path}.{key}")
    values = {}
    for key, default in defaults.items():
        nullable = isinstance(default, _OrNull)
        if key not in obj:
            values[key] = None if nullable else default
            continue
        value = obj[key]
        if default is None or isinstance(default, dict) or (nullable and value is None):
            values[key] = value
            continue
        if nullable:
            shape = default.shape
        else:
            shape = (type(default[0]),) if isinstance(default, tuple) else type(default)
        if not _matches(value, shape):
            expected = _SHAPE_NAMES[shape] + (" or null" if nullable else "")
            raise ConfigError(f"{path}.{key}: expected {expected}, got {value!r}")
        values[key] = float(value) if shape is float else value
    return values


def _check_seed(value: int | None, path: str, low: int = -(2**63)) -> None:
    """Seeds feed 64-bit seed derivation and noise keys: ``[low, 2**63)``."""
    if value is not None and not low <= value < 2**63:
        raise ConfigError(f"{path}: expected an integer in [{low}, {2**63}), got {value}")


def _defaults(cls: type, skip: Sequence[str] = ()) -> dict[str, Any]:
    """Field defaults of a dataclass, less the fields that are not config keys."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name not in skip}


def _values(obj: Any, skip: Sequence[str] = ()) -> dict[str, Any]:
    """Field values of a constructed dataclass, less the fields that are not
    config keys."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in skip}


def _build(cls: Callable[..., Any], path: str, *args: Any, **kwargs: Any) -> Any:
    """``cls(*args, **kwargs)``, its validation errors reported at ``path``."""
    try:
        return cls(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# SearchConfig fields that are set from other parts of the config
_SEARCH_SKIP = ("similarity", "gcn", "seed")
_SIMILARITY_MODES = {"assigned": AssignedSimilarity, "measured": MeasuredSimilarity}


def _parse_space(raw: Any, path: str) -> SearchSpaceSpec:
    default = _values(default_space())
    values = _read(raw, path, default | {"choice_labels": _OrNull((str,))})
    if values == default | {"choice_labels": None}:
        values = default  # null labels of a 19x6 space are the default labels
    return _build(SearchSpaceSpec, path, **values)


def _parse_plan(sizes: list[int] | None, spec: SearchSpaceSpec, path: str) -> SegmentPlan:
    if sizes is None:
        sizes = [7, 6, 6] if spec.num_layers == 19 else [spec.num_layers]
    return _build(make_segment_plan, path, spec, sizes)


def _parse_similarity(raw: Any, path: str) -> SimilarityMode:
    mode = _require_mapping(raw, path).get("mode", "assigned")
    cls = _SIMILARITY_MODES.get(mode) if isinstance(mode, str) else None
    if cls is None:
        raise ConfigError(f'{path}.mode: expected "assigned" or "measured", got {mode!r}')
    values = _read(raw, path, {"mode": mode} | _defaults(cls))
    del values["mode"]
    return _build(cls, path, **values)


def _parse_search(raw: Any, seed: int, path: str) -> SearchConfig:
    values = _read(
        raw,
        path,
        _defaults(SearchConfig, _SEARCH_SKIP)
        | {"constraint_budget": _OrNull(float), "similarity": {}, "gcn": {}},
    )
    values["similarity"] = _parse_similarity(values["similarity"], f"{path}.similarity")
    gcn_path = f"{path}.gcn"
    gcn_values = _read(values["gcn"], gcn_path, _defaults(GcnConfig))
    values["gcn"] = _build(GcnConfig, gcn_path, **gcn_values)
    return _build(SearchConfig, path, seed=seed, **values)


def _parse_simulator(
    raw: Any, spec: SearchSpaceSpec, seed: int, path: str
) -> tuple[SyntheticSupernet, dict[str, Any]]:
    supernet_keys = _defaults(SyntheticSupernet, ("truth",))
    truth_keys = {
        name: p.default
        for name, p in inspect.signature(GroundTruthParams.random).parameters.items()
        if p.default is not p.empty
    }
    # null seeds fall back to streams of the config seed
    values = _read(
        raw,
        path,
        supernet_keys | truth_keys | {"truth_seed": _OrNull(int), "checkpoint_seed": _OrNull(int)},
    )
    _check_seed(values["truth_seed"], f"{path}.truth_seed")
    _check_seed(values["checkpoint_seed"], f"{path}.checkpoint_seed", low=0)
    if values["truth_seed"] is None:
        values["truth_seed"] = seed_stream(seed, "ground-truth")
    if values["checkpoint_seed"] is None:
        values["checkpoint_seed"] = seed_stream(seed, "checkpoint")
    truth_args = {k: values[k] for k in truth_keys}
    truth = GroundTruthParams.random(spec, values["truth_seed"], **truth_args)
    supernet = _build(SyntheticSupernet, path, truth, **{k: values[k] for k in supernet_keys})
    return supernet, values


def _parse_cost_model(raw: Any, spec: SearchSpaceSpec, path: str) -> tuple[CostModel, Any]:
    if raw is None or raw == "bundled":
        return bundled_cost_model(spec), "bundled"
    # fixed_cost has no dataclass default: it precedes the required table
    values = _read(raw, path, {"fixed_cost": 0.0, "cell_cost": None})
    shape = (spec.num_layers, spec.choices_per_layer)
    expected = f"{path}.cell_cost: expected a {shape[0]}x{shape[1]} table"
    if not isinstance(values["cell_cost"], list):
        raise ConfigError(f"{expected}, got {values['cell_cost']!r}")
    try:
        got = np.shape(values["cell_cost"])
    except ValueError:  # rows of different lengths
        raise ConfigError(f"{expected}, got rows of different lengths") from None
    if got != shape:
        raise ConfigError(f"{expected}, got shape {got}")
    model = _build(CostModel, path, values["fixed_cost"], values["cell_cost"])
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


def parse_config(raw: Any) -> RunConfig:
    """Validate a raw JSON object and resolve every default."""
    top = _read(raw, "$", {
        "seed": _defaults(SearchConfig)["seed"], "output_dir": "gcnas-output",
        "search_space": {}, "plan": _OrNull((int,)), "initial_architecture": _OrNull(str),
        "search": {}, "simulator": {}, "cost_model": None,
    })
    seed = top["seed"]
    _check_seed(seed, "$.seed")
    output_dir = Path(top["output_dir"])
    space = _parse_space(top["search_space"], "$.search_space")
    plan = _parse_plan(top["plan"], space, "$.plan")
    if top["initial_architecture"] is None:
        initial = default_initial_architecture(space)
    else:
        initial = _build(
            Architecture.from_text, "$.initial_architecture", top["initial_architecture"]
        )
        _build(space.validate_architecture, "$.initial_architecture", initial)
    search = _parse_search(top["search"], seed, "$.search")
    simulator, simulator_resolved = _parse_simulator(top["simulator"], space, seed, "$.simulator")
    cost_model, cost_model_resolved = _parse_cost_model(top["cost_model"], space, "$.cost_model")
    similarity_mode = next(
        m for m, cls in _SIMILARITY_MODES.items() if isinstance(search.similarity, cls)
    )
    resolved = {
        "seed": seed,
        "search_space": _values(space),
        "plan": [len(seg) for seg in plan.segments],
        "initial_architecture": initial.to_text(),
        "search": _values(search, _SEARCH_SKIP)
        | {
            "similarity": {"mode": similarity_mode} | _values(search.similarity),
            "gcn": _values(search.gcn),
        },
        "simulator": simulator_resolved,
        "cost_model": cost_model_resolved,
    }
    digest = hashlib.sha256(
        json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return RunConfig(seed, output_dir, space, plan, initial, search, simulator, cost_model, digest)


def _read_json(path: str | Path) -> Any:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse, default and validate a JSON config file."""
    return parse_config(_read_json(path))


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
    raw = _read_json(args.config) if args.config else {}
    if args.seed is not None:
        raw = _require_mapping(raw, "$") | {"seed": args.seed}
    config = parse_config(raw)
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=Path(args.out))
    return config


def _write_round(out: Path, config: RunConfig, result: RoundResult, lookup_table: bool) -> None:
    """Round report and loss curve, plus the prediction lookup table if asked."""
    t = result.report.round_index
    write_report(out / f"round_{t}.json", result.report.as_dict() | _provenance(config))
    write_loss_curve(result.loss_curve, out / f"loss_round_{t}.csv")
    if lookup_table:
        _dump_predictions(out / f"predictions_round_{t}.csv", result)


def _cmd_search(args: argparse.Namespace) -> int:
    config = _with_overrides(args)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    for result in iter_search_rounds(config.space, config.plan, config.simulator, config.search,
                                     config.cost_model, initial=config.initial_architecture):
        _write_round(out, config, result, args.dump_predictions)
        reports.append(result.report)
        del result  # free this round's graph and model before the next round starts
    final = reports[-1].best_selected
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
    # a single round searches its segment with every other layer fixed
    subspace = round_subspace(config.space, segments[segment_index], (), (),
                              config.initial_architecture)
    return run_round(subspace, config.simulator, config.search, segment_index, config.cost_model)


def _cmd_round(args: argparse.Namespace) -> int:
    """``round``, and ``predict``: the same round plus its lookup table."""
    config = _with_overrides(args)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    result = _single_round(config, args.segment)
    _write_round(out, config, result, args.lookup_table)
    t = result.report.round_index
    if args.lookup_table:
        path = out / f"predictions_round_{t}.csv"
        print(f"lookup table with {result.graph.num_nodes} entries written to {path}")
    else:
        print(f"round {t}: tau_val={result.report.tau_val:.6f} "
              f"best={result.report.best_selected.architecture.to_text()}")
        print(f"reports written to {out}")
    return 0


def _read_csv_column(spec_text: str) -> np.ndarray:
    """One value per CSV row of ``FILE.csv:COLUMN``, NaN where the cell is
    missing or not a number (a header, stray text)."""
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
            try:
                values.append(float(row[column - 1]))
            except (IndexError, ValueError):
                values.append(np.nan)
    return np.asarray(values)


def _cmd_tau(args: argparse.Namespace) -> int:
    """Kendall tau over the rows where both columns hold a number."""
    a = _read_csv_column(args.a)
    b = _read_csv_column(args.b)
    if len(a) != len(b):
        raise ValueError(f"{args.a} has {len(a)} rows but {args.b} has {len(b)}")
    both = ~np.isnan(a) & ~np.isnan(b)
    if np.count_nonzero(both) < 2:
        raise ValueError(f"fewer than 2 rows hold a number in both {args.a} and {args.b}")
    print(f"{kendall_tau(a[both], b[both]):.6f}")
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
    if np.isnan(args.budget):
        raise ValueError(f"--budget must be a number of multiply-adds, got {args.budget}")
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    result = _single_round(config, args.segment)
    selected = constraint_select(result.graph, result.model, config.cost_model, args.budget,
                                 config.simulator, config.search.top_pool)
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

    for name, lookup_table, help_text in (
        ("round", False, "run a single round on one segment"),
        ("predict", True, "run one round and dump its prediction lookup table"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--segment", type=int, default=0)
        p.set_defaults(func=_cmd_round, lookup_table=lookup_table)

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
