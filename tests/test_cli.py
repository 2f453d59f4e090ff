import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import gcnas
from gcnas import cli, search_engine
from gcnas.cli import (
    ConfigError,
    _cmd_tau,
    load_config,
    main,
    parse_config,
    write_report,
)
from gcnas.evaluator import CostModel, SyntheticSupernet, flops_many
from conftest import ACC_SNAPSHOT_A, ACC_SNAPSHOT_B, ACC_TRUE, config_digest_reference


@pytest.fixture
def tiny_config(tmp_path):
    config = {
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
        "search_space": {"num_layers": 4, "choices_per_layer": 4, "choice_labels": None},
        "plan": [2, 2],
        "search": {
            "m_samples": 14,
            "train_split": 10,
            "top_pool": 10,
            "k_preserve": 4,
            "gcn": {"hidden_dims": [8, 8], "epochs": 40, "dtype": "float64"},
        },
        "simulator": {"sigma": 0.004},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, tmp_path / "out"


# Config digests and the tiny-config result.json digest. Recorded before the
# schema was derived from the dataclasses, and recorded again when output_dir
# left the hash (config_sha256 was the only byte that moved); any drift
# changes every report.
PINNED_DIGESTS = [
    ({}, "2e0de7c615c8b84658f4fa624fbefb4a57b4d1e517a5814e00bae0156e185799"),
    (
        {
            "seed": 3,
            "search_space": {"num_layers": 10, "choices_per_layer": 6},
            "plan": [5, 5],
            "search": {
                "gcn": {"hidden_dims": [32, 32], "dtype": "float32", "epochs": 40},
                "constraint_budget": 4e8,
            },
            "cost_model": {"fixed_cost": 1, "cell_cost": [[1, 2, 3, 4, 5, 6]] * 10},
        },
        "2d51e3c03cfd982de98f276912ed712c5782bf548e68cc9aef64d7099763e603",
    ),
]
TINY_RESULT_SHA256 = "64a52f849dd629ab28749f020f4c8e53aee43574250c5ed2e561677fdfe59546"
# the tiny-config constraint.json at --budget 400000000, recorded before the
# ranking and the costs were kept on the graph between queries
TINY_CONSTRAINT_SHA256 = "98c8920819ebff8bff5c372d0a304cf44f3a3cd655333461c9eca94e209967b3"
# the tiny-config round reports less wall_seconds, re-serialized with sorted
# keys; recorded before the round, reverify and the budget query shared one
# selection path
TINY_ROUND_SHA256 = {
    0: "3a3619f6ffc8be3296489d39002b55bd1891ff3ff1b642fafa5ca2f93ff46a3d",
    1: "238c12578aeaa8d8515ff52b39bebaff286790c054d1b2c4e4856fc0bfc8c888",
}
# the tiny-config --dump-predictions tables per round, and the table of a
# 1-layer, 16-choice space, all written with csv.writer before the rows were
# joined by hand
TINY_PREDICTIONS_SHA256 = {
    0: "d98e2d916963fa5f9b66f8ca7710234f82191bf062e82a9e41c412ee2ff53f44",
    1: "dfa19b8d6d1a7099238e5dc5ba48b6cdb94fa4b8f18987798895af510c3897ef",
}
ONE_LAYER_PREDICTIONS_SHA256 = "bc87c58bd23da2f36c8585bc0731caf53c8046dac87471552e00538f83232de0"
# (dotted key, lowest or highest accepted value, the value one past it)
SEED_BOUNDS = [
    ("seed", -(2**63), -(2**63) - 1),
    ("seed", 2**63 - 1, 2**63),
    ("simulator.truth_seed", -(2**63), -(2**63) - 1),
    ("simulator.truth_seed", 2**63 - 1, 2**63),
    ("simulator.checkpoint_seed", 0, -1),
    ("simulator.checkpoint_seed", 2**63 - 1, 2**63),
]

# every leaf key of every section, as a dotted path below $
LEAF_KEYS = [
    "seed", "output_dir", "plan", "initial_architecture",
    "search_space.num_layers", "search_space.choices_per_layer", "search_space.choice_labels",
    "search.m_samples", "search.train_split", "search.top_pool", "search.k_preserve",
    "search.advance_checkpoints", "search.constraint_budget",
    "search.similarity.mode", "search.similarity.weight",
    "search.gcn.hidden_dims", "search.gcn.epochs", "search.gcn.lr", "search.gcn.lr_decay",
    "search.gcn.weight_decay", "search.gcn.dtype",
    "simulator.a", "simulator.b", "simulator.sigma", "simulator.base",
    "simulator.utility_amplitude", "simulator.pair_strength", "simulator.truth_seed",
    "simulator.checkpoint_seed",
    "cost_model.fixed_cost", "cost_model.cell_cost",
]
FLOAT_KEYS = [
    "search.constraint_budget", "search.similarity.weight", "search.gcn.lr",
    "search.gcn.lr_decay", "search.gcn.weight_decay", "simulator.a", "simulator.b",
    "simulator.sigma", "simulator.base", "simulator.utility_amplitude", "simulator.pair_strength",
    "cost_model.fixed_cost",
]
# a valid non-default value for every leaf key but output_dir and
# search.similarity.mode, whose one valid value is its default. config_with
# puts a cell table beside cost_model.fixed_cost; that config is the one of
# cost_model.cell_cost, so a digest unlike every other one shows that the
# key itself is hashed
NON_DEFAULTS = {
    "seed": 5, "plan": [10, 9], "initial_architecture": ",".join("0" * 19),
    "search_space.num_layers": 5, "search_space.choices_per_layer": 4,
    "search_space.choice_labels": ["a", "b", "c", "d", "e", "f"],
    "search.m_samples": 2001, "search.train_split": 1700, "search.top_pool": 50,
    "search.k_preserve": 3, "search.advance_checkpoints": True,
    "search.constraint_budget": 4e8, "search.similarity.weight": 0.5,
    "search.gcn.hidden_dims": [32, 32], "search.gcn.epochs": 40, "search.gcn.lr": 0.02,
    "search.gcn.lr_decay": 0.5, "search.gcn.weight_decay": 0.0, "search.gcn.dtype": "float32",
    "simulator.a": 0.9, "simulator.b": 0.1, "simulator.sigma": 0.0, "simulator.base": 0.7,
    "simulator.utility_amplitude": 0.02, "simulator.pair_strength": 0.0,
    "simulator.truth_seed": 1, "simulator.checkpoint_seed": 1,
    "cost_model.fixed_cost": 5.0, "cost_model.cell_cost": [[1.0] * 6] * 19,
}


def config_with(dotted: str, value) -> dict:
    """A config that sets ``value`` at the dotted key path, plus what the key
    needs to be read: a table for a cost model."""
    *sections, key = dotted.split(".")
    obj = {key: value}
    if sections == ["cost_model"]:
        obj = {"cell_cost": [[1.0] * 6] * 19} | obj
    for section in reversed(sections):
        obj = {section: obj}
    return obj


class TestConfigSchema:
    @pytest.mark.parametrize("raw, digest", PINNED_DIGESTS, ids=["default", "ci10"])
    def test_pinned_config_digests(self, raw, digest):
        assert parse_config(raw).config_sha256 == digest

    def test_pinned_result_digest(self, tiny_config):
        path, out = tiny_config
        assert main(["search", "--config", str(path), "--out", str(out)]) == 0
        assert hashlib.sha256((out / "result.json").read_bytes()).hexdigest() == TINY_RESULT_SHA256

    def test_pinned_round_report_digests(self, tiny_config):
        path, out = tiny_config
        assert main(["search", "--config", str(path)]) == 0
        for t, digest in TINY_ROUND_SHA256.items():
            report = json.loads((out / f"round_{t}.json").read_text())
            del report["wall_seconds"]  # the one field that varies by run
            data = json.dumps(report, sort_keys=True).encode()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_every_leaf_but_output_dir_is_hashed(self):
        unset = ("output_dir", "search.similarity.mode")
        assert list(NON_DEFAULTS) == [k for k in LEAF_KEYS if k not in unset]
        digests = [parse_config(config_with(k, v)).config_sha256 for k, v in NON_DEFAULTS.items()]
        digests.append(parse_config({}).config_sha256)
        assert len(set(digests)) == len(digests)

    @pytest.mark.parametrize("dotted", NON_DEFAULTS)
    def test_digest_matches_the_record_of_the_parsed_objects(self, dotted):
        raw = config_with(dotted, NON_DEFAULTS[dotted])
        assert parse_config(raw).config_sha256 == config_digest_reference(raw)

    def test_initial_architecture_starts_round_0(self, tiny_config):
        path, out = tiny_config
        config = json.loads(path.read_text())
        path.write_text(json.dumps(config | {"initial_architecture": "3,2,1,0"}))
        assert main(["search", "--config", str(path)]) == 0
        # plan [2, 2]: round 0 searches layers 0 and 1, layers 2 and 3 stay
        round0 = json.loads((out / "round_0.json").read_text())
        assert round0["best_sampled"]["architecture"].endswith(",1,0")
        assert all(p["architecture"].endswith(",1,0") for p in round0["preserved"])
        result = json.loads((out / "result.json").read_text())
        assert result["config_sha256"] != parse_config(config).config_sha256

    @pytest.mark.parametrize("text, message", [
        ("1,x,1", "malformed architecture string '1,x,1'"),
        ("1,1", "architecture has 2 cells, space has 19"),
        (",".join(["1"] * 18 + ["6"]), r"choice 6 at cell 18 is outside \[0, 6\)"),
    ], ids=["malformed", "wrong-length", "out-of-range"])
    def test_bad_initial_architecture_named(self, text, message):
        with pytest.raises(ConfigError, match=rf"^\$\.initial_architecture: {message}"):
            parse_config({"initial_architecture": text})

    def test_output_dir_is_not_hashed(self):
        dirs = ("a", "b/c", "gcnas-output")
        digests = {parse_config({"output_dir": d}).config_sha256 for d in dirs}
        assert digests == {parse_config({}).config_sha256}

    @pytest.mark.parametrize("dotted", LEAF_KEYS)
    @pytest.mark.parametrize("wrong", [{"an": "object"}, True], ids=["object", "bool"])
    def test_wrong_type_names_key_path(self, dotted, wrong):
        if wrong is True and dotted == "search.advance_checkpoints":
            wrong = 1  # the one boolean key
        with pytest.raises(ConfigError) as info:
            parse_config(config_with(dotted, wrong))
        assert str(info.value).startswith(f"$.{dotted}: expected ")

    @pytest.mark.parametrize(
        "raw, path",
        [
            ({"bogus": 1}, "$"),
            ({"search_space": {"bogus": 1}}, "$.search_space"),
            ({"search": {"bogus": 1}}, "$.search"),
            ({"search": {"similarity": {"bogus": 1}}}, "$.search.similarity"),
            ({"search": {"similarity": {"mode": "assigned", "bogus": 1}}}, "$.search.similarity"),
            ({"search": {"gcn": {"bogus": 1}}}, "$.search.gcn"),
            ({"simulator": {"bogus": 1}}, "$.simulator"),
            ({"cost_model": {"bogus": 1}}, "$.cost_model"),
        ],
    )
    def test_unknown_key_in_every_section(self, raw, path):
        with pytest.raises(ConfigError, match=re.escape(f"unknown key {path}.bogus")):
            parse_config(raw)

    @pytest.mark.parametrize("dotted", FLOAT_KEYS)
    def test_float_keys_accept_ints(self, dotted):
        as_int = parse_config(config_with(dotted, 1))
        assert as_int.config_sha256 == parse_config(config_with(dotted, 1.0)).config_sha256

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "1e400"]
    )
    @pytest.mark.parametrize("dotted", FLOAT_KEYS)
    def test_float_keys_reject_non_finite(self, dotted, value):
        with pytest.raises(ConfigError) as info:
            parse_config(config_with(dotted, value))
        assert str(info.value).startswith(f"$.{dotted}: expected a finite number")

    def test_non_finite_cost_cell_rejected(self):
        table = [[1.0] * 6 for _ in range(19)]
        table[4][2] = math.nan
        with pytest.raises(ConfigError, match=r"^\$\.cost_model: costs must be finite"):
            parse_config({"cost_model": {"cell_cost": table}})
        with pytest.raises(ValueError, match="finite"):
            CostModel(math.inf, [[1.0, 2.0]])

    def test_cost_table_must_be_layers_by_choices(self):
        raw = {"search_space": {"num_layers": 4, "choices_per_layer": 3},
               "cost_model": {"cell_cost": [[1.0, 2.0]]}}
        with pytest.raises(ConfigError, match=r"^\$\.cost_model\.cell_cost: expected a 4x3 table, "
                                              r"got shape \(1, 2\)"):
            parse_config(raw)

    @pytest.mark.parametrize("table, got", [
        ([[1, 2], [3]], "rows of different lengths"),
        ([1] * 19, r"shape \(19,\)"),
    ], ids=["ragged", "1-d"])
    def test_cost_table_shape_reported_at_its_key(self, table, got):
        with pytest.raises(ConfigError, match=r"^\$\.cost_model\.cell_cost: expected a 19x6 "
                                              rf"table, got {got}$"):
            parse_config({"cost_model": {"cell_cost": table}})

    def test_empty_object_gives_full_defaults(self):
        config = parse_config({})
        assert config.space.num_layers == 19
        assert config.space.choices_per_layer == 6
        assert [len(s) for s in config.plan.segments] == [7, 6, 6]
        assert config.search.m_samples == 2000
        assert config.search.train_split == 1800
        assert config.search.top_pool == 100
        assert config.search.k_preserve == 6
        assert config.search.gcn.epochs == 600
        assert config.search.gcn.hidden_dims == (512, 512)
        assert config.search.gcn.lr == 0.01
        assert config.search.gcn.weight_decay == pytest.approx(5e-4)
        assert config.search.similarity.weight == pytest.approx(math.exp(-0.5))
        assert config.initial_architecture.choices == (1,) * 19
        assert config.simulator.a == 0.95

    def test_default_labels_replace_only_null_labels_of_19x6(self):
        labels = ["a", "b", "c", "d", "e", "f"]
        space = parse_config({"search_space": {"choice_labels": labels}}).space
        assert space.choice_labels == tuple(labels)
        assert parse_config({"search_space": {"num_layers": 5}}).space.choice_labels is None

    def test_choices_below_two_rejected(self):
        with pytest.raises(ConfigError, match="choices_per_layer"):
            parse_config({"search_space": {"choices_per_layer": 1}})

    def test_unknown_key_names_path(self):
        with pytest.raises(ConfigError, match=r"\$\.foo"):
            parse_config({"foo": 1})
        with pytest.raises(ConfigError, match=r"\$\.search\.gcn\.bar"):
            parse_config({"search": {"gcn": {"bar": 1}}})
        with pytest.raises(ConfigError, match=r"\$\.simulator\.nope"):
            parse_config({"simulator": {"nope": 1}})

    def test_type_errors_name_path(self):
        with pytest.raises(ConfigError, match=r"\$\.seed"):
            parse_config({"seed": "abc"})
        with pytest.raises(ConfigError, match=r"\$\.plan"):
            parse_config({"plan": "oops"})

    @pytest.mark.parametrize("dtype", ["floatX", "int32", "bool", "float16", "complex128"])
    def test_bad_dtype_is_a_config_error(self, dtype):
        with pytest.raises(ConfigError, match=r"^\$\.search\.gcn: "):
            parse_config({"search": {"gcn": {"dtype": dtype}}})

    @pytest.mark.parametrize(
        "raw, path",
        [
            ({"gcn": {"lr_decay": -1}}, "$.search.gcn"),
            ({"gcn": {"lr_decay": 0}}, "$.search.gcn"),
            ({"gcn": {"lr_decay": 1.5}}, "$.search.gcn"),
            ({"gcn": {"weight_decay": -0.001}}, "$.search.gcn"),
            ({"similarity": {"weight": -1}}, "$.search.similarity"),
            ({"similarity": {"weight": 0}}, "$.search.similarity"),
            ({"m_samples": 10, "train_split": 9}, "$.search"),  # one validation sample
        ],
    )
    def test_out_of_range_values_name_section(self, raw, path):
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: "):
            parse_config({"search": raw})

    @pytest.mark.parametrize("dotted, inside, outside", SEED_BOUNDS)
    def test_seed_ranges(self, dotted, inside, outside):
        assert parse_config(config_with(dotted, inside))
        with pytest.raises(ConfigError) as info:
            parse_config(config_with(dotted, outside))
        assert str(info.value).startswith(f"$.{dotted}: expected an integer in [")

    def test_readme_configuration_is_the_default(self):
        # the README's jsonc block, its // comments stripped, documents every
        # key at its default: it parses to the pinned default digest
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## Configuration\n", 1)[1].split("```jsonc\n", 1)[1]
        text = re.sub(r"//.*", "", block.split("```", 1)[0])
        assert parse_config(json.loads(text)).config_sha256 == PINNED_DIGESTS[0][1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_config_hash_stable(self, tiny_config):
        path, _ = tiny_config
        assert load_config(path).config_sha256 == load_config(path).config_sha256


class TestTauCommand:
    def test_published_table_values(self, tmp_path, capsys):
        path = tmp_path / "cols.csv"
        rows = ["acc_star,acc_a,acc_b"]
        rows += [f"{x},{y},{z}" for x, y, z in zip(ACC_TRUE, ACC_SNAPSHOT_A, ACC_SNAPSHOT_B)]
        path.write_text("\n".join(rows))
        assert main(["tau", "--a", f"{path}:1", "--b", f"{path}:2"]) == 0
        assert capsys.readouterr().out.strip() == "0.214286"
        assert main(["tau", "--a", f"{path}:1", "--b", f"{path}:3"]) == 0
        assert capsys.readouterr().out.strip() == "-0.142857"

    def test_missing_file_exits_nonzero(self, capsys):
        assert main(["tau", "--a", "missing.csv:1", "--b", "missing.csv:2"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_column_spec(self, capsys):
        assert main(["tau", "--a", "file.csv", "--b", "file.csv:2"]) == 1

    def test_pairs_values_by_row(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_text("a,b\n1,10\n2,n/a\n3,5\nx,40\n5,50\n")
        assert main(["tau", "--a", f"{path}:1", "--b", f"{path}:2"]) == 0
        # rows 1, 3 and 5 hold both values: (1, 10), (3, 5), (5, 50)
        assert capsys.readouterr().out.strip() == "0.333333"

    def test_files_of_different_lengths_exit_1(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("1\n2\n3\n4\n")
        b.write_text("4\n3\n1\n")
        assert main(["tau", "--a", f"{a}:1", "--b", f"{b}:1"]) == 1
        err = capsys.readouterr().err
        assert "has 4 rows" in err and "has 3" in err


class TestSearchCommand:
    def test_deterministic_result_json(self, tiny_config, capsys):
        path, out = tiny_config
        assert main(["search", "--config", str(path)]) == 0
        first = (out / "result.json").read_bytes()
        assert main(["search", "--config", str(path)]) == 0
        assert (out / "result.json").read_bytes() == first

    def test_reports_written_with_provenance(self, tiny_config):
        path, out = tiny_config
        main(["search", "--config", str(path)])
        result = json.loads((out / "result.json").read_text())
        for key in ("architecture", "accuracy", "flops", "per_round_tau", "config_sha256", "seed"):
            assert key in result
        assert result["seed"] == 7
        round0 = json.loads((out / "round_0.json").read_text())
        assert round0["config_sha256"] == result["config_sha256"]
        assert "wall_seconds" in round0
        assert (out / "loss_round_0.csv").read_text().startswith("epoch,loss")

    def test_seed_override_changes_result(self, tiny_config):
        path, out = tiny_config
        main(["search", "--config", str(path)])
        baseline = json.loads((out / "result.json").read_text())
        main(["search", "--config", str(path), "--seed", "99"])
        overridden = json.loads((out / "result.json").read_text())
        assert overridden["seed"] == 99
        assert overridden["config_sha256"] != baseline["config_sha256"]

    @pytest.mark.parametrize("argv, t", [(["search"], 0), (["round", "--segment", "1"], 1)],
                             ids=["search", "round"])
    @pytest.mark.parametrize("failure", ["refused", "evaluator-fails"])
    def test_round_error_names_the_round(
        self, tiny_config, capsys, monkeypatch, argv, t, failure
    ):
        path, out = tiny_config
        if failure == "refused":
            config = json.loads(path.read_text())
            config["search"]["m_samples"] = 20  # each round has 16 nodes
            path.write_text(json.dumps(config))
            message = "m_samples=20 exceeds the 16 nodes of the subspace"
        else:
            def unreadable(self, archs):
                raise OSError(errno.EIO, "evaluation store unreadable")

            monkeypatch.setattr(SyntheticSupernet, "evaluate_many", unreadable)
            message = f"[Errno {errno.EIO}] evaluation store unreadable"
        assert main([*argv, "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}", f"  round {t}"]
        assert not out.exists()  # a round that fails inside leaves no directory either

    @pytest.mark.parametrize("num_layers, plan, message", [
        (12, [5, 7], f"subspace has {6**7 * 6} nodes, exceeding the cap of {6**7}"),
        (8, [5, 3], f"m_samples=2000 exceeds the {6**3 * 6} nodes of the subspace"),
    ])
    def test_later_round_refused_before_writing(
        self, tmp_path, capsys, monkeypatch, num_layers, plan, message
    ):
        # without a budget, round 1 has O^|segment| x k_preserve nodes
        path, out = tmp_path / "config.json", tmp_path / "out"
        path.write_text(json.dumps({
            "output_dir": str(out),
            "search_space": {"num_layers": num_layers, "choices_per_layer": 6},
            "plan": plan,
            "search": {"gcn": {"hidden_dims": [8, 8], "epochs": 2, "dtype": "float32"}},
        }))
        monkeypatch.setattr(search_engine, "train", lambda *a: pytest.fail("round 0 trained"))
        assert main(["search", "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}", "  round 1"]
        assert not out.exists()

    def test_earlier_rounds_freed_before_the_next_round(self, tiny_config, monkeypatch):
        path, _ = tiny_config
        config = json.loads(path.read_text())
        config["plan"] = [2, 1, 1]
        path.write_text(json.dumps(config))
        run_round = search_engine.run_round
        refs = []
        alive_at_start = []

        def tracked(*args, **kwargs):
            alive_at_start.append([ref() is not None for ref in refs])
            result = run_round(*args, **kwargs)
            refs.extend((weakref.ref(result.graph), weakref.ref(result.model)))
            return result

        monkeypatch.setattr(search_engine, "run_round", tracked)
        assert main(["search", "--config", str(path)]) == 0
        assert alive_at_start == [[], [False] * 2, [False] * 4]

    def test_misshapen_cost_table_fails_before_writing(self, tiny_config, capsys):
        path, out = tiny_config
        config = json.loads(path.read_text())
        config["cost_model"] = {"cell_cost": [[1.0, 2.0]]}
        path.write_text(json.dumps(config))
        assert main(["search", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: $.cost_model.cell_cost: expected a 4x4")
        assert not out.exists()

    def test_measured_mode_refused_before_writing(self, tiny_config, capsys):
        path, out = tiny_config
        config = json.loads(path.read_text())
        config["search"]["similarity"] = {"mode": "measured"}
        path.write_text(json.dumps(config))
        assert main(["search", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: $.search.similarity.mode: expected \"assigned\", got 'measured'\n"
        )
        assert not out.exists()

    def test_dump_predictions(self, tiny_config):
        path, out = tiny_config
        main(["search", "--config", str(path), "--dump-predictions"])
        lines = (out / "predictions_round_0.csv").read_text().splitlines()
        assert lines[0] == "architecture,predicted_score"
        assert len(lines) == 1 + 16
        for t, digest in TINY_PREDICTIONS_SHA256.items():
            data = (out / f"predictions_round_{t}.csv").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_dump_predictions_of_one_layer(self, tiny_config):
        path, out = tiny_config
        config = json.loads(path.read_text())
        config["search_space"] = {"num_layers": 1, "choices_per_layer": 16}
        del config["plan"]
        path.write_text(json.dumps(config))
        assert main(["round", "--config", str(path), "--dump-predictions"]) == 0
        data = (out / "predictions_round_0.csv").read_bytes()
        assert data.startswith(b"architecture,predicted_score\r\n0,0.")  # unquoted
        assert hashlib.sha256(data).hexdigest() == ONE_LAYER_PREDICTIONS_SHA256


class TestOtherCommands:
    def test_consistency_fields(self, tiny_config):
        path, out = tiny_config
        assert main(["consistency", "--config", str(path), "--n", "150"]) == 0
        payload = json.loads((out / "consistency.json").read_text())
        assert payload["n_archs"] == 150
        assert payload["tau_same_checkpoint"] == 1.0
        assert -1.0 <= payload["tau_between_checkpoints"] <= 1.0

    def test_consistency_computes_one_tau(self, tiny_config, monkeypatch):
        # a checkpoint ranks its architectures as itself ranks them: tau 1
        path, _ = tiny_config
        calls, kendall_tau = [], cli.kendall_tau
        monkeypatch.setattr(
            cli, "kendall_tau", lambda a, b: calls.append(len(a)) or kendall_tau(a, b)
        )
        assert main(["consistency", "--config", str(path), "--n", "150"]) == 0
        assert calls == [150]

    def test_calibrate_writes_fragment(self, tiny_config):
        path, out = tiny_config
        assert main(["calibrate-sigma", "--config", str(path), "--n", "200"]) == 0
        fragment = json.loads((out / "sigma.json").read_text())
        assert 0 < fragment["simulator"]["sigma"] < 1

    @pytest.mark.parametrize("command", ["calibrate-sigma", "consistency"])
    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_too_few_samples_exit_1_without_warnings(self, tiny_config, capsys, command, n):
        path, _ = tiny_config
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(path), "--n", n]) == 1
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("n, message", [
        *((n, f"--n must be >= 2 to rank two checkpoints, got {n}") for n in ("1", "0", "-3")),
        ("257", "cannot sample 257 distinct architectures from a space of 256"),
    ], ids=["1", "0", "-3", "257"])
    def test_consistency_refuses_too_few_samples_before_writing(
        self, tiny_config, capsys, n, message
    ):
        path, out = tiny_config
        assert main(["consistency", "--config", str(path), "--n", n]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_segment_outside_the_plan_exits_1(self, tiny_config, capsys):
        path, _ = tiny_config
        assert main(["round", "--config", str(path), "--segment", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: segment index 2 outside [0, 2) of the plan\n"
        )

    def test_round_and_predict(self, tiny_config):
        path, out = tiny_config
        assert main(["round", "--config", str(path), "--segment", "1"]) == 0
        assert (out / "round_1.json").exists()
        assert main(["round", "--config", str(path), "--dump-predictions"]) == 0
        assert (out / "predictions_round_0.csv").exists()

    def test_constraint_respects_budget(self, tiny_config):
        path, out = tiny_config
        assert main(["round", "--config", str(path), "--budget", "400000000"]) == 0
        payload = json.loads((out / "constraint.json").read_text())
        assert payload["flops"] <= 4e8
        assert payload["budget"] == 4e8
        digest = hashlib.sha256((out / "constraint.json").read_bytes()).hexdigest()
        assert digest == TINY_CONSTRAINT_SHA256

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_config_file(self, capsys):
        assert main(["search", "--config", "does-not-exist.json"]) == 1
        assert "error" in capsys.readouterr().err


class TestRoundCommand:
    """``gcnas round`` is the one command of a single round: ``--dump-predictions``
    adds the round's lookup table and ``--budget`` one query of it."""

    @staticmethod
    def round_digest(path: Path) -> str:
        report = json.loads(path.read_text())
        del report["wall_seconds"]  # the one field that varies by run
        return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()

    def test_budget_keeps_the_round_it_trained(self, tiny_config):
        path, out = tiny_config
        assert main(["round", "--config", str(path), "--budget", "400000000"]) == 0
        digest = hashlib.sha256((out / "constraint.json").read_bytes()).hexdigest()
        assert digest == TINY_CONSTRAINT_SHA256
        assert self.round_digest(out / "round_0.json") == TINY_ROUND_SHA256[0]
        assert (out / "loss_round_0.csv").read_text().startswith("epoch,loss\n")
        assert not (out / "predictions_round_0.csv").exists()

    def test_table_and_budget_together(self, tiny_config, capsys):
        path, out = tiny_config
        argv = ["round", "--config", str(path), "--dump-predictions", "--budget", "4e8"]
        assert main(argv) == 0
        table = (out / "predictions_round_0.csv").read_bytes()
        assert hashlib.sha256(table).hexdigest() == TINY_PREDICTIONS_SHA256[0]
        digest = hashlib.sha256((out / "constraint.json").read_bytes()).hexdigest()
        assert digest == TINY_CONSTRAINT_SHA256
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(" ")[0] for line in printed] == ["round", "lookup", "best", "reports"]
        assert printed[1].endswith(str(out / "predictions_round_0.csv"))
        assert printed[3] == f"reports written to {out}"

    @pytest.mark.parametrize("command", ["predict", "constraint"])
    def test_removed_commands_are_unknown(self, capsys, command):
        assert main([command, "--budget", "1"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_help_lists_five_commands(self, capsys):
        assert main(["--help"]) == 0
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage.endswith(" {search,round,tau,calibrate-sigma,consistency} ...")
        for command in ("search", "round", "tau", "calibrate-sigma", "consistency"):
            assert main([command, "--help"]) == 0

    def test_subspace_past_the_node_cap_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "output_dir": str(tmp_path / "out"),
            "search_space": {"num_layers": 25, "choices_per_layer": 6},
            "plan": [25],
        }))
        assert main(["round", "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: subspace has {6**25} nodes, exceeding the cap of {6**7}", "  round 0"
        ]


    @pytest.mark.parametrize("command", ["search", "round"])
    def test_refused_run_leaves_no_directory(self, tmp_path, capsys, command):
        path, out = tmp_path / "config.json", tmp_path / "out"
        path.write_text(json.dumps({
            "output_dir": str(out),
            "search_space": {"num_layers": 25, "choices_per_layer": 6},
            "plan": [25],
        }))
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: subspace has {6**25} nodes, exceeding the cap of {6**7}", "  round 0"
        ]
        assert not out.exists()


class TestSeedsOutOfRange:
    """Each seed bound, and the value one past it, through the command line."""

    @staticmethod
    def run(tiny_config, raw: dict, *extra: str) -> int:
        path, _ = tiny_config
        path.write_text(json.dumps(json.loads(path.read_text()) | raw))
        return main(["consistency", "--config", str(path), "--n", "20", *extra])

    @pytest.mark.parametrize("dotted, inside, outside", SEED_BOUNDS)
    def test_in_config(self, tiny_config, capsys, dotted, inside, outside):
        section, _, key = dotted.rpartition(".")
        nest = (lambda v: {section: {key: v}}) if section else (lambda v: {key: v})
        assert self.run(tiny_config, nest(inside)) == 0
        assert self.run(tiny_config, nest(outside)) == 1
        assert capsys.readouterr().err.startswith(f"error: $.{dotted}: expected an integer")

    @pytest.mark.parametrize("inside, outside", [(-(2**63), -(2**63) - 1), (2**63 - 1, 2**64)])
    def test_seed_flag(self, tiny_config, capsys, inside, outside):
        assert self.run(tiny_config, {}, "--seed", str(inside)) == 0
        assert self.run(tiny_config, {}, "--seed", str(outside)) == 1
        assert capsys.readouterr().err.startswith("error: $.seed: expected an integer")


class TestConstraintBudget:
    def test_nan_rejected_before_the_round(self, tiny_config, capsys, monkeypatch):
        path, out = tiny_config
        monkeypatch.setattr(search_engine, "train", lambda *a: pytest.fail("trained"))
        assert main(["round", "--config", str(path), "--budget", "nan"]) == 1
        assert "--budget must be a number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", [math.inf, 1.0])
    def test_budget_below_every_node_fails_before_the_round(
        self, tiny_config, capsys, monkeypatch, below
    ):
        path, out = tiny_config
        config = load_config(path)
        subspace = search_engine.round_subspace(
            config.space, config.plan.segments[0], (), (), config.initial_architecture
        )
        every_node = subspace.choices(subspace.digits(np.arange(subspace.node_count)))
        minimum = float(flops_many(every_node, config.cost_model).min())
        monkeypatch.setattr(search_engine, "sample_uniform", lambda *a: pytest.fail("sampled"))
        monkeypatch.setattr(search_engine, "train", lambda *a: pytest.fail("trained"))
        budget = minimum - below
        assert main(["round", "--config", str(path), f"--budget={budget!r}"]) == 1
        assert capsys.readouterr().err == (
            f"error: no architecture within budget {budget:g}; "
            f"minimum achievable cost is {minimum:g}\n  round 0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("budget, code", [("inf", 0), ("-inf", 1)])
    def test_infinite_budgets(self, tiny_config, capsys, budget, code):
        path, out = tiny_config
        assert main(["round", "--config", str(path), f"--budget={budget}"]) == code
        if code:
            assert "no architecture within budget -inf" in capsys.readouterr().err
        else:
            assert json.loads((out / "constraint.json").read_text())["budget"] == math.inf


class TestReportFormat:
    def test_floats_rounded_to_6_places(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(path, {"value": 0.123456789, "nested": [1.00000049, True, 3]})
        payload = json.loads(path.read_text())
        assert payload["value"] == 0.123457
        assert payload["nested"] == [1.0, True, 3]

    def test_report_roundtrip_byte_identical(self, tiny_config):
        path, out = tiny_config
        main(["search", "--config", str(path)])
        report_path = out / "result.json"
        payload = json.loads(report_path.read_text())
        original = report_path.read_bytes()
        write_report(report_path, payload)
        assert report_path.read_bytes() == original


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats takes about a second to import, more than a quarter of the
    # set-up time of every benchmark workload
    src = Path(gcnas.__file__).parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = os.environ | {"PYTHONPATH": path}
    code = "import sys, gcnas.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "run, error, message",
    [
        (lambda csv: parse_config({"search": 5}), ConfigError,
         "$.search: expected an object, got int"),
        (lambda csv: parse_config({"search": {"similarity": []}}), ConfigError,
         "$.search.similarity: expected an object, got list"),
        (lambda csv: _cmd_tau(Namespace(a=f"{csv}:one", b=f"{csv}:2")), ValueError,
         "column spec '{csv}:one' has a non-integer column"),
        (lambda csv: _cmd_tau(Namespace(a=f"{csv}:0", b=f"{csv}:2")), ValueError,
         "column index must be >= 1, got 0"),
        (lambda csv: _cmd_tau(Namespace(a=f"{csv}:1", b=f"{csv}:2")), ValueError,
         "fewer than 2 rows hold a number in both {csv}:1 and {csv}:2"),
    ],
    ids=["section", "nested-section", "non-integer-column", "column-0", "one-numeric-row"],
)
def test_refusals(tmp_path, run, error, message):
    # one row of the file holds a number in both columns
    csv = tmp_path / "scores.csv"
    csv.write_text("a,b\n1,4\n2,x\n")
    with pytest.raises(error, match=f"^{re.escape(message.format(csv=csv))}$") as info:
        run(csv)
    assert type(info.value) is error
