import contextlib
import io
import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reprogram import classifier, program
from reprogram.cli import load_config, main
from reprogram.data import save_csv, synth_tasks
from reprogram.errors import ConfigError, NumericError

TINY = {
    "seed": 0,
    "data": {"mode": "synthetic", "source_size": 800, "target_size": 500},
    "train": {"epochs": 12},
    "reprogram": {
        "outer_iterations": 8,
        "batch_size": 16,
        "ksvd": {"epsilon": 0.045, "max_atoms": 8, "sweeps": 2},
    },
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.fixture
def source_checkpoint(tmp_path, config_path):
    out = tmp_path / "src"
    assert main(["train-source", "--config", config_path, "--out", str(out)]) == 0
    return str(out / "source_checkpoint.json")


@pytest.fixture
def program_path(tmp_path, config_path, source_checkpoint):
    out = tmp_path / "prog"
    assert main(["reprogram", "--config", config_path,
                 "--source-checkpoint", source_checkpoint, "--out", str(out)]) == 0
    return str(out / "program.json")


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"sede": 1}')
        with pytest.raises(ConfigError, match="sede"):
            load_config(str(path))

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"reprogram": {"ksvd": {"epsilonn": 0.1}}}')
        with pytest.raises(ConfigError, match="epsilonn"):
            load_config(str(path))

    def test_missing_dataset_path_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"data": {"mode": "csv",
                                             "target_path": "/nope/missing.csv"}}))
        code = main(["train-source", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "/nope/missing.csv" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["train-source", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text, message", [
        ("[]", "the config must be a JSON object"),
        ('{"reprogram": 5}', "'reprogram' must be an object"),
        ('{"reprogram": {"ksvd": []}}', "'reprogram.ksvd' must be an object"),
    ])
    def test_non_object_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))

    @pytest.mark.parametrize("doc, accepted", [
        ({"reprogram": {"step_size": 1}}, True),  # an int where the default is a float
        ({"reprogram": {"outer_iterations": True}}, False),  # a bool is never a number
        ({"reprogram": {"step_size": False}}, False),
        ({"reprogram": {"decay": None}}, True),  # null only where the default is null
        ({"data": {"source_path": None}}, True),
        ({"reprogram": {"ksvd": {"epsilon": None}}}, False),
        ({"reprogram": {"ksvd": {"max_atoms": None}}}, False),
        ({"reprogram": {"ksvd": {"update_dictionary": None}}}, False),
        ({"reprogram": {"decay": 0.99}}, True),  # a null default names the type it takes
        ({"reprogram": {"decay": 1}}, True),
        ({"reprogram": {"decay": "0.99"}}, False),
        ({"data": {"target_path": 1}}, False),
    ])
    def test_value_type_rule(self, tmp_path, doc, accepted):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        if accepted:
            load_config(str(path))
        else:
            with pytest.raises(ConfigError, match="must be"):
                load_config(str(path))

    def test_list_valued_label_map_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"reprogram": {"label_map": [1, 0]}}))
        assert load_config(str(path))["reprogram"]["label_map"] == [1, 0]

    def test_defaults_filled(self, config_path):
        cfg = load_config(config_path)
        assert cfg["reprogram"]["ksvd"]["epsilon"] == 0.045
        assert cfg["split"]["train"] == 0.8

    def test_removed_projection_mode_rejected(self, tmp_path, capsys):
        # the training loop has one mode; a config that still picks one is stale
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_with(TINY, "reprogram.projection_mode", "encode_once")))
        assert main(["train-source", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: unknown config key 'reprogram.projection_mode'"]


def _with(doc, dotted, value):
    """A deep copy of a config with the value at a dotted key replaced."""
    doc = json.loads(json.dumps(doc))
    *sections, key = dotted.split(".")
    inner = doc
    for section in sections:
        inner = inner.setdefault(section, {})
    inner[key] = value
    return doc


@pytest.mark.parametrize("key, value, flags", [
    ("reprogram.outer_iterations", 2.5, ()),
    ("reprogram.batch_size", "64", ()),
    ("reprogram.ksvd.epsilon", None, ()),
    ("reprogram.ksvd.max_atoms", 2.5, ()),
    ("reprogram.step_size", "0.01", ()),
    ("seed", "abc", ()),
    ("reprogram.ksvd.update_dictionary", "no", ()),
    ("seed", -1, ()),
    ("split.seed", -1, ()),
    ("seed", 0, ("--seed", "-1")),
    ("reprogram.decay", "abc", ()),
    ("reprogram.decay", True, ()),
    ("data.target_path", 1, ()),
    ("data.source_path", ["a.csv"], ()),
    # the OMP stop norm and the unused-atom rule are fixed, not settable
    ("reprogram.ksvd.residual_norm", "l1", ()),
    ("reprogram.ksvd.unused_atom_policy", "replace_with_worst_residual", ()),
    # json reads NaN, Infinity and a numeral past the float range; none is a number here
    *[(key, value, ()) for key in ("split.train", "reprogram.step_size", "reprogram.ksvd.epsilon")
      for value in (float("nan"), float("inf"), -float("inf"), "1e999")],
    # an integer that does not fit in int64 never reaches numpy
    ("train.embed_dim", 10**30, ()),
    ("reprogram.outer_iterations", 2**63, ()),
])
def test_bad_config_value_exit_2(tmp_path, capsys, key, value, flags):
    path = tmp_path / "cfg.json"
    # json.dumps writes infinity as Infinity, so the numeral 1e999 goes in as text
    path.write_text(json.dumps(_with(TINY, key, value)).replace('"1e999"', "1e999"))
    argv = ["train-source", "--config", str(path), *flags, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and key in err


def test_allocation_too_large_exit_3(tmp_path, capsys, monkeypatch):
    # a hidden_dim within int64 passes the config check, and numpy's first
    # allocation of that size fails; the failure is faked, not allocated
    message = "Unable to allocate 233. TiB for an array with shape (1000000000000, 32)"

    def init_weights(*args):
        raise MemoryError(message)

    monkeypatch.setattr(classifier, "_init_weights", init_weights)
    path, out = tmp_path / "cfg.json", tmp_path / "o"
    path.write_text(json.dumps(_with(TINY, "train.hidden_dim", 10**12)))
    assert main(["train-source", "--config", str(path), "--out", str(out)]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and list(out.iterdir()) == []
    assert err.splitlines() == [f"runtime error: {message}"]


@pytest.mark.parametrize("parts", [(0.9, 0.2, -0.1), (200, -5, 50)])
@pytest.mark.parametrize("command", ["train-source", "reprogram"])
def test_negative_split_part_exit_2_before_training(tmp_path, capsys, request, parts, command):
    argv = [command]
    if command == "reprogram":
        argv += ["--source-checkpoint", request.getfixturevalue("source_checkpoint")]
        capsys.readouterr()
    path, out = tmp_path / "cfg.json", tmp_path / "o"
    path.write_text(json.dumps(dict(TINY, split=dict(zip(("train", "valid", "test"), parts)))))
    assert main(argv + ["--config", str(path), "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and list(out.iterdir()) == []
    assert err.splitlines() == [f"error: split parts must be non-negative, got {parts}"]


class TestTrainSource:
    def test_report_contents(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["train-source", "--config", config_path, "--out", str(out)]) == 0
        report = json.loads((out / "train_source_report.json").read_text())
        assert "majority_class_accuracy" in report
        assert report["train_accuracy"] > 0.5
        assert os.path.exists(out / "source_checkpoint.json")

    @pytest.mark.parametrize("architecture", ["bag_mlp", "birnn"])
    def test_diverging_training_exit_3(self, tmp_path, capsys, architecture):
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        doc = _with(_with(TINY, "train.learning_rate", 1e300), "train.architecture", architecture)
        path.write_text(json.dumps(doc))
        assert main(["train-source", "--config", str(path), "--out", str(out)]) == 3
        stdout, err = capsys.readouterr()
        assert stdout == "" and list(out.iterdir()) == []
        assert err.splitlines() == ["runtime error: source training diverged in epoch 1: "
                                    "non-finite loss, embedding or weight (learning_rate 1e+300)"]


class TestReprogram:
    def test_outputs_and_determinism(self, tmp_path, config_path, source_checkpoint):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code = main(["reprogram", "--config", config_path,
                         "--source-checkpoint", source_checkpoint, "--out", str(out)])
            assert code == 0
        summary = json.loads((out1 / "summary.json").read_text())
        assert set(summary) >= {"test_accuracy", "ksvd_iterations", "epsilon", "seed"}
        assert summary["epsilon"] == 0.045
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "program.json").read_bytes() == (out2 / "program.json").read_bytes()

    def test_empty_test_split_exit_2(self, tmp_path, capsys, source_checkpoint):
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps(dict(TINY, split={"train": 0.8, "valid": 0.2, "test": 0.0})))
        capsys.readouterr()
        assert main(_reprogram_argv(path, source_checkpoint, tmp_path)) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.splitlines() == ["error: cannot evaluate on an empty dataset"]


class TestEval:
    def test_confusion_sums_to_dataset(self, tmp_path, config_path, source_checkpoint):
        run = tmp_path / "run"
        main(["reprogram", "--config", config_path,
              "--source-checkpoint", source_checkpoint, "--out", str(run)])
        out = tmp_path / "eval"
        code = main(["eval", "--config", config_path,
                     "--source-checkpoint", source_checkpoint,
                     "--program", str(run / "program.json"), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "eval_summary.json").read_text())
        total = sum(sum(row) for row in summary["confusion"])
        assert total == summary["num_samples"] > 0


class TestSweeps:
    def test_sweep_data_csv(self, tmp_path, config_path, source_checkpoint):
        out = tmp_path / "sw"
        code = main(["sweep-data", "--config", config_path,
                     "--source-checkpoint", source_checkpoint,
                     "--grid", "50,100", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep_data.csv").read_text().strip().splitlines()
        assert lines[0] == "n,reprogram_accuracy,scratch_accuracy"
        assert len(lines) == 3

    def test_sweep_data_grid_too_large(self, tmp_path, config_path, source_checkpoint):
        code = main(["sweep-data", "--config", config_path,
                     "--source-checkpoint", source_checkpoint,
                     "--grid", "100000", "--out", str(tmp_path / "sw")])
        assert code == 2

    def test_sweep_ksvd_csv(self, tmp_path, config_path, source_checkpoint):
        out = tmp_path / "sk"
        code = main(["sweep-ksvd", "--config", config_path,
                     "--source-checkpoint", source_checkpoint,
                     "--grid", "1,2", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep_ksvd.csv").read_text().strip().splitlines()
        assert lines[0] == "ksvd_sweeps,train_accuracy,test_accuracy,final_coding_error"
        assert len(lines) == 3

    @pytest.mark.parametrize("update_dictionary", [False, True], ids=["fixed", "learned"])
    def test_sweep_ksvd_default_mode_writes_coding_error(self, tmp_path, source_checkpoint,
                                                         update_dictionary):
        # theta is coded once; that coding's error is the row's
        cfg = json.loads(json.dumps(TINY))
        cfg["reprogram"]["ksvd"]["update_dictionary"] = update_dictionary
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["sweep-ksvd", "--config", str(path),
                     "--source-checkpoint", source_checkpoint,
                     "--grid", "1,2", "--out", str(tmp_path / "sk")])
        assert code == 0
        rows = (tmp_path / "sk" / "sweep_ksvd.csv").read_text().strip().splitlines()[1:]
        errors = [float(row.split(",")[-1]) for row in rows]
        assert len(errors) == 2 and all(math.isfinite(e) for e in errors)

    def test_sweep_ksvd_fixed_dictionary_says_rows_cannot_differ(
        self, tmp_path, config_path, source_checkpoint, capsys, monkeypatch
    ):
        runs = count_calls(monkeypatch, program, "reprogram_train")
        capsys.readouterr()
        code = main(["sweep-ksvd", "--config", config_path,
                     "--source-checkpoint", source_checkpoint,
                     "--grid", "1,2", "--out", str(tmp_path / "sk")])
        assert code == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "cannot differ" in err[0]
        rows = (tmp_path / "sk" / "sweep_ksvd.csv").read_text().strip().splitlines()[1:]
        assert rows[0].split(",")[1:] == rows[1].split(",")[1:]
        assert len(runs) == 1  # the fixed dictionary's program is trained once

    def test_sweep_ksvd_learned_dictionary_trains_each_entry(
        self, tmp_path, source_checkpoint, monkeypatch
    ):
        cfg = json.loads(json.dumps(TINY))
        cfg["reprogram"]["ksvd"]["update_dictionary"] = True
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        runs = count_calls(monkeypatch, program, "reprogram_train")
        code = main(["sweep-ksvd", "--config", str(path),
                     "--source-checkpoint", source_checkpoint,
                     "--grid", "1,2", "--out", str(tmp_path / "sk")])
        assert code == 0
        assert [args[-1].ksvd.sweeps for args in runs] == [1, 2]

    def test_descending_grid_rejected(self, tmp_path, config_path, source_checkpoint):
        code = main(["sweep-ksvd", "--config", config_path,
                     "--source-checkpoint", source_checkpoint,
                     "--grid", "3,1", "--out", str(tmp_path / "sk")])
        assert code == 2

    @pytest.mark.parametrize("command", ["sweep-data", "sweep-ksvd"])
    @pytest.mark.parametrize("grid", ["", ",", "-5", "0", "50,0"])
    def test_empty_or_non_positive_grid_exit_2(self, tmp_path, config_path, source_checkpoint,
                                               capsys, command, grid):
        _exits_2_with_one_error_line(
            capsys, [command, "--config", config_path, "--source-checkpoint", source_checkpoint,
                     f"--grid={grid}", "--out", str(tmp_path / "sw")], "invalid grid")
        assert not (tmp_path / "sw").exists() or not any((tmp_path / "sw").iterdir())


class TestValidationWorker:
    """`reprogram` when scoring the validation split fails. The class name is
    kept from when a forked worker did the scoring; it is done in-process."""

    def test_scoring_error_exit_3(self, tmp_path, config_path, source_checkpoint, capsys,
                                  monkeypatch):
        def predict(*args):
            raise NumericError("logits are not finite")

        monkeypatch.setattr(program, "predict", predict)
        capsys.readouterr()
        assert main(_reprogram_argv(config_path, source_checkpoint, tmp_path)) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["runtime error: logits are not finite"]
        assert captured.out == ""


def count_calls(monkeypatch, module, name):
    """Wrap module.name to record each call's positional arguments; returns the record."""
    calls, real = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _exits_2_with_one_error_line(capsys, argv, name):
    """`main(argv)` returns 2, prints nothing to stdout and writes one `error:`
    line that contains `name`."""
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    err = err.strip().splitlines()
    assert out == ""
    assert len(err) == 1 and err[0].startswith("error:") and name in err[0]


def _reprogram_argv(config_path, checkpoint, tmp_path):
    return ["reprogram", "--config", str(config_path), "--source-checkpoint", str(checkpoint),
            "--out", str(tmp_path / "r")]


def _eval_argv(config_path, checkpoint, program_file, tmp_path):
    return ["eval", "--config", config_path, "--source-checkpoint", checkpoint,
            "--program", str(program_file), "--out", str(tmp_path / "e")]


class TestMalformedInputs:
    def test_truncated_checkpoint_exit_2(self, tmp_path, config_path, source_checkpoint,
                                         capsys):
        cut = tmp_path / "cut_checkpoint.json"
        cut.write_bytes(Path(source_checkpoint).read_bytes()[:500])
        _exits_2_with_one_error_line(capsys, _reprogram_argv(config_path, cut, tmp_path),
                                     "cut_checkpoint.json")

    @pytest.mark.parametrize("damage", [
        lambda doc: [],
        lambda doc: {key: value for key, value in doc.items() if key != "embeddings"},
        lambda doc: {**doc, "architecture": "lstm"},
        lambda doc: {**doc, "weights": {name: spec for name, spec in doc["weights"].items()
                                        if name != "w1"}},
        lambda doc: {**doc, "weights": {**doc["weights"],
                                        "w1": {"shape": [32, 31], "data": [0.0] * 32 * 31}}},
        lambda doc: {**doc, "embeddings": [float("nan"), *doc["embeddings"][1:]]},
        # reshape would infer a size of -1 from the data
        lambda doc: {**doc, "vocab_size": -1},
        lambda doc: {**doc, "weights": {**doc["weights"],
                                        "b1": {**doc["weights"]["b1"], "shape": [-1]}}},
    ], ids=["not_an_object", "no_embeddings", "unknown_architecture", "no_w1", "w1_shape",
            "nan_embedding", "vocab_size_minus_one", "b1_shape_minus_one"])
    def test_malformed_checkpoint_exit_2(self, tmp_path, config_path, source_checkpoint,
                                         capsys, damage):
        bad = tmp_path / "bad_checkpoint.json"
        bad.write_text(json.dumps(damage(json.loads(Path(source_checkpoint).read_text()))))
        _exits_2_with_one_error_line(capsys, _reprogram_argv(config_path, bad, tmp_path),
                                     "bad_checkpoint.json")

    def test_truncated_program_exit_2(self, tmp_path, config_path, source_checkpoint,
                                      capsys):
        cut = tmp_path / "cut_program.json"
        cut.write_text('{"format_version": 1, "theta": [0.1, ')
        _exits_2_with_one_error_line(
            capsys, _eval_argv(config_path, source_checkpoint, cut, tmp_path), "cut_program.json"
        )

    @pytest.mark.parametrize("damage", ["short_theta", "nan_theta", "overflow_theta",
                                        "nan_basis", "short_tokens", "numeric_class",
                                        "string_label_map", "source_vocab_size_minus_one"])
    def test_malformed_program_exit_2(self, tmp_path, config_path, source_checkpoint,
                                      program_path, capsys, damage):
        doc = json.loads(Path(program_path).read_text())
        if damage == "short_theta":
            doc["theta"].pop()
        elif damage == "short_tokens":
            doc["target_tokens"].pop()
        elif damage == "numeric_class":
            doc["class_names"][0] = 0
        elif damage == "string_label_map":
            doc["label_map"] = "01"
        elif damage == "source_vocab_size_minus_one":
            doc["source_vocab_size"] = -1
        elif damage == "nan_basis":
            checkpoint = json.loads(Path(source_checkpoint).read_text())
            basis = [float("nan"), *checkpoint["embeddings"][1:]]
            doc["source_basis"] = {"shape": [checkpoint["d"], checkpoint["vocab_size"]],
                                   "data": basis}
        else:
            doc["theta"][0] = float("nan") if damage == "nan_theta" else "1e999"
        bad = tmp_path / "bad_program.json"
        # json.dumps writes infinity as Infinity, so the numeral 1e999 goes in as text
        bad.write_text(json.dumps(doc).replace('"1e999"', "1e999"))
        _exits_2_with_one_error_line(
            capsys, _eval_argv(config_path, source_checkpoint, bad, tmp_path), "bad_program.json"
        )

    def test_source_basis_mismatch_exit_2(self, tmp_path, config_path, source_checkpoint,
                                          program_path, capsys):
        checkpoint = json.loads(Path(source_checkpoint).read_text())
        shape = [checkpoint["d"] - 1, checkpoint["vocab_size"]]
        doc = json.loads(Path(program_path).read_text())
        doc["source_basis"] = {"shape": shape, "data": [1.0] * (shape[0] * shape[1])}
        bad = tmp_path / "bad_basis.json"
        bad.write_text(json.dumps(doc))
        _exits_2_with_one_error_line(
            capsys, _eval_argv(config_path, source_checkpoint, bad, tmp_path), "source_basis"
        )

    def test_target_vocabulary_mismatch_exit_2(self, tmp_path, source_checkpoint,
                                               program_path, capsys):
        # without "A" the alphabet has 6 letters, so every token id would shift
        _, target = synth_tasks(TINY["seed"], 10, TINY["data"]["target_size"])
        save_csv(target, tmp_path / "target.csv")
        no_a = tmp_path / "no_a.csv"
        no_a.write_text((tmp_path / "target.csv").read_text().replace("A", "B"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "data": {"mode": "csv", "target_path": str(no_a)}}))
        _exits_2_with_one_error_line(
            capsys, _eval_argv(str(path), source_checkpoint, program_path, tmp_path),
            "target vocabulary"
        )

    @pytest.mark.parametrize("edit, label_map, message", [
        # the same 7-letter alphabet size, so a size check passes; this scored
        # well below the program's own test accuracy and exited 0
        (lambda header, rows: [header] + [row.replace("A", "H") for row in rows], [0, 1],
         "target vocabulary"),
        # the first row's class is numbered 0, so swapping the first two
        # rows, of different classes, swaps the class numbers
        (lambda header, rows: [header, rows[1], rows[0], *rows[2:]], [0, 1], "target classes"),
        # the same data scored through the swapped map, which exited 0 with
        # the two classes' predictions exchanged
        (lambda header, rows: [header, *rows], [1, 0], "label map [0, 1], not [1, 0]"),
        (lambda header, rows: [header, *rows], [0, 1], None),
    ], ids=["A_to_H", "swapped_classes", "label_map", "same_target"])
    def test_program_built_for_another_target_exit_2(self, tmp_path, source_checkpoint,
                                                     program_path, capsys, edit, label_map,
                                                     message):
        _, target = synth_tasks(TINY["seed"], 10, TINY["data"]["target_size"])
        save_csv(target, tmp_path / "target.csv")
        header, *rows = (tmp_path / "target.csv").read_text().splitlines()
        assert rows[0].split(",")[1] != rows[1].split(",")[1]
        edited = tmp_path / "edited.csv"
        edited.write_text("\n".join(edit(header, rows)) + "\n")
        path = tmp_path / "cfg.json"
        cfg = _with(TINY, "reprogram.label_map", label_map)
        path.write_text(json.dumps({**cfg, "data": {"mode": "csv", "target_path": str(edited)}}))
        argv = _eval_argv(str(path), source_checkpoint, program_path, tmp_path)
        if message is None:
            assert main(argv) == 0
        else:
            _exits_2_with_one_error_line(capsys, argv, message)

    @pytest.mark.parametrize("version, missing", [
        # a v1 program records no target, so what it was built for is unknown
        (1, ("target_tokens", "class_names", "label_map")),
        # a v2 program records no label map, so the map it was trained with is unknown
        (2, ("label_map",)),
    ], ids=["v1", "v2"])
    def test_older_program_version_exit_2(self, tmp_path, config_path, source_checkpoint,
                                          program_path, capsys, version, missing):
        doc = json.loads(Path(program_path).read_text())
        for key in missing:
            del doc[key]
        old = tmp_path / f"v{version}_program.json"
        old.write_text(json.dumps({**doc, "format_version": version}))
        _exits_2_with_one_error_line(
            capsys, _eval_argv(config_path, source_checkpoint, old, tmp_path),
            f"unsupported program version {version}")

    def test_max_atoms_beyond_the_dictionary_exit_2(self, tmp_path, source_checkpoint, capsys):
        checkpoint = json.loads(Path(source_checkpoint).read_text())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_with(TINY, "reprogram.ksvd.max_atoms", 500)))
        _exits_2_with_one_error_line(
            capsys, _reprogram_argv(path, source_checkpoint, tmp_path),
            f"max_atoms 500 exceeds the dictionary's {checkpoint['vocab_size']} atoms")

    @pytest.mark.parametrize("label_map, message", [
        (["a", "b"], "non-negative integers"),
        (5, "must be a list"),
    ])
    def test_malformed_label_map_exit_2(self, tmp_path, source_checkpoint, capsys,
                                        label_map, message):
        cfg = json.loads(json.dumps(TINY))
        cfg["reprogram"]["label_map"] = label_map
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        _exits_2_with_one_error_line(capsys, _reprogram_argv(path, source_checkpoint, tmp_path),
                                     message)

    def test_label_map_missing_source_classes_exit_2(self, tmp_path, source_checkpoint,
                                                       program_path, capsys):
        # three entries for a 2-class checkpoint; eval exited 3 from map_output
        cfg = json.loads(json.dumps(TINY))
        cfg["reprogram"]["label_map"] = [0, 1, 0]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for argv in (_reprogram_argv(path, source_checkpoint, tmp_path),
                     _eval_argv(str(path), source_checkpoint, program_path, tmp_path)):
            _exits_2_with_one_error_line(capsys, argv, "label map does not cover")

    def test_target_classes_beyond_label_map_exit_2(self, tmp_path, source_checkpoint,
                                                     program_path, capsys):
        # every third row gets a third class, which the default 2-class label map misses
        _, target = synth_tasks(TINY["seed"], 10, TINY["data"]["target_size"])
        save_csv(target, tmp_path / "target.csv")
        header, *rows = (tmp_path / "target.csv").read_text().splitlines()
        rows = [row.split(",")[0] + ",third" if i % 3 == 2 else row for i, row in enumerate(rows)]
        three = tmp_path / "three_classes.csv"
        three.write_text("\n".join([header, *rows]) + "\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "data": {"mode": "csv", "target_path": str(three)}}))
        common = ["--config", str(path), "--source-checkpoint", source_checkpoint,
                  "--out", str(tmp_path / "o")]
        for argv in (["reprogram", *common], ["eval", *common, "--program", program_path],
                     ["sweep-data", *common, "--grid", "50"],
                     ["sweep-ksvd", *common, "--grid", "1"]):
            _exits_2_with_one_error_line(capsys, argv, "reprogram.label_map")


class TestPathsOfTheWrongKind:
    """A directory where a file belongs, an `--out` that is a file and a CSV
    that is not UTF-8 or has a short row exit 2 with one line naming the path."""

    @pytest.mark.parametrize("flag", ["--config", "--source-checkpoint", "--program"])
    def test_directory_for_an_input_file_exit_2(self, tmp_path, config_path, source_checkpoint,
                                                program_path, capsys, flag):
        folder = tmp_path / "folder"
        folder.mkdir()
        argv = _eval_argv(config_path, source_checkpoint, program_path, tmp_path)
        argv[argv.index(flag) + 1] = str(folder)
        _exits_2_with_one_error_line(capsys, argv, str(folder))

    @pytest.mark.parametrize("key", ["data.source_path", "data.target_path"])
    def test_directory_for_a_dataset_exit_2(self, tmp_path, capsys, key):
        folder = tmp_path / "folder"
        folder.mkdir()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_with(_with(TINY, "data.mode", "csv"), key, str(folder))))
        _exits_2_with_one_error_line(
            capsys, ["train-source", "--config", str(path), "--out", str(tmp_path / "o")],
            str(folder))

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_that_is_or_is_under_a_file_exit_2(self, tmp_path, config_path, capsys, out):
        (tmp_path / "file").write_text("kept")
        _exits_2_with_one_error_line(
            capsys, ["train-source", "--config", config_path, "--out", str(tmp_path / out)],
            str(tmp_path / "file"))
        assert (tmp_path / "file").read_text() == "kept"

    def test_undecodable_csv_exit_2(self, tmp_path, capsys):
        target = tmp_path / "latin1.csv"
        target.write_bytes(b"sequence,label\nAC\xffD,x\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "data": {"mode": "csv", "target_path": str(target)}}))
        _exits_2_with_one_error_line(
            capsys, ["train-source", "--config", str(path), "--out", str(tmp_path / "o")],
            "latin1.csv: not valid UTF-8")

    @pytest.mark.parametrize("command", ["reprogram", "eval", "sweep-data", "sweep-ksvd",
                                         "train-source"])
    def test_csv_source_read_only_by_train_source(self, tmp_path, source_checkpoint,
                                                  program_path, capsys, command):
        # only train-source uses data.source_path; the other commands read the target
        _, target = synth_tasks(TINY["seed"], 10, TINY["data"]["target_size"])
        save_csv(target, tmp_path / "target.csv")
        source = tmp_path / "latin1.csv"
        source.write_bytes(b"sequence,label\nAC\xffD,x\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "data": {"mode": "csv", "source_path": str(source),
                                                     "target_path": str(tmp_path / "target.csv")}}))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
        if command != "train-source":
            argv += ["--source-checkpoint", source_checkpoint]
        argv += {"eval": ["--program", program_path], "sweep-data": ["--grid", "50"],
                 "sweep-ksvd": ["--grid", "1"]}.get(command, [])
        if command == "train-source":
            _exits_2_with_one_error_line(capsys, argv, "latin1.csv: not valid UTF-8")
        else:
            assert main(argv) == 0

    def test_short_csv_row_exit_2(self, tmp_path, capsys):
        target = tmp_path / "short.csv"
        target.write_text("sequence,label\nACD,x\nKK\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "data": {"mode": "csv", "target_path": str(target)}}))
        _exits_2_with_one_error_line(
            capsys, ["train-source", "--config", str(path), "--out", str(tmp_path / "o")],
            "short.csv: line 3 has fewer fields than the header")


@pytest.fixture(scope="module")
def saved_pair(tmp_path_factory):
    """The text of a checkpoint and of a program learned under dictionary
    update, and an eval config over a CSV of the target they were built for."""
    root = tmp_path_factory.mktemp("saved_pair")
    cfg = _with(TINY, "reprogram.ksvd.update_dictionary", True)
    (root / "cfg.json").write_text(json.dumps(cfg))
    assert main(["train-source", "--config", str(root / "cfg.json"), "--out", str(root)]) == 0
    assert main(["reprogram", "--config", str(root / "cfg.json"), "--source-checkpoint",
                 str(root / "source_checkpoint.json"), "--out", str(root)]) == 0
    _, target = synth_tasks(TINY["seed"], 10, TINY["data"]["target_size"])
    save_csv(target, root / "target.csv")
    csv_cfg = {**cfg, "data": {"mode": "csv", "target_path": str(root / "target.csv")}}
    (root / "cfg.json").write_text(json.dumps(csv_cfg))
    return root, {name: (root / f"{name}.json").read_text()
                  for name in ("source_checkpoint", "program")}


def _key_paths(doc, prefix=()):
    """Every key path of a JSON document's objects, down to the leaves."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_DELETE = object()
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(-3, 3)), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


@settings(derandomize=True, deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["source_checkpoint", "program"]), data=st.data())
def test_damaged_saved_file_exits_0_2_or_3(saved_pair, name, data):
    # one key of a saved checkpoint or program deleted or given another
    # JSON value: eval ends with an exit code, never a traceback
    root, texts = saved_pair
    doc = json.loads(texts[name])
    *parents, key = data.draw(st.sampled_from(sorted(_key_paths(doc))))
    value = data.draw(st.one_of(st.just(_DELETE), _JSON_VALUES))
    inner = doc
    for parent in parents:
        inner = inner[parent]
    if value is _DELETE:
        del inner[key]
    else:
        inner[key] = value
    files = {other: root / f"{other}.json" for other in texts}
    files[name] = root / "damaged.json"
    files[name].write_text(json.dumps(doc))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["eval", "--config", str(root / "cfg.json"), "--source-checkpoint",
                     str(files["source_checkpoint"]), "--program", str(files["program"]),
                     "--out", str(root / "eval")])
    assert code in (0, 2, 3)
    assert len(stderr.getvalue().splitlines()) == (code != 0)
