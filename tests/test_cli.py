import json
import multiprocessing
import os
from pathlib import Path

import pytest

from reprogram import program
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
])
def test_bad_config_value_exit_2(tmp_path, capsys, key, value, flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_with(TINY, key, value)))
    argv = ["train-source", "--config", str(path), *flags, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and key in err


class TestTrainSource:
    def test_report_contents(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["train-source", "--config", config_path, "--out", str(out)]) == 0
        report = json.loads((out / "train_source_report.json").read_text())
        assert "majority_class_accuracy" in report
        assert report["train_accuracy"] > 0.5
        assert os.path.exists(out / "source_checkpoint.json")


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
    """`reprogram` when scoring fails in the validation worker, or the worker dies."""

    @pytest.fixture(autouse=True)
    def worker_on(self, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the validation worker needs the fork start method")
        monkeypatch.setattr(program, "_worker_available", lambda: True)

    @staticmethod
    def exits_3_with_one_line(capsys, argv, message):
        capsys.readouterr()
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"runtime error: {message}"]
        assert captured.out == ""

    def test_scoring_error_exit_3(self, tmp_path, config_path, source_checkpoint, capsys,
                                  monkeypatch):
        def predict(*args):
            raise NumericError("logits are not finite")

        monkeypatch.setattr(program, "predict", predict)
        self.exits_3_with_one_line(capsys, _reprogram_argv(config_path, source_checkpoint,
                                                           tmp_path), "logits are not finite")

    def test_worker_that_dies_exit_3(self, tmp_path, config_path, source_checkpoint, capsys,
                                     monkeypatch):
        caller, real = os.getpid(), program.predict

        def predict(*args):
            if os.getpid() != caller:
                os._exit(1)
            return real(*args)

        monkeypatch.setattr(program, "predict", predict)
        self.exits_3_with_one_line(capsys, _reprogram_argv(config_path, source_checkpoint,
                                                           tmp_path),
                                   "validation worker exited with code 1")


def count_calls(monkeypatch, module, name):
    """Wrap module.name to record each call's positional arguments; returns the record."""
    calls, real = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _exits_2_with_one_error_line(capsys, argv, name):
    """`main(argv)` returns 2 and writes one `error:` line that contains `name`."""
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
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
    ], ids=["not_an_object", "no_embeddings", "unknown_architecture", "no_w1", "w1_shape",
            "nan_embedding"])
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

    def test_malformed_program_exit_2(self, tmp_path, config_path, source_checkpoint,
                                      program_path, capsys):
        doc = json.loads(Path(program_path).read_text())
        doc["theta"].pop()
        bad = tmp_path / "bad_program.json"
        bad.write_text(json.dumps(doc))
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
