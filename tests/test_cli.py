import json
import os
from pathlib import Path

import pytest

from reprogram.cli import load_config, main
from reprogram.errors import ConfigError

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

    def test_list_valued_label_map_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"reprogram": {"label_map": [1, 0]}}))
        assert load_config(str(path))["reprogram"]["label_map"] == [1, 0]

    def test_defaults_filled(self, config_path):
        cfg = load_config(config_path)
        assert cfg["reprogram"]["ksvd"]["epsilon"] == 0.045
        assert cfg["split"]["train"] == 0.8


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
        self, tmp_path, config_path, source_checkpoint, capsys
    ):
        capsys.readouterr()
        code = main(["sweep-ksvd", "--config", config_path,
                     "--source-checkpoint", source_checkpoint,
                     "--grid", "1,2", "--out", str(tmp_path / "sk")])
        assert code == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "cannot differ" in err[0]
        rows = (tmp_path / "sk" / "sweep_ksvd.csv").read_text().strip().splitlines()[1:]
        assert rows[0].split(",")[1:] == rows[1].split(",")[1:]

    def test_descending_grid_rejected(self, tmp_path, config_path, source_checkpoint):
        code = main(["sweep-ksvd", "--config", config_path,
                     "--source-checkpoint", source_checkpoint,
                     "--grid", "3,1", "--out", str(tmp_path / "sk")])
        assert code == 2


def _single_error_line(capsys, name):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and name in err[0]


class TestMalformedInputs:
    def test_truncated_checkpoint_exit_2(self, tmp_path, config_path, source_checkpoint,
                                         capsys):
        cut = tmp_path / "cut_checkpoint.json"
        cut.write_bytes(Path(source_checkpoint).read_bytes()[:500])
        capsys.readouterr()
        code = main(["reprogram", "--config", config_path, "--source-checkpoint",
                     str(cut), "--out", str(tmp_path / "r")])
        assert code == 2
        _single_error_line(capsys, "cut_checkpoint.json")

    def test_truncated_program_exit_2(self, tmp_path, config_path, source_checkpoint,
                                      capsys):
        cut = tmp_path / "cut_program.json"
        cut.write_text('{"format_version": 1, "theta": [0.1, ')
        capsys.readouterr()
        code = main(["eval", "--config", config_path, "--source-checkpoint",
                     source_checkpoint, "--program", str(cut), "--out", str(tmp_path / "e")])
        assert code == 2
        _single_error_line(capsys, "cut_program.json")

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
        capsys.readouterr()
        code = main(["reprogram", "--config", str(path), "--source-checkpoint",
                     source_checkpoint, "--out", str(tmp_path / "r")])
        assert code == 2
        _single_error_line(capsys, message)
