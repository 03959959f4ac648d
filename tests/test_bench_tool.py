"""The judging rules of tools/bench_model_path.py, loaded by path; no perfbench runs."""

import argparse
import copy
import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_model_path.py"
_SPEC = importlib.util.spec_from_file_location("bench_model_path", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


class TestCompare:
    PARENT = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]

    def test_nine_in_ten_wins_and_a_gap_beyond_the_iqr_is_a_gain(self):
        change = [0.8] * 9 + [1.5]
        c = bench.compare(self.PARENT, change, "lower")
        assert c["change_wins"] == 9 and c["pairs"] == 10 and c["gain"]

    def test_eight_wins_are_not_a_gain(self):
        c = bench.compare(self.PARENT, [0.8] * 8 + [1.5] * 2, "lower")
        assert c["change_wins"] == 8 and not c["gain"]

    def test_ties_count_for_neither(self):
        change = [0.8] * 8 + self.PARENT[8:]  # the last two pairs tie
        c = bench.compare(self.PARENT, change, "lower")
        assert c["change_wins"] == 8 and not c["gain"]

    def test_a_gap_within_the_parents_iqr_is_not_a_gain(self):
        change = [p - 0.005 for p in self.PARENT]  # wins every pair by less than the IQR
        c = bench.compare(self.PARENT, change, "lower")
        assert c["change_wins"] == 10 and c["parent_iqr"] > 0.005 and not c["gain"]

    def test_higher_is_better(self):
        assert bench.compare(self.PARENT, [1.2] * 9 + [0.5], "higher")["gain"]
        assert not bench.compare(self.PARENT, [0.8] * 10, "higher")["gain"]
        assert bench.compare(self.PARENT, [0.8] * 10, "higher")["change_wins"] == 0

    def test_pair_ratios_and_medians(self):
        c = bench.compare([2.0, 4.0], [1.0, 4.0], "lower")
        assert c["pair_ratios"] == [0.5, 1.0]
        assert (c["parent_median"], c["change_median"]) == (3.0, 2.5)


def _rows():
    """Three seeds that pass the gate with room on every check."""
    rows = []
    for seed, (accuracy, nnz) in enumerate([(0.88, 9.0), (0.89, 8.5), (0.90, 9.5)], 1):
        side = {"test_accuracy": accuracy, "nnz_per_column": nnz, "failed": 0,
                "valid_accuracy_range": [0.8, 0.9], "source_valid_accuracy": 0.9}
        rows.append({"seed": seed, "parent": dict(side), "change": dict(side),
                     "equal_support_share": 1.0, "max_relative_theta_diff": 0.0})
    return rows


class TestAccuracyGate:
    def test_equal_checkouts_pass(self):
        gate = bench.accuracy_gate("w", _rows())
        assert gate["passed"] and all(gate["checks"].values())
        assert gate["failed_commands"] == {"parent": 0, "change": 0}

    @staticmethod
    def _edited(edit):
        rows = copy.deepcopy(_rows())
        edit(rows)
        return bench.accuracy_gate("w", rows)

    def _fails_only(self, edit, check):
        gate = self._edited(edit)
        assert not gate["passed"]
        assert [name for name, ok in gate["checks"].items() if not ok] == [check]

    def test_a_failed_command_fails(self):
        self._fails_only(lambda rows: rows[2]["change"].update(failed=1), "no_failed_command")

    def test_failed_commands_of_the_parent_alone_pass(self):
        assert self._edited(lambda rows: rows[2]["parent"].update(failed=1))["passed"]

    def test_a_lower_median_fails(self):
        def edit(rows):  # median 0.89 -> 0.884, minimum unchanged
            rows[1]["change"]["test_accuracy"] = 0.884
        self._fails_only(edit, "median_accuracy")

    def test_a_median_drop_within_0_005_passes(self):
        assert self._edited(lambda rows: rows[1]["change"].update(test_accuracy=0.886))["passed"]

    def test_a_lower_minimum_fails(self):
        def edit(rows):  # minimum 0.88 -> 0.869, median unchanged
            rows[0]["change"]["test_accuracy"] = 0.869
        self._fails_only(edit, "min_accuracy")

    def test_more_non_zeros_fails(self):
        def edit(rows):  # median 9.0 -> 9.5 non-zeros per column, 5.6% more
            for row in rows:
                row["change"]["nnz_per_column"] += 0.5
        self._fails_only(edit, "median_nnz_per_column")


class TestThetaAgreement:
    def test_equal_thetas(self):
        theta = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert bench.theta_agreement(theta, theta.copy()) == {
            "equal_support_share": 1.0, "max_relative_theta_diff": 0.0}

    def test_support_share_and_relative_difference(self):
        parent = np.array([[1.0, 0.0, 3.0, 0.0], [0.0, 4.0, 0.0, 1.0]])
        change = np.array([[1.0, 0.5, 3.0, 0.0], [0.0, 4.0, 2.0, 1.0]])
        agreement = bench.theta_agreement(parent, change)
        assert agreement["equal_support_share"] == 0.5  # columns 1 and 2 gained an entry
        assert agreement["max_relative_theta_diff"] == 0.5  # |2 - 0| / 4

    def test_an_all_zero_parent_gives_the_absolute_difference(self):
        agreement = bench.theta_agreement(np.zeros((3, 2)), np.array([[0, 0.25], [0, 0], [0, 0]]))
        assert agreement == {"equal_support_share": 0.5, "max_relative_theta_diff": 0.25}


class TestSeedList:
    @pytest.mark.parametrize("text, seeds", [("1-3", [1, 2, 3]), ("7-7", [7]),
                                             ("0,3,5", [0, 3, 5])])
    def test_ranges_and_lists(self, text, seeds):
        assert bench.seed_list(text) == seeds

    @pytest.mark.parametrize("text", ["14-1", "2-1"])
    def test_a_reversed_range_is_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="names no seed"):
            bench.seed_list(text)

    @pytest.mark.parametrize("text", ["14-1", "", "1-", "a"])
    def test_the_command_line_rejects_what_names_no_seed(self, capsys, text):
        with pytest.raises(SystemExit) as exit_info:
            bench.main(["--parent", ".", "--seeds", text])
        assert exit_info.value.code == 2
        assert "--seeds" in capsys.readouterr().err


class TestSrcLines:
    @staticmethod
    def _tree(root, modules):
        package = root / "src" / "reprogram"
        package.mkdir(parents=True)
        for name, text in modules.items():
            (package / name).write_text(text)
        return root

    def test_newlines_per_module_and_in_total(self, tmp_path):
        tree = self._tree(tmp_path, {"cli.py": "a\nb\n\n", "data.py": "x\ny",  # no last newline
                                     "notes.txt": "1\n2\n"})
        (tree / "src" / "reprogram" / "sub").mkdir()
        (tree / "src" / "reprogram" / "sub" / "deep.py").write_text("z\n")
        assert bench.src_lines(tree) == {"modules": {"cli.py": 3, "data.py": 1}, "total": 4}

    def test_the_net_change_is_printed(self, tmp_path, capsys):
        trees = {"parent": self._tree(tmp_path / "p", {"a.py": "1\n" * 10}),
                 "change": self._tree(tmp_path / "c", {"a.py": "1\n" * 6, "b.py": "1\n"})}
        sources = {name: {"src_lines": bench.src_lines(tree)} for name, tree in trees.items()}
        bench.print_src_lines(sources)
        assert capsys.readouterr().err == (
            "src/reprogram/*.py: parent 10 lines, change 7, net -3\n")
