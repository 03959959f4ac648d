"""Before/after benchmark of the model path, written as one BENCH_*.json file.

    python3 tools/bench_model_path.py --parent ../parent-checkout --out BENCH_model_path.json

`--parent` and `--change` (default: this checkout) are checkout roots, each
holding `src/` and `perfbench/`. The script runs, in subprocesses:

- a stage split of `reprogram` commands on the seed-1 inputs of both
  workloads that perfbench's `set_up` writes first: one subprocess imports both
  checkouts' packages side by side and runs STAGE_PAIRS pairs of commands
  per workload, alternating which checkout goes first, so that a change of
  load hits both alike. It reports, per checkout, medians of the command's
  wall time and of the self time (its time less that of the stages it
  calls) of `program.reprogram_train` (the loop's own bookkeeping),
  `program.ksvd_run`, `program.loss_and_grad`, `program.evaluate` (the
  loop's validations and the test split's score), `data.load_csv`,
  `classifier.load_checkpoint` and `program.save_program`, each wrapped from
  outside the package, and of the rest; `step_us` is `loss_and_grad` plus
  the loop's bookkeeping per outer iteration, and `step_ratio` the
  change/parent ratio of each pair's;
- one `perfbench/run.py --trace 0` per workload, seed of `--seeds` and
  checkout, alternating which checkout goes first from seed to seed. It
  reports each metric's median per checkout, the parent's quartiles, the
  change/parent ratio of each pair and the pairs the change wins, and prints,
  per workload and metric, the verdict of the rule for a claimed gain: the
  change wins at least 9 in 10 pairs (ties count for neither), and the
  medians differ by more than the parent's interquartile range. Beside each
  checkout's HEAD commit and source digest it records whether its `src/`
  differs from that HEAD, as a change not yet committed does, and the
  `wc -l` line count of its `src/reprogram/*.py`, per module and in total
  (`src_lines`), printing the net change;
- from the same runs, the accuracy gate. The first timed command of each run
  writes `program.json`, `summary.json` and `trace.csv` under
  `perfbench/work/<workload>-seed<seed>-trace0/command0/`. From them the
  script reports per seed and checkout the test accuracy of the returned
  program, the range of the scored validation accuracies and the non-zeros
  per θ column, beside the source checkpoint's valid accuracy and
  perfbench's count of failed commands; and per seed the share of θ columns
  whose support is equal in both checkouts and the largest
  |θ change − θ parent| relative to the parent's largest |θ|. It applies
  `accuracy_gate` per workload and exits 1 if a workload fails it. The test
  accuracy of the last iterate is not reported: the outputs do not hold it;
- perfbench's `set_up` alone, timed in one subprocess per call for each of
  `--seeds`, alternating which checkout goes first, and reported and judged
  as the end-to-end metrics are (`setup_alone_s`).

perfbench writes its artifacts to each checkout's `perfbench/work/`.
"""

import argparse
import contextlib
import csv
import gc
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bag_fixed_dict", "birnn_fixed_dict")
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
STAGES = ("program.reprogram_train", "program.ksvd_run", "program.loss_and_grad",
          "program.evaluate", "data.load_csv", "classifier.load_checkpoint",
          "program.save_program")
STAGE_PAIRS = 12  # alternated pairs of reprogram commands per workload in the stage split


def seed_list(text):
    """'1-6' or '0,3,5' -> a list of ints; a range that names no seed is an
    argparse error, since every comparison needs at least one pair."""
    if "-" in text:
        low, high = text.split("-")
        seeds = list(range(int(low), int(high) + 1))
    else:
        seeds = [int(part) for part in text.split(",")]
    if not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} names no seed")
    return seeds


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its result document (result.json) with the last stdout line."""
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = tree / "perfbench" / "work" / f"{workload}-seed{seed}-trace0" / "result.json"
    document = json.loads(path.read_text())
    document["result"] = result
    return document


def directions() -> dict:
    """'lower' or 'higher' per end-to-end metric, as BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return {metric["name"]: metric["better"] for metric in declared}


def compare(before, after, better) -> dict:
    """Medians, the parent's quartiles, pair ratios and wins of paired runs,
    and whether the change's gain passes the rule: it wins at least 9 in 10
    pairs, ties counting for neither, and the medians differ by more than the
    parent's interquartile range."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(after, before))
    quartiles = statistics.quantiles(before, n=4) if len(before) > 1 else [before[0]] * 3
    iqr = quartiles[2] - quartiles[0]
    gap = sign * (statistics.median(before) - statistics.median(after))
    return {
        "parent_median": statistics.median(before),
        "change_median": statistics.median(after),
        "parent_quartiles": quartiles,
        "parent_iqr": iqr,
        "pair_ratios": [a / b if b else None for a, b in zip(after, before)],
        "better": better,
        "change_wins": wins,
        "pairs": len(before),
        "gain": wins >= 0.9 * len(before) and gap > iqr,
    }


def print_verdicts(summary) -> None:
    for w, entry in summary.items():
        for metric, c in entry["metrics"].items():
            print(f"{w} {metric}: parent {c['parent_median']:.6g} change {c['change_median']:.6g} "
                  f"({c['better']} is better); change wins {c['change_wins']}/{c['pairs']} pairs; "
                  f"parent IQR {c['parent_iqr']:.3g}; gain {'MET' if c['gain'] else 'not met'}",
                  file=sys.stderr)


def metrics_of(document) -> dict:
    return {name: m["value"] for name, m in document["result"]["metrics"].items()}


def src_differs_from_head(tree: Path):
    """Whether tree's `src/` holds edits or untracked files against that
    checkout's HEAD, which perfbench's `git_commit` names either way; None
    where git cannot say."""
    done = subprocess.run(["git", "-C", str(tree), "status", "--porcelain", "--", "src"],
                          capture_output=True, text=True)
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def src_lines(tree: Path) -> dict:
    """The `wc -l` line count of each module of tree's `src/reprogram/*.py`, and the total."""
    modules = {path.name: path.read_bytes().count(b"\n")
               for path in sorted((tree / "src" / "reprogram").glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def print_src_lines(sources) -> None:
    parent, change = (sources[name]["src_lines"]["total"] for name in ("parent", "change"))
    print(f"src/reprogram/*.py: parent {parent} lines, change {change}, "
          f"net {change - parent:+d}", file=sys.stderr)


def end_to_end(trees, seeds, seconds) -> dict:
    runs = {name: {w: [] for w in WORKLOADS} for name in trees}
    environment, sources, summary, better = None, {}, {}, directions()
    for w in WORKLOADS:
        rows = []
        for i, seed in enumerate(seeds):
            row, thetas = {"seed": seed}, {}
            for name in list(trees) if i % 2 == 0 else list(reversed(trees)):
                document = perfbench(trees[name], w, seed, seconds)
                environment = environment or document["environment"]
                sources[name] = {key: document["environment"][key]
                                 for key in ("git_commit", "source_sha256")}
                failed = document["result"]["failed"]
                runs[name][w].append(dict(metrics_of(document), seed=seed, failed=failed,
                                          attempted=document["result"]["attempted"]))
                print(f"{w} seed {seed} {name}: run_s {runs[name][w][-1]['run_s']:.3f} "
                      f"setup_s {runs[name][w][-1]['setup_s']:.3f}", file=sys.stderr)
                row[name], thetas[name] = read_command0(trees[name], w, seed)
                row[name].update(source_valid_accuracy=document["source_valid_accuracy"],
                                 failed=failed)
            row.update(theta_agreement(thetas["parent"], thetas["change"]))
            rows.append(row)
        parent, change = runs["parent"][w], runs["change"][w]
        per_metric = {metric: compare([run[metric] for run in parent],
                                      [run[metric] for run in change], better[metric])
                      for metric in better}
        summary[w] = {"metrics": per_metric, "runs": {"parent": parent, "change": change},
                      "seeds": rows, "gate": accuracy_gate(w, rows)}
    for name, tree in trees.items():
        sources[name].update(src_differs_from_head=src_differs_from_head(tree),
                             src_lines=src_lines(tree))
    print_src_lines(sources)
    print_verdicts(summary)
    return {"environment": environment, "sources": sources, "workloads": summary}


def read_command0(tree: Path, w: str, seed: int):
    """What the first timed `reprogram` command of `tree`'s last perfbench run
    of (w, seed) wrote: its test accuracy, the range of its scored validation
    accuracies and its non-zeros per θ column; and θ (source x target tokens)."""
    out = tree / "perfbench" / "work" / f"{w}-seed{seed}-trace0" / "command0"
    doc = json.loads((out / "program.json").read_text())
    theta = np.array(doc["theta"]).reshape(doc["source_vocab_size"], doc["target_vocab_size"])
    with open(out / "trace.csv", newline="") as fh:
        valid = [float(row["valid_accuracy"]) for row in csv.DictReader(fh)
                 if row["valid_accuracy"]]
    return {"test_accuracy": json.loads((out / "summary.json").read_text())["test_accuracy"],
            "valid_accuracy_range": [min(valid), max(valid)],
            "nnz_per_column": int(np.count_nonzero(theta)) / theta.shape[1]}, theta


def theta_agreement(parent, change) -> dict:
    """The share of θ columns whose support is equal in both checkouts, and the
    largest |change − parent| relative to the parent's largest |θ| (absolute
    where the parent's θ is all zero)."""
    equal = ((parent != 0) == (change != 0)).all(axis=0)
    scale = np.abs(parent).max() or 1.0
    return {"equal_support_share": float(equal.mean()),
            "max_relative_theta_diff": float(np.abs(change - parent).max() / scale)}


SET_UP = """
import json, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run
start = time.perf_counter()
run.set_up(run.WORKLOADS[sys.argv[2]], run.ACCEPTANCE, int(sys.argv[3]), Path(sys.argv[4]))
print(json.dumps(time.perf_counter() - start))
"""


def set_up(tree: Path, workload: str, seed: int, dest: Path) -> float:
    """Seconds that perfbench's `set_up` takes alone, in a subprocess under
    tree/src, writing the workload's inputs for `seed` to dest."""
    done = subprocess.run(
        [sys.executable, "-c", SET_UP, str(tree / "perfbench"), workload, str(seed), str(dest)],
        env=dict(os.environ, PYTHONPATH=str(tree / "src")), cwd=tree,
        capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def setup_pairs(trees, seeds) -> dict:
    """perfbench's `set_up` alone, one subprocess per call, alternating which
    checkout goes first; compared as the end-to-end metrics are."""
    summary = {}
    for w in WORKLOADS:
        times = {name: [] for name in trees}
        for i, seed in enumerate(seeds):
            for name in list(trees) if i % 2 == 0 else list(reversed(trees)):
                with tempfile.TemporaryDirectory() as dest:
                    times[name].append(set_up(trees[name], w, seed, Path(dest)))
                print(f"{w} seed {seed} {name}: set_up {times[name][-1]:.3f} s", file=sys.stderr)
        summary[w] = {"metrics": {"setup_alone_s": compare(times["parent"], times["change"],
                                                           "lower")},
                      "runs": times}
    print_verdicts(summary)
    return summary


def accuracy_gate(w: str, rows) -> dict:
    """The accuracy gate over one workload's seeds: no failed command in the
    change's perfbench runs (perfbench checks every command's outputs, and on
    `bag_fixed_dict` holds test accuracy to 0.85); the change's median test
    accuracy at least the parent's minus 0.005 and its minimum at least the
    parent's minus 0.01; its median non-zeros per column within 5% above the
    parent's, or lower."""
    def values(name, key):
        return [row[name][key] for row in rows]

    accuracy = {name: values(name, "test_accuracy") for name in ("parent", "change")}
    nnz = {name: statistics.median(values(name, "nnz_per_column")) for name in accuracy}
    failed = {name: sum(values(name, "failed")) for name in accuracy}
    checks = {
        "no_failed_command": failed["change"] == 0,
        "median_accuracy": (statistics.median(accuracy["change"])
                            >= statistics.median(accuracy["parent"]) - 0.005),
        "min_accuracy": min(accuracy["change"]) >= min(accuracy["parent"]) - 0.01,
        "median_nnz_per_column": nnz["change"] <= 1.05 * nnz["parent"],
    }
    gate = {
        "failed_commands": failed,
        "median_test_accuracy": {name: statistics.median(a) for name, a in accuracy.items()},
        "min_test_accuracy": {name: min(a) for name, a in accuracy.items()},
        "median_nnz_per_column": nnz,
        "equal_support_share": statistics.mean(row["equal_support_share"] for row in rows),
        "max_relative_theta_diff": max(row["max_relative_theta_diff"] for row in rows),
        "checks": checks,
        "passed": all(checks.values()),
    }
    failing = [name for name, ok in checks.items() if not ok]
    print(f"{w} accuracy gate: {'PASSED' if gate['passed'] else 'FAILED ' + ', '.join(failing)}; "
          f"median {gate['median_test_accuracy']}, min {gate['min_test_accuracy']}, "
          f"nnz/column {nnz}, equal supports {gate['equal_support_share']:.1%}, "
          f"largest relative θ difference {gate['max_relative_theta_diff']:.3g}", file=sys.stderr)
    return gate


def load_package(src: Path) -> dict:
    """The modules of the `reprogram` package under src, imported apart from
    any other copy: none of them stays in `sys.modules`."""
    sys.path.insert(0, str(src))
    try:
        importlib.import_module("reprogram.cli")
    finally:
        sys.path.remove(str(src))
    modules = {name: module for name, module in sys.modules.items()
               if name.partition(".")[0] == "reprogram"}
    for name in modules:
        del sys.modules[name]
    return modules


def stage_split(sources, inputs: Path) -> dict:
    """Per workload and checkout, median milliseconds per `reprogram` command
    and per stage (self time), over commands of the two checkouts' packages
    alternated in this one process; and the change/parent ratio of each
    pair's `step_us`."""
    packages = {name: load_package(src) for name, src in sources.items()}
    totals = dict.fromkeys(STAGES, 0.0)  # self seconds per stage
    inside = []  # per open stage call, the seconds of the stage calls it made

    def timed(stage, real):
        def wrapper(*args, **kwargs):
            inside.append(0.0)
            start = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals[stage] += elapsed - inside.pop()
                if inside:
                    inside[-1] += elapsed
        return wrapper

    for modules in packages.values():
        for stage in STAGES:
            module, name = stage.split(".")
            module = modules[f"reprogram.{module}"]
            setattr(module, name, timed(stage, getattr(module, name)))
    split = {}
    for w in WORKLOADS:
        dest = inputs / w
        iterations = json.loads((dest / "config.json").read_text())["reprogram"]["outer_iterations"]
        argv = ["reprogram", "--config", str(dest / "config.json"), "--source-checkpoint",
                str(dest / "source_checkpoint.json"), "--out", str(dest / "out")]
        rows = {name: [] for name in packages}
        for r in range(STAGE_PAIRS + 1):  # the first pair warms up and is not kept
            for name in list(packages) if r % 2 == 0 else list(reversed(packages)):
                totals.update(dict.fromkeys(STAGES, 0.0))
                gc.collect()
                with contextlib.redirect_stdout(io.StringIO()):
                    start = time.perf_counter()
                    code = packages[name]["reprogram.cli"].main(argv)
                    wall = time.perf_counter() - start
                if code != 0:
                    raise RuntimeError(f"reprogram exited {code} on {w}")
                step = (totals["program.loss_and_grad"] + totals["program.reprogram_train"])
                if r:
                    rows[name].append(dict(totals, command=wall,
                                           rest=wall - sum(totals.values()),
                                           step_us=1e6 * step / iterations))
        split[w] = {name: {key: statistics.median(row[key] for row in runs)
                           * (1 if key == "step_us" else 1e3) for key in runs[0]}
                    for name, runs in rows.items()}
        ratios = [c["step_us"] / p["step_us"] for p, c in zip(rows["parent"], rows["change"])]
        split[w]["step_ratio"] = {"median": statistics.median(ratios),
                                  "quartiles": statistics.quantiles(ratios, n=4),
                                  "change_wins": sum(ratio < 1 for ratio in ratios),
                                  "pairs": len(ratios)}
        print(f"{w} step_us: parent {split[w]['parent']['step_us']:.1f} change "
              f"{split[w]['change']['step_us']:.1f}; pair ratio median "
              f"{split[w]['step_ratio']['median']:.3f}, change wins "
              f"{split[w]['step_ratio']['change_wins']}/{len(ratios)}", file=sys.stderr)
    return split


def stage_pairs(trees, scratch: Path) -> dict:
    """`stage_split` of both checkouts, from this script's --stages mode in a
    subprocess, over seed-1 inputs that the change's `set_up` writes in one
    subprocess per workload first: run in the stage split's own process,
    source training left the heap in a state that slowed the change's
    `birnn` steps there by 12-16%, and the parent's not."""
    for w in WORKLOADS:
        set_up(trees["change"], w, 1, scratch / w)
    done = subprocess.run([sys.executable, __file__, "--stages", "--scratch", str(scratch),
                           "--parent", str(trees["parent"]), "--change", str(trees["change"])],
                          env=dict(os.environ, **ONE_THREAD), capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    done.check_returncode()
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-14"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_model_path.json")
    parser.add_argument("--stages", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.parent is None:
        parser.error("--parent is required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.stages:
        if args.scratch is None:
            parser.error("--stages needs --scratch")
        sources = {name: tree / "src" for name, tree in trees.items()}
        print(json.dumps(stage_split(sources, args.scratch)))
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        doc = {"seeds": args.seeds, "seconds_per_run": args.seconds,
               "stage_split_ms": stage_pairs(trees, Path(scratch))}
    doc.update(end_to_end(trees, args.seeds, args.seconds))
    doc["setup_alone"] = setup_pairs(trees, args.seeds)
    doc["cores"] = {"nproc": os.cpu_count(), "usable": len(os.sched_getaffinity(0))}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if all(entry["gate"]["passed"] for entry in doc["workloads"].values()) else 1

if __name__ == "__main__":
    sys.exit(main())
