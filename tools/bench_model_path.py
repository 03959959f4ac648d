"""Before/after benchmark of the model path, written as one BENCH_*.json file.

    python3 tools/bench_model_path.py --parent ../parent-checkout --out BENCH_model_path.json

`--parent` and `--change` (default: this checkout) are checkout roots, each
holding `src/` and `perfbench/`. The script runs, in subprocesses:

- `perfbench/run.py --trace 0` on both workloads for each of `--seeds`,
  alternating which checkout goes first from seed to seed, and reports each
  metric's median per checkout and the change/parent ratio of each pair;
- micro-timings of the model path and the stage split below, under each
  checkout's `src/`, in MICRO_ROUNDS rounds that alternate which checkout
  goes first (parent then change, then change then parent), each figure the
  median across rounds. The micro-timings are `gradient` on a 64-row
  reprogramming batch (V = 7 target tokens) and on a 32-row source batch
  with weight gradients (V = 200), `predict` on the target test split, and
  `train_source` at each workload's settings; medians of repeats, BLAS on
  one thread;
- a stage split of `reprogram` commands under each checkout's `src/`, on the
  seed-1 inputs of both workloads that perfbench's `set_up` writes (once, in
  the first checkout's run): medians over 8 commands of the command's wall
  time and of the time spent in `program.ksvd_run`, `program.loss_and_grad`,
  `program.evaluate` (the loop's validations and the test split's score),
  `data.load_csv` and `classifier.load_checkpoint`, each wrapped from outside
  the package, and of the rest;
- with `--accuracy-seeds`, one `perfbench/run.py --seconds 0` per seed and
  checkout, for the test accuracy of the program and the source checkpoint's
  valid accuracy.

perfbench writes its artifacts to each checkout's `perfbench/work/`.
"""

import argparse
import contextlib
import gc
import importlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bag_fixed_dict", "birnn_fixed_dict")
ARCHITECTURES = {"bag_mlp": (1.0, 20), "birnn": (0.3, 10)}  # source lr, epochs per workload
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
STAGES = ("program.ksvd_run", "program.loss_and_grad", "program.evaluate", "data.load_csv",
          "classifier.load_checkpoint")
STAGE_COMMANDS = 8  # reprogram commands per workload in the stage split
MICRO_ROUNDS = 2  # --micro subprocesses per checkout, alternating which goes first


def seed_list(text):
    """'1-6' or '0,3,5' -> a list of ints."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


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


def metrics_of(document) -> dict:
    return {name: m["value"] for name, m in document["result"]["metrics"].items()}


def end_to_end(trees, seeds, seconds) -> dict:
    runs = {name: {w: [] for w in WORKLOADS} for name in trees}
    environment, sources = None, {}
    for w in WORKLOADS:
        for i, seed in enumerate(seeds):
            order = list(trees) if i % 2 == 0 else list(reversed(trees))
            for name in order:
                document = perfbench(trees[name], w, seed, seconds)
                environment = environment or document["environment"]
                sources[name] = {key: document["environment"][key]
                                 for key in ("git_commit", "source_sha256")}
                runs[name][w].append(dict(metrics_of(document), seed=seed,
                                          failed=document["result"]["failed"],
                                          attempted=document["result"]["attempted"]))
                print(f"{w} seed {seed} {name}: run_s {runs[name][w][-1]['run_s']:.3f} "
                      f"setup_s {runs[name][w][-1]['setup_s']:.3f}", file=sys.stderr)
    summary = {}
    for w in WORKLOADS:
        parent, change = runs["parent"][w], runs["change"][w]
        per_metric = {}
        for metric in parent[0]:
            if metric in ("seed", "failed", "attempted"):
                continue
            before = [run[metric] for run in parent]
            after = [run[metric] for run in change]
            per_metric[metric] = {
                "parent_median": statistics.median(before),
                "change_median": statistics.median(after),
                "parent_quartiles": statistics.quantiles(before, n=4) if len(before) > 1 else None,
                "pair_ratios": [a / b if b else None for a, b in zip(after, before)],
            }
        summary[w] = {"metrics": per_metric, "runs": {"parent": parent, "change": change}}
    return {"environment": environment, "sources": sources, "workloads": summary}


def per_seed_accuracy(trees, seeds) -> dict:
    table = {}
    for w in WORKLOADS:
        rows = []
        for seed in seeds:
            row = {"seed": seed}
            for name, tree in trees.items():
                document = perfbench(tree, w, seed, 0)
                row[name] = {"test_accuracy": metrics_of(document)["test_accuracy"],
                             "source_valid_accuracy": document["source_valid_accuracy"]}
            rows.append(row)
            print(f"{w} seed {seed}: {row}", file=sys.stderr)
        table[w] = rows
    return table


def micro(tree: Path, repeats: int, scratch: Path) -> dict:
    """Micro-timings under tree/src, from this script's --micro mode in a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **ONE_THREAD)
    done = subprocess.run([sys.executable, __file__, "--micro", "--repeats", str(repeats),
                           "--scratch", str(scratch)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def micro_rounds(trees, repeats: int, scratch: Path) -> dict:
    """`micro` of each checkout per round, the order alternating from round to
    round; each figure is its median across the rounds."""
    runs = {name: [] for name in trees}
    for r in range(MICRO_ROUNDS):
        for name in list(trees) if r % 2 == 0 else list(reversed(trees)):
            runs[name].append(micro(trees[name], repeats, scratch))
            print(f"micro round {r + 1} {name} done", file=sys.stderr)
    return {name: median_across(documents) for name, documents in runs.items()}


def median_across(documents):
    """The leaf-wise median of documents of one structure; a leaf that is not
    a number (the numpy version) is taken from the first."""
    first = documents[0]
    if isinstance(first, dict):
        return {key: median_across([doc[key] for doc in documents]) for key in first}
    if isinstance(first, (int, float)) and not isinstance(first, bool):
        return statistics.median(documents)
    return first


def median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def stage_split(inputs: Path) -> dict:
    """Median milliseconds per `reprogram` command and per stage, for each workload."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench
    from reprogram import cli

    totals = dict.fromkeys(STAGES, 0.0)

    def timed(stage, real):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                totals[stage] += time.perf_counter() - start
        return wrapper

    reals = []
    for stage in STAGES:
        module, name = stage.split(".")
        module = importlib.import_module(f"reprogram.{module}")
        reals.append((module, name, getattr(module, name)))
        setattr(module, name, timed(stage, getattr(module, name)))
    split = {}
    try:
        for w in WORKLOADS:
            dest = inputs / w
            if not (dest / "config.json").exists():  # set_up writes the config last
                perfbench.set_up(perfbench.WORKLOADS[w], perfbench.ACCEPTANCE, 1, dest)
            argv = ["reprogram", "--config", str(dest / "config.json"), "--source-checkpoint",
                    str(dest / "source_checkpoint.json"), "--out", str(dest / "out")]
            rows = []
            for _ in range(STAGE_COMMANDS):
                totals.update(dict.fromkeys(STAGES, 0.0))
                gc.collect()
                with contextlib.redirect_stdout(sys.stderr):
                    start = time.perf_counter()
                    code = cli.main(argv)
                    wall = time.perf_counter() - start
                if code != 0:
                    raise RuntimeError(f"reprogram exited {code} on {w}")
                rows.append(dict(totals, command=wall, rest=wall - sum(totals.values())))
            split[w] = {key: 1e3 * statistics.median(row[key] for row in rows)
                        for key in ("command", *STAGES, "rest")}
            split[w]["commands"] = len(rows)
    finally:
        for module, name, real in reals:
            setattr(module, name, real)
    return split


def run_micro(repeats: int, scratch: Path) -> dict:
    """Timings of the imported `reprogram` package on seed-1 synthetic data."""
    import numpy as np
    from reprogram import classifier, data

    source, target = data.synth_tasks(1, 2000, 6500)
    s_train, s_valid, _ = data.split(source, data.SplitSpec(0.8, 0.1, 0.1, seed=1))
    t_train, _, t_test = data.split(target, data.SplitSpec(0.78, 0.06, 0.16, seed=1))
    stages = stage_split(scratch / "perfbench_inputs")
    rng = np.random.default_rng(1)
    theta = rng.uniform(-0.01, 0.01, size=(len(source.vocab), len(target.vocab)))
    timings = {}
    for architecture, (lr, epochs) in ARCHITECTURES.items():
        weights = classifier._init_weights(architecture, 32, 32, 2, rng)
        params = classifier.ClassifierParams(architecture, weights, 2)
        table = rng.uniform(-0.1, 0.1, size=(32, len(source.vocab)))
        embedding = table @ theta
        loss_grad = classifier._cross_entropy_grad
        reprogram_batch = t_train.take(rng.choice(len(t_train), 64, replace=False))
        source_batch = s_train.take(rng.choice(len(s_train), 32, replace=False))

        def reprogram_step():
            classifier.gradient(params, embedding, reprogram_batch.ids, reprogram_batch.lengths,
                                reprogram_batch.labels, loss_grad)

        def source_step():
            classifier.gradient(params, table, source_batch.ids, source_batch.lengths,
                                source_batch.labels, loss_grad, weight_grads=True)

        def score_test():
            classifier.predict(params, embedding, t_test.ids, t_test.lengths)

        config = classifier.TrainConfig(architecture=architecture, epochs=epochs,
                                        learning_rate=lr)
        timings[architecture] = {
            "gradient_reprogram_batch64_ms": median_ms(reprogram_step, 50 * repeats),
            "gradient_source_batch32_weights_ms": median_ms(source_step, 50 * repeats),
            "predict_target_test_ms": median_ms(score_test, 5 * repeats),
            "train_source_ms": median_ms(
                lambda: classifier.train_source(s_train, config, 1, valid=s_valid), repeats),
        }
    return {"numpy": np.__version__, "timings": timings, "stage_split_ms": stages,
            "sizes": {"target_test_rows": len(t_test), "source_train_rows": len(s_train)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-6"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--accuracy-seeds", type=seed_list)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_model_path.json")
    parser.add_argument("--micro", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.micro:
        if args.scratch is None:
            parser.error("--micro needs --scratch")
        print(json.dumps(run_micro(args.repeats, args.scratch)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as scratch:
        doc = {
            "seeds": args.seeds,
            "seconds_per_run": args.seconds,
            "micro_rounds": MICRO_ROUNDS,
            "micro_ms": micro_rounds(trees, args.repeats, Path(scratch)),
        }
    doc.update(end_to_end(trees, args.seeds, args.seconds))
    doc["cores"] = {"nproc": os.cpu_count(), "usable": len(os.sched_getaffinity(0))}
    if args.accuracy_seeds:
        doc["per_seed_accuracy"] = per_seed_accuracy(trees, args.accuracy_seeds)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
