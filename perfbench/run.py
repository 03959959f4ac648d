"""Closed-loop benchmark of the `reprogram` command at acceptance scale.

    python3 perfbench/run.py --workload bag_fixed_dict --seed 1 --seconds 30 --trace 0

One client issues one `reprogram` command after another, in this process,
through `reprogram.cli.main`. From the workload seed the benchmark first sets
up the command's inputs, exactly as a user would: the synthetic target task
written as CSV with `data.save_csv`, a JSON config, and a source checkpoint
trained with `classifier.train_source` and written with `save_checkpoint`.
The program sees only those files. Sizes are the acceptance scale: 6500
target rows split 0.78/0.06/0.16 (5070/390/1040), 200 source tokens, d=32,
7 target tokens, 200 outer iterations, batch 64.

With ``--trace 0`` set-up runs ``setup_repeats`` times and commands run until
``--seconds`` would be exceeded (at least one); the end-to-end metrics are
medians. With ``--trace 1`` the public functions of each module are wrapped
from outside (see tracer.py): set-up runs once traced, then one untraced and
one traced command give the per-layer metrics and the tracing overhead.

Every command's outputs are checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Run artifacts
(result.json with the environment manifest, trace.json, spans.npz) go to
perfbench/work/<workload>-seed<n>-trace<t>/.
"""

import os

# BLAS is pinned to one thread in this process only, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
PACKAGE = "reprogram"

SOURCE_SPLIT = (0.8, 0.1, 0.1)
TARGET_SPLIT = (0.78, 0.06, 0.16)
THETA_SHAPE = (200, 7)  # source tokens x target tokens


@dataclass(frozen=True)
class Sizes:
    source_rows: int = 2000
    target_rows: int = 6500
    outer_iterations: int = 200
    batch_size: int = 64


ACCEPTANCE = Sizes()


@dataclass(frozen=True)
class Workload:
    name: str
    architecture: str
    source_learning_rate: float
    source_epochs: int
    update_dictionary: bool
    sweeps: int
    chosen_layers: tuple  # the layers whose share of reprogram_train it exposes
    min_test_accuracy: float | None = None  # besides beating the majority class
    setup_repeats: int = 3  # set-ups per untraced run; setup_s is their median


WORKLOADS = {
    w.name: w
    for w in (
        # The CLI's default traffic and criterion 4's shape: with a fixed
        # dictionary every sweep repeats the same OMP coding. For Batch-OMP,
        # code-once and batched bag_mlp evaluation.
        Workload(
            name="bag_fixed_dict",
            architecture="bag_mlp",
            source_learning_rate=1.0,
            source_epochs=20,
            update_dictionary=False,
            sweeps=5,
            chosen_layers=("sparse_coding.omp_encode",),
            min_test_accuracy=0.85,
        ),
        # A recurrent source model: per-sample forward/backward dominates and
        # its train_source makes set-up cost visible. For the padded-batch
        # recurrence.
        Workload(
            name="birnn_fixed_dict",
            architecture="birnn",
            source_learning_rate=0.3,
            source_epochs=10,
            update_dictionary=False,
            sweeps=1,
            chosen_layers=(
                "classifier.forward_embedded",
                "classifier.backward_from_logits",
            ),
            setup_repeats=2,  # one set-up takes ~17 s; a third would not fit the run budget
        ),
    )
}

END_TO_END_UNITS = {
    "run_s": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "test_accuracy": "ratio",
    "program_nnz_per_token": "count",
    "peak_rss_mb": "MB",
}

# Traced during the measured command: name -> the statistics reported.
COMMAND_LAYERS = {
    "sparse_coding.omp_encode": ("calls", "total_s"),
    "sparse_coding.batch_encode": ("total_s",),
    "sparse_coding.ksvd_run": ("calls", "total_s"),
    "classifier.forward_embedded": ("calls", "total_s"),
    "classifier.backward_from_logits": ("calls", "total_s"),
    "program.evaluate": ("calls", "total_s", "self_s"),
    "program.apply_program": ("calls", "total_s"),
    "program.reprogram_train": ("total_s", "self_s"),
    "numerics.as_matrix": ("calls", "total_s"),
    "numerics.softmax": ("calls",),
    "classifier.load_checkpoint": ("total_s",),
    "data.load_csv": ("total_s",),
    "data.split": ("total_s",),
    "cli.load_config": ("total_s",),
    "program.save_program": ("total_s",),
}
# Traced during set-up.
SETUP_LAYERS = {
    "classifier.train_source": ("total_s",),
    "classifier.save_checkpoint": ("total_s",),
}
DERIVED_UNITS = {
    "sparse_coding.omp_atoms_per_code": "atoms",
    "sparse_coding.omp_stop_epsilon": "count",
    "sparse_coding.omp_stop_max_atoms": "count",
    "sparse_coding.omp_stop_no_gain": "count",
    "sparse_coding.omp_repeat_ratio": "ratio",
    "classifier.samples_per_forward_call": "samples",
    "bench.trace_overhead_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for layers in (COMMAND_LAYERS, SETUP_LAYERS):
        for name, stats in layers.items():
            for stat in stats:
                units[f"{name}.{stat}"] = "count" if stat == "calls" else "s"
    units.update(DERIVED_UNITS)
    return units


@dataclass(frozen=True)
class Inputs:
    config: Path
    checkpoint: Path
    target: object  # the generated target SequenceDataset
    source_valid_accuracy: float


def cli_config(w: Workload, sizes: Sizes, seed: int, target_csv: Path) -> dict:
    return {
        "seed": seed,
        "data": {"mode": "csv", "target_path": str(target_csv)},
        "split": dict(zip(("train", "valid", "test"), TARGET_SPLIT), seed=seed),
        "reprogram": {
            "outer_iterations": sizes.outer_iterations,
            "step_size": 0.01,
            "batch_size": sizes.batch_size,
            "label_map": [0, 1],
            "ksvd": {
                "epsilon": 0.045,
                "max_atoms": 16,
                "sweeps": w.sweeps,
                "update_dictionary": w.update_dictionary,
            },
        },
    }


def set_up(w: Workload, sizes: Sizes, seed: int, dest: Path) -> Inputs:
    """Generate the target CSV, config and trained source checkpoint."""
    from reprogram import classifier, data

    dest.mkdir(parents=True, exist_ok=True)
    source, target = data.synth_tasks(seed, sizes.source_rows, sizes.target_rows)
    target_csv = dest / "target.csv"
    data.save_csv(target, target_csv)
    s_train, s_valid, _ = data.split(source, data.SplitSpec(*SOURCE_SPLIT, seed=seed))
    train_cfg = classifier.TrainConfig(
        architecture=w.architecture, epochs=w.source_epochs,
        learning_rate=w.source_learning_rate,
    )
    model, report = classifier.train_source(s_train, train_cfg, seed, valid=s_valid)
    checkpoint = dest / "source_checkpoint.json"
    classifier.save_checkpoint(model, checkpoint)
    config = dest / "config.json"
    config.write_text(json.dumps(cli_config(w, sizes, seed, target_csv), indent=2))
    return Inputs(config, checkpoint, target, report["valid_accuracy"])


def run_command(inputs: Inputs, out: Path):
    """One `reprogram` command; returns (wall seconds, exit code or None)."""
    from reprogram import cli

    argv = ["reprogram", "--config", str(inputs.config),
            "--source-checkpoint", str(inputs.checkpoint), "--out", str(out)]
    gc.collect()  # garbage left by earlier work is not this command's cost
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed attempt, not the end of the run
        traceback.print_exc()
        code = None
    return time.perf_counter() - start, code


def check_outputs(w: Workload, out: Path, code, majority: float):
    """Returns (problems, test_accuracy, program_nnz_per_token)."""
    from reprogram import program

    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    accuracy = nnz = None
    try:
        accuracy = float(json.loads((out / "summary.json").read_text())["test_accuracy"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"summary.json unreadable: {exc!r}")
    try:
        theta = np.asarray(program.load_program(out / "program.json").theta)
        if theta.shape != THETA_SHAPE:
            problems.append(f"theta shape {theta.shape} != {THETA_SHAPE}")
        elif not np.all(np.isfinite(theta)):
            problems.append("theta is not finite")
        else:
            nnz = float(np.mean(np.count_nonzero(theta, axis=0)))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"program.json unreadable: {exc!r}")
    if accuracy is not None:
        if not accuracy > majority:
            problems.append(
                f"test accuracy {accuracy:.4f} does not beat majority class {majority:.4f}"
            )
        if w.min_test_accuracy is not None and accuracy < w.min_test_accuracy:
            problems.append(f"test accuracy {accuracy:.4f} < {w.min_test_accuracy}")
    return problems, accuracy, nnz


class DerivedCounters:
    """Tracer hooks: counters derived from traced calls' arguments and results."""

    def __init__(self):
        self._ksvd_span = -1
        self._seen: set = set()
        self._digests: dict = {}

    def hooks(self) -> dict:
        return {
            "sparse_coding.omp_encode": self.omp_encode,
            "classifier.forward_embedded": self.forward,
        }

    def omp_encode(self, tracer, args, code):
        dictionary, signal, cfg = list(args.values())[:3]
        support = tuple(code.support)
        tracer.count("omp_codes")
        tracer.count("omp_atoms", len(support))
        if cfg.residual_norm == "l1":
            stop_norm = code.residual_l1
        else:
            residual = np.asarray(signal) - dictionary.atoms[:, list(support)] @ code.coefficients
            stop_norm = float(np.linalg.norm(residual))
        if stop_norm <= cfg.epsilon:
            tracer.count("omp_stop_epsilon")
        elif len(support) >= cfg.max_atoms:
            tracer.count("omp_stop_max_atoms")
        else:
            tracer.count("omp_stop_no_gain")
        # identical (dictionary, signal) pairs coded again within one ksvd_run
        ksvd_span = tracer.enclosing("sparse_coding.ksvd_run")
        if ksvd_span < 0:
            return
        if ksvd_span != self._ksvd_span:
            self._ksvd_span, self._seen, self._digests = ksvd_span, set(), {}
        held = self._digests.get(id(dictionary))
        if held is None or held[0] is not dictionary:
            atoms = np.ascontiguousarray(dictionary.atoms)
            held = (dictionary, hashlib.blake2b(atoms.tobytes(), digest_size=16).digest())
            self._digests[id(dictionary)] = held
        key = (held[1], np.ascontiguousarray(signal, dtype=np.float64).tobytes())
        if key in self._seen:
            tracer.count("omp_repeats")
        else:
            self._seen.add(key)

    def forward(self, tracer, args, logits):
        embedded = np.asarray(list(args.values())[1])
        tracer.count("forward_samples", 1 if embedded.ndim <= 2 else embedded.shape[-1])


def layer_metrics(tracer, overhead_s: float) -> dict:
    metrics = {}
    for phase, layers in (("command", COMMAND_LAYERS), ("setup", SETUP_LAYERS)):
        for name, stats in layers.items():
            stat_values = tracer.layer(phase, name)
            for stat in stats:
                metrics[f"{name}.{stat}"] = stat_values[stat]

    def count(key):
        return tracer.counter("command", key)

    def ratio(num, den):
        return num / den if den else 0.0

    codes = count("omp_codes")
    metrics["sparse_coding.omp_atoms_per_code"] = ratio(count("omp_atoms"), codes)
    for reason in ("epsilon", "max_atoms", "no_gain"):
        metrics[f"sparse_coding.omp_stop_{reason}"] = count(f"omp_stop_{reason}")
    metrics["sparse_coding.omp_repeat_ratio"] = ratio(count("omp_repeats"), codes)
    metrics["classifier.samples_per_forward_call"] = ratio(
        count("forward_samples"), tracer.layer("command", "classifier.forward_embedded")["calls"]
    )
    metrics["bench.trace_overhead_s"] = overhead_s
    return metrics


def layer_shares(tracer, chosen) -> dict:
    """Each layer's total time as a share of program.reprogram_train.

    ``largest_other`` is the largest share among layers that neither are one
    of ``chosen`` nor enclose one (an enclosing layer's time includes it).
    """
    whole = tracer.layer("command", "program.reprogram_train")["total_s"]
    if not whole:
        return {}
    shares = {
        name: tracer.layer("command", name)["total_s"] / whole
        for name in COMMAND_LAYERS
        if name != "program.reprogram_train"
    }
    callers = tracer.callers()
    enclosing, frontier = set(), list(chosen)
    while frontier:
        for parent in callers.get(frontier.pop(), ()):
            if parent not in enclosing:
                enclosing.add(parent)
                frontier.append(parent)
    others = {n: v for n, v in shares.items() if n not in chosen and n not in enclosing}
    largest = max(others, key=others.get, default=None)
    return {
        "shares": dict(sorted(shares.items(), key=lambda item: -item[1])),
        "chosen": list(chosen),
        "chosen_share": sum(shares.get(name, 0.0) for name in chosen),
        "largest_other": {"name": largest, "share": others.get(largest, 0.0)},
    }


def git_commit(root: Path):
    """HEAD commit read from .git without starting a process; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_info() -> dict:
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None:
                threads.restype = ctypes.c_int
                info["threads"] = threads()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode(errors="replace")
                return info
    return info


def environment(w: Workload, sizes: Sizes, seed: int, splits) -> dict:
    return {
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "workload": w.name,
        "seed": seed,
        "sizes": dict(asdict(sizes), train=splits[0], valid=splits[1], test=splits[2],
                      theta_shape=list(THETA_SHAPE), setup_repeats=w.setup_repeats),
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = ACCEPTANCE, work: Path = WORK) -> dict:
    """Set up, run and check commands; returns the result document."""
    from reprogram import data

    run_dir = work / f"{w.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tracer = None
    setup_times = []
    if trace:
        tracer = Tracer(PACKAGE, [*COMMAND_LAYERS, *SETUP_LAYERS],
                        run_id=f"{w.name}-seed{seed}-{time.time_ns()}",
                        hooks=DerivedCounters().hooks())
        tracer.install()
        try:
            with tracer.phase("setup"):
                start = time.perf_counter()
                inputs = set_up(w, sizes, seed, run_dir / "setup0")
                setup_times.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
    else:
        for i in range(w.setup_repeats):
            gc.collect()
            start = time.perf_counter()
            inputs = set_up(w, sizes, seed, run_dir / f"setup{i}")
            setup_times.append(time.perf_counter() - start)

    _, valid, test = data.split(inputs.target, data.SplitSpec(*TARGET_SPLIT, seed=seed))
    splits = (len(inputs.target) - len(valid) - len(test), len(valid), len(test))
    majority = test.majority_class_accuracy()

    run_times, accuracies, nnzs, problems = [], [], [], []

    def attempt(out: Path):
        elapsed, code = run_command(inputs, out)
        found, accuracy, nnz = check_outputs(w, out, code, majority)
        run_times.append(elapsed)
        problems.append(found)
        if accuracy is not None:
            accuracies.append(accuracy)
        if nnz is not None:
            nnzs.append(nnz)
        return elapsed

    traced_s = None
    if trace:
        attempt(run_dir / "untraced")
        tracer.install()
        try:
            with tracer.phase("command"):
                traced_s = attempt(run_dir / "traced")
        finally:
            tracer.uninstall()
    else:
        # closed loop: the next command starts when the previous one ends,
        # and none starts that would likely overrun the measuring time
        while True:
            elapsed = attempt(run_dir / f"command{len(run_times)}")
            if sum(run_times) + elapsed > seconds:
                break

    failed = sum(1 for found in problems if found)
    if trace:
        metrics = layer_metrics(tracer, traced_s - run_times[0])
        units = per_layer_units()
    else:
        run_s = statistics.median(run_times)
        samples = sizes.outer_iterations * (sizes.batch_size + splits[1]) + splits[2]
        metrics = {
            "run_s": run_s,
            "samples_per_s": samples / run_s,
            "setup_s": statistics.median(setup_times),
            "test_accuracy": statistics.median(accuracies) if accuracies else 0.0,
            "program_nnz_per_token": statistics.median(nnzs) if nnzs else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(run_times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    document = {
        "result": result,
        "failure_ratio": failed / len(run_times),
        "problems": [found for found in problems if found],
        "run_times_s": run_times,
        "setup_times_s": setup_times,
        "source_valid_accuracy": inputs.source_valid_accuracy,
        "test_majority_rate": majority,
        "environment": environment(w, sizes, seed, splits),
    }
    if trace:
        document["layer_shares"] = layer_shares(tracer, w.chosen_layers)
        document["trace"] = tracer.summary()
        (run_dir / "trace.json").write_text(json.dumps(document["trace"], indent=2))
        tracer.write_spans(run_dir / "spans.npz")
    (run_dir / "result.json").write_text(json.dumps(document, indent=2, sort_keys=True))
    return document


def report(document: dict) -> None:
    """Human-readable lines, then the result object as the last stdout line."""
    result = document["result"]
    for found in document["problems"]:
        print(f"check failed: {'; '.join(found)}")
    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"{'failure_ratio':45s} {document['failure_ratio']:>16.6f} "
          f"({result['failed']}/{result['attempted']})")
    if "trace" in document:
        print(f"absent: {document['trace']['absent']}")
        shares = document["layer_shares"]
        for name, share in list(shares.get("shares", {}).items())[:6]:
            print(f"share of program.reprogram_train  {name:40s} {share:7.1%}")
        if shares:
            other = shares["largest_other"]
            print(f"chosen layers {'+'.join(shares['chosen'])}: {shares['chosen_share']:.1%}; "
                  f"largest other layer {other['name']}: {other['share']:.1%}")
    print("environment " + json.dumps(document["environment"], sort_keys=True))
    print(json.dumps(result), flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: the {PACKAGE} sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    document = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    report(document)
    return 0


if __name__ == "__main__":
    sys.exit(main())
