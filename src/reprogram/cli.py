"""Experiment harness: train-source, reprogram, eval, sweep-data, sweep-ksvd.

One JSON config file drives every command; --seed and --out flags override
it. All metrics are printed to stdout and written as JSON/CSV files under
the output directory. Exit codes: 0 success, 2 config/validation error,
3 runtime/numeric error or a failed allocation.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import classifier, data, program
from .errors import ConfigError, DataFormatError, NumericError, ShapeError
from .sparse_coding import KsvdConfig

_DEFAULTS = {
    "seed": 0,
    "data": {"mode": "synthetic", "source_size": 2000, "target_size": 2500,
             "source_path": None, "target_path": None,
             "sequence_column": "sequence", "label_column": "label"},
    "split": {"train": 0.8, "valid": 0.1, "test": 0.1, "seed": 0},
    "train": {"architecture": "bag_mlp", "embed_dim": 32, "hidden_dim": 32,
              "epochs": 20, "batch_size": 32, "learning_rate": 1.0},
    "reprogram": {
        "outer_iterations": 200,
        "step_size": 0.01,
        "decay": None,
        "batch_size": 64,
        "label_map": [0, 1],
        "ksvd": {"epsilon": 0.045, "max_atoms": 16, "sweeps": 5,
                 "update_dictionary": False},
    },
}


_KINDS = {bool: "a boolean", int: "a 64-bit integer", float: "a finite number",
          str: "a string", list: "a list", dict: "an object"}
_INT64 = np.iinfo(np.int64)
# The type of a key whose default is null, besides null itself.
_NULLABLE = {"data.source_path": str, "data.target_path": str, "reprogram.decay": float}


def _accepts(kind, value) -> bool:
    """Whether a config value is of JSON type `kind`: an int passes for a
    float, a bool never for a number, a number must be finite as a float
    (`json` reads NaN, Infinity and overflowing numerals such as 1e999), and
    an integer must fit in numpy's int64, which sizes arrays and loops."""
    if kind is float and type(value) in (int, float):
        return abs(value) <= sys.float_info.max
    if kind is int and type(value) is int:
        return _INT64.min <= value <= _INT64.max
    return type(value) is kind


def _check_keys(doc, defaults, prefix=""):
    """Reject unknown keys and values of the wrong type by walking the defaults tree."""
    for key, value in doc.items():
        name = prefix + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {name!r}")
        default = defaults[key]
        kind, null = (_NULLABLE[name], " or null") if default is None else (type(default), "")
        if not (null and value is None) and not _accepts(kind, value):
            raise ConfigError(f"config key {name!r} must be {_KINDS[kind]}{null}")
        if isinstance(default, dict):
            _check_keys(value, default, prefix=f"{name}.")


def _merge(defaults, doc):
    out = {}
    for key, value in defaults.items():
        if isinstance(value, dict):
            out[key] = _merge(value, doc.get(key, {}))
        else:
            out[key] = doc.get(key, value)
    return out


def load_config(path) -> dict:
    """Load, validate (unknown keys rejected), and default-fill a config file."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    doc = data.read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: the config must be a JSON object")
    _check_keys(doc, _DEFAULTS)
    cfg = _merge(_DEFAULTS, doc)
    for key in ("source_path", "target_path"):
        value = cfg["data"].get(key)
        if value is not None and not os.path.exists(value):
            raise ConfigError(f"dataset path does not exist: {value}")
    return cfg


def _datasets(cfg, with_source=True):
    """Build (source, target) full datasets per the data section. A CSV source
    is read only `with_source`; the synthetic pair comes from one generator."""
    dcfg = cfg["data"]
    if dcfg["mode"] == "synthetic":
        return data.synth_tasks(cfg["seed"], dcfg["source_size"], dcfg["target_size"])
    if dcfg["mode"] == "csv":
        source = None
        if with_source and dcfg.get("source_path"):
            source = data.load_csv(dcfg["source_path"], dcfg["sequence_column"],
                                   dcfg["label_column"])
        if not dcfg.get("target_path"):
            raise ConfigError("csv mode requires data.target_path")
        target = data.load_csv(dcfg["target_path"], dcfg["sequence_column"],
                               dcfg["label_column"])
        return source, target
    raise ConfigError(f"unknown data mode {dcfg['mode']!r}")


def _split_spec(cfg):
    s = cfg["split"]
    return data.SplitSpec(train=s["train"], valid=s["valid"], test=s["test"],
                          seed=s["seed"])


def _target_splits(cfg):
    """The target's (train, valid, test) splits; the full dataset is not kept."""
    _, target = _datasets(cfg, with_source=False)
    return data.split(target, _split_spec(cfg))


def _train_config(cfg):
    return classifier.TrainConfig(**cfg["train"])


def _reprogram_config(cfg):
    r = dict(cfg["reprogram"])
    r.pop("label_map")
    ksvd = KsvdConfig(**r.pop("ksvd"))
    return program.ReprogramConfig(ksvd=ksvd, seed=cfg["seed"], **r)


def _label_map(cfg, target):
    """The configured label map; it must map onto every class of the target data."""
    label_map = program.LabelMap(source_to_target=tuple(cfg["reprogram"]["label_map"]))
    if len(target.class_names) > label_map.num_target_classes:
        raise ConfigError(f"config key 'reprogram.label_map' maps onto "
                          f"{label_map.num_target_classes} target classes, but the target "
                          f"data has {len(target.class_names)}")
    return label_map


def _write_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_train_source(cfg, out_dir) -> int:
    source, _ = _datasets(cfg)
    if source is None:
        raise ConfigError("train-source needs a source dataset (data.source_path)")
    train, valid, test = data.split(source, _split_spec(cfg))
    model, report = classifier.train_source(train, _train_config(cfg), cfg["seed"],
                                            valid=valid)
    report["test_accuracy"] = classifier.evaluate_source(model, test)
    ckpt = os.path.join(out_dir, "source_checkpoint.json")
    classifier.save_checkpoint(model, ckpt)
    report["checkpoint"] = os.path.basename(ckpt)
    report["seed"] = cfg["seed"]
    _write_json(report, os.path.join(out_dir, "train_source_report.json"))
    print(f"train accuracy:          {report['train_accuracy']:.4f}")
    print(f"valid accuracy:          {report['valid_accuracy']:.4f}")
    print(f"test accuracy:           {report['test_accuracy']:.4f}")
    print(f"majority-class accuracy: {report['majority_class_accuracy']:.4f}")
    print(f"checkpoint: {ckpt}")
    return 0


def _run_reprogram(rcfg, model, label_map, splits):
    train, valid, test = splits
    prog, trace = program.reprogram_train(model, label_map, train, valid, rcfg)
    test_acc, confusion = program.evaluate_program(prog, model, label_map, test)
    return prog, trace, test_acc, confusion


def cmd_reprogram(cfg, source_checkpoint, out_dir) -> int:
    model = classifier.load_checkpoint(source_checkpoint)
    splits = _target_splits(cfg)
    label_map = _label_map(cfg, splits[0])
    rcfg = _reprogram_config(cfg)
    prog, trace, test_acc, confusion = _run_reprogram(rcfg, model, label_map, splits)
    program.save_program(prog, os.path.join(out_dir, "program.json"))
    program.trace_to_csv(trace, os.path.join(out_dir, "trace.csv"))
    summary = {
        "test_accuracy": test_acc,
        "confusion": confusion.tolist(),
        "ksvd_iterations": rcfg.ksvd.sweeps,
        "epsilon": rcfg.ksvd.epsilon,
        "seed": cfg["seed"],
    }
    _write_json(summary, os.path.join(out_dir, "summary.json"))
    print(f"test accuracy: {test_acc:.4f}")
    print(f"confusion: {confusion.tolist()}")
    return 0


def cmd_eval(cfg, program_path, source_checkpoint, out_dir) -> int:
    model = classifier.load_checkpoint(source_checkpoint)
    prog = program.load_program(program_path)
    _, _, test = _target_splits(cfg)
    accuracy, confusion = program.evaluate_program(prog, model, _label_map(cfg, test), test)
    summary = {"accuracy": accuracy, "confusion": confusion.tolist(),
               "num_samples": len(test)}
    _write_json(summary, os.path.join(out_dir, "eval_summary.json"))
    print(f"accuracy: {accuracy:.4f}")
    print(f"confusion: {confusion.tolist()}")
    return 0


def cmd_sweep_data(cfg, grid, source_checkpoint, out_dir) -> int:
    model = classifier.load_checkpoint(source_checkpoint)
    train, valid, test = _target_splits(cfg)
    if max(grid) > len(train):
        raise ConfigError(f"grid entry {max(grid)} exceeds training size {len(train)}")
    label_map = _label_map(cfg, train)
    rcfg = _reprogram_config(cfg)
    rows = []
    for n in grid:
        subset = data.subsample(train, n, cfg["seed"])
        prog, _ = program.reprogram_train(model, label_map, subset, valid, rcfg)
        rp_acc, _ = program.evaluate_program(prog, model, label_map, test)
        scratch_model, _ = classifier.train_source(
            subset, _train_config(cfg), cfg["seed"], valid=valid
        )
        scratch_acc = classifier.evaluate_source(scratch_model, test)
        rows.append((n, rp_acc, scratch_acc))
        print(f"n={n}: reprogram={rp_acc:.4f} scratch={scratch_acc:.4f}")
    path = os.path.join(out_dir, "sweep_data.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "reprogram_accuracy", "scratch_accuracy"])
        for n, a, b in rows:
            writer.writerow([n, repr(a), repr(b)])
    print(f"wrote {path}")
    return 0


def cmd_sweep_ksvd(cfg, grid, source_checkpoint, out_dir) -> int:
    model = classifier.load_checkpoint(source_checkpoint)
    splits = _target_splits(cfg)
    label_map = _label_map(cfg, splits[0])
    fixed = not cfg["reprogram"]["ksvd"]["update_dictionary"]
    if fixed:
        print("sweep-ksvd: update_dictionary is false, so every sweep count codes "
              "against the same fixed dictionary and the rows cannot differ",
              file=sys.stderr)
    rcfg = _reprogram_config(cfg)
    rows = []
    for sweeps in grid:
        if not (fixed and rows):  # a fixed dictionary's run is trained once
            run_cfg = replace(rcfg, ksvd=replace(rcfg.ksvd, sweeps=sweeps))
            prog, trace, test_acc, _ = _run_reprogram(run_cfg, model, label_map, splits)
            train_acc, _ = program.evaluate_program(prog, model, label_map, splits[0])
            final_error = trace[0]["coding_error"]
        rows.append((sweeps, train_acc, test_acc, final_error))
        print(f"sweeps={sweeps}: train={train_acc:.4f} test={test_acc:.4f} "
              f"coding_error={final_error:.6f}")
    path = os.path.join(out_dir, "sweep_ksvd.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ksvd_sweeps", "train_accuracy", "test_accuracy",
                         "final_coding_error"])
        for sweeps, tr, te, err in rows:
            writer.writerow([sweeps, repr(tr), repr(te), repr(err)])
    print(f"wrote {path}")
    return 0


def _parse_grid(text):
    """A sweep grid: one or more comma-separated integers of at least 1, ascending."""
    try:
        grid = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid grid {text!r}") from exc
    if not grid or min(grid) < 1 or sorted(grid) != grid:
        raise ConfigError(f"invalid grid {text!r}: give ascending integers of at least 1")
    return grid


def build_parser():
    parser = argparse.ArgumentParser(prog="reprogram",
                                     description="Sparse-coding reprogramming experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("train-source", help="train and freeze the source classifier")
    common(p)

    p = sub.add_parser("reprogram", help="learn an adversarial program")
    common(p)
    p.add_argument("--source-checkpoint", required=True)

    p = sub.add_parser("eval", help="evaluate a saved program")
    common(p)
    p.add_argument("--source-checkpoint", required=True)
    p.add_argument("--program", required=True)

    p = sub.add_parser("sweep-data", help="restricted-training-size sweep")
    common(p)
    p.add_argument("--source-checkpoint", required=True)
    p.add_argument("--grid", required=True, help="comma-separated sizes, ascending")

    p = sub.add_parser("sweep-ksvd", help="k-SVD iteration sweep")
    common(p)
    p.add_argument("--source-checkpoint", required=True)
    p.add_argument("--grid", required=True, help="comma-separated sweep counts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        for name, seed in (("seed", cfg["seed"]), ("split.seed", cfg["split"]["seed"])):
            if seed < 0:
                raise ConfigError(f"{name} must be non-negative, got {seed}")
        os.makedirs(args.out, exist_ok=True)
        if args.command == "train-source":
            return cmd_train_source(cfg, args.out)
        if args.command == "reprogram":
            return cmd_reprogram(cfg, args.source_checkpoint, args.out)
        if args.command == "eval":
            return cmd_eval(cfg, args.program, args.source_checkpoint, args.out)
        if args.command == "sweep-data":
            return cmd_sweep_data(cfg, _parse_grid(args.grid),
                                  args.source_checkpoint, args.out)
        if args.command == "sweep-ksvd":
            return cmd_sweep_ksvd(cfg, _parse_grid(args.grid),
                                  args.source_checkpoint, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DataFormatError, FileNotFoundError, FileExistsError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ShapeError, IndexError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
