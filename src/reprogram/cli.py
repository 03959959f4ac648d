"""Experiment harness: train-source, reprogram, eval, sweep-data, sweep-ksvd.

One JSON config file drives every command; `load_config` checks all of it
before a command reads or writes another file, and --seed overrides its seed.
Metrics go to stdout and to JSON/CSV files under --out. Exit codes: 0 success,
2 config/validation error, 3 runtime/numeric error or a failed allocation.
"""

import argparse
import csv
import json
import os
import sys
import typing
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from . import classifier, data, program
from .errors import ConfigError, DataFormatError, NumericError, ShapeError
from .sparse_coding import KsvdConfig

_KINDS = {bool: "a boolean", int: "a 64-bit integer", float: "a finite number",
          str: "a string", list: "a list", dict: "an object"}
_INT64 = np.iinfo(np.int64)


def _section(cls, skip=(), **cli_defaults):
    """Dataclass `cls`'s fields but `skip` as config keys, each as (type, default), a
    dataclass as (dict, its section); `cli_defaults` overrides a default or adds a key."""
    hints, section = typing.get_type_hints(cls), {}
    for field in fields(cls):
        hint = hints[field.name]
        if is_dataclass(hint):
            section[field.name] = (dict, _section(hint, **cli_defaults.pop(field.name, {})))
        elif field.name not in skip:
            section[field.name] = (hint, cli_defaults.pop(field.name, field.default))
    return section | {key: (type(value), value) for key, value in cli_defaults.items()}


# Each section's keys, types and defaults are the fields of the class it is read
# into. The CLI sets a default only where no class owns one (the seed, the label
# map) or where it differs: the run length, the split, and the k-SVD coding, which
# is fixed in the CLI and learned in `KsvdConfig`. `ReprogramConfig.seed` is `seed`.
_SCHEMA = {
    "seed": (int, 0),
    "data": (dict, _section(data.DataSpec)),
    "split": (dict, _section(data.SplitSpec, train=0.8, valid=0.1, test=0.1)),
    "train": (dict, _section(classifier.TrainConfig)),
    "reprogram": (dict, _section(
        program.ReprogramConfig, skip=("seed",), outer_iterations=200, label_map=[0, 1],
        ksvd={"epsilon": 0.045, "max_atoms": 16, "sweeps": 5, "update_dictionary": False})),
}


def _accepts(kind, value) -> bool:
    """Whether a config value is of JSON type `kind`: an int passes for a float, a
    bool never for a number, a number must be finite as a float (`json` reads NaN,
    Infinity and 1e999), and an integer must fit in numpy's int64, which sizes arrays."""
    if kind is float and type(value) in (int, float):
        return abs(value) <= sys.float_info.max
    if kind is int and type(value) is int:
        return _INT64.min <= value <= _INT64.max
    return type(value) is kind


def _merge(schema, doc, prefix=""):
    """The `schema`'s defaults filled in from a config document, with a new dict
    for every section. `doc` is walked in document order, depth first: the
    first unknown key or value of the wrong type met is a ConfigError."""
    out = {key: _merge(default, {}) if hint is dict else default
           for key, (hint, default) in schema.items()}
    for key, value in doc.items():
        name = prefix + key
        if key not in schema:
            raise ConfigError(f"unknown config key {name!r}")
        hint, default = schema[key]
        kind, *nullable = typing.get_args(hint) or (hint,)  # `float | None`: (float, None)
        null = " or null" if nullable else ""
        if not (null and value is None) and not _accepts(kind, value):
            raise ConfigError(f"config key {name!r} must be {_KINDS[kind]}{null}")
        out[key] = _merge(default, value, f"{name}.") if kind is dict else value
    return out


@dataclass(frozen=True)
class Config:
    """A checked config: the run's seed and each section built into its class."""

    seed: int
    data: data.DataSpec
    split: data.SplitSpec
    train: classifier.TrainConfig
    reprogram: program.ReprogramConfig  # seeded with `seed`
    label_map: program.LabelMap


def load_config(path, seed=None) -> Config:
    """Load a config file, `seed` (when given) in place of its own, and build every
    section: an unknown key, a wrong type and every value a class rejects are a
    ConfigError here, before any other file is read or written."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    doc = data.read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: the config must be a JSON object")
    cfg = _merge(_SCHEMA, doc)
    spec, train = data.DataSpec(**cfg["data"]), classifier.TrainConfig(**cfg["train"])
    seed = cfg["seed"] if seed is None else seed
    for name, value in (("seed", seed), ("split.seed", cfg["split"]["seed"])):
        if value < 0:
            raise ConfigError(f"{name} must be non-negative, got {value}")
    split, r = data.SplitSpec(**cfg["split"]), cfg["reprogram"]
    label_map = program.LabelMap(source_to_target=tuple(r.pop("label_map")))
    rcfg = program.ReprogramConfig(**dict(r, ksvd=KsvdConfig(**r["ksvd"]), seed=seed))
    return Config(seed, spec, split, train, rcfg, label_map)


def _target_splits(config):
    """The target's (train, valid, test) splits, once the label map is checked to map
    onto every class of the target; the full dataset is not kept."""
    target = config.data.load(config.seed, "target")
    mapped, classes = config.label_map.num_target_classes, len(target.class_names)
    if classes > mapped:
        raise ConfigError(f"config key 'reprogram.label_map' maps onto {mapped} target "
                          f"classes, but the target data has {classes}")
    return data.split(target, config.split)


def _write_json(doc, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_table(header, rows, path):
    """A sweep's CSV: the header, then per row its first entry and the repr of the rest."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([first, *map(repr, rest)] for first, *rest in rows)
    print(f"wrote {path}")


def cmd_train_source(config, args) -> int:
    train, valid, test = data.split(config.data.load(config.seed, "source"), config.split)
    model, report = classifier.train_source(train, config.train, config.seed, valid=valid)
    report["test_accuracy"] = classifier.evaluate_source(model, test)
    ckpt = os.path.join(args.out, "source_checkpoint.json")
    classifier.save_checkpoint(model, ckpt)
    report.update(checkpoint=os.path.basename(ckpt), seed=config.seed)
    _write_json(report, os.path.join(args.out, "train_source_report.json"))
    print(f"train accuracy:          {report['train_accuracy']:.4f}")
    print(f"valid accuracy:          {report['valid_accuracy']:.4f}")
    print(f"test accuracy:           {report['test_accuracy']:.4f}")
    print(f"majority-class accuracy: {report['majority_class_accuracy']:.4f}")
    print(f"checkpoint: {ckpt}")
    return 0


def cmd_reprogram(config, args) -> int:
    model = classifier.load_checkpoint(args.source_checkpoint)
    train, valid, test = _target_splits(config)
    label_map, rcfg = config.label_map, config.reprogram
    prog, trace = program.reprogram_train(model, label_map, train, valid, rcfg)
    test_acc, confusion = program.evaluate_program(prog, model, label_map, test)
    program.save_program(prog, os.path.join(args.out, "program.json"))
    program.trace_to_csv(trace, os.path.join(args.out, "trace.csv"))
    summary = {"test_accuracy": test_acc, "confusion": confusion.tolist(),
               "ksvd_iterations": rcfg.ksvd.codings, "epsilon": rcfg.ksvd.epsilon,
               "seed": config.seed}
    _write_json(summary, os.path.join(args.out, "summary.json"))
    print(f"test accuracy: {test_acc:.4f}")
    print(f"confusion: {confusion.tolist()}")
    return 0


def cmd_eval(config, args) -> int:
    model = classifier.load_checkpoint(args.source_checkpoint)
    prog = program.load_program(args.program)
    _, _, test = _target_splits(config)
    accuracy, confusion = program.evaluate_program(prog, model, config.label_map, test)
    summary = {"accuracy": accuracy, "confusion": confusion.tolist(), "num_samples": len(test)}
    _write_json(summary, os.path.join(args.out, "eval_summary.json"))
    print(f"accuracy: {accuracy:.4f}")
    print(f"confusion: {confusion.tolist()}")
    return 0


def cmd_sweep_data(config, args) -> int:
    model = classifier.load_checkpoint(args.source_checkpoint)
    train, valid, test = _target_splits(config)
    if max(args.grid) > len(train):
        raise ConfigError(f"grid entry {max(args.grid)} exceeds training size {len(train)}")
    label_map, rows = config.label_map, []
    for n in args.grid:
        subset = data.subsample(train, n, config.seed)
        prog, _ = program.reprogram_train(model, label_map, subset, valid, config.reprogram)
        rp_acc, _ = program.evaluate_program(prog, model, label_map, test)
        scratch_model, _ = classifier.train_source(subset, config.train, config.seed, valid=valid)
        scratch_acc = classifier.evaluate_source(scratch_model, test)
        rows.append((n, rp_acc, scratch_acc))
        print(f"n={n}: reprogram={rp_acc:.4f} scratch={scratch_acc:.4f}")
    _write_table(["n", "reprogram_accuracy", "scratch_accuracy"], rows,
                 os.path.join(args.out, "sweep_data.csv"))
    return 0


def cmd_sweep_ksvd(config, args) -> int:
    model = classifier.load_checkpoint(args.source_checkpoint)
    train, valid, test = _target_splits(config)
    label_map, rcfg, rows = config.label_map, config.reprogram, []
    fixed = not rcfg.ksvd.update_dictionary
    if fixed:
        print("sweep-ksvd: update_dictionary is false, so every sweep count codes against "
              "the same fixed dictionary and the rows cannot differ", file=sys.stderr)
    for sweeps in args.grid:
        if not (fixed and rows):  # a fixed dictionary's run is trained once
            run_cfg = replace(rcfg, ksvd=replace(rcfg.ksvd, sweeps=sweeps))
            prog, trace = program.reprogram_train(model, label_map, train, valid, run_cfg)
            test_acc, _ = program.evaluate_program(prog, model, label_map, test)
            train_acc, _ = program.evaluate_program(prog, model, label_map, train)
            final_error = trace[0]["coding_error"]
        rows.append((sweeps, train_acc, test_acc, final_error))
        print(f"sweeps={sweeps}: train={train_acc:.4f} test={test_acc:.4f} "
              f"coding_error={final_error:.6f}")
    _write_table(["ksvd_sweeps", "train_accuracy", "test_accuracy", "final_coding_error"],
                 rows, os.path.join(args.out, "sweep_ksvd.csv"))
    return 0


def _parse_grid(text):
    """A sweep's --grid: one or more comma-separated integers of at least 1, ascending."""
    try:
        grid = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid grid {text!r}") from exc
    if not grid or min(grid) < 1 or sorted(grid) != grid:
        raise ConfigError(f"invalid grid {text!r}: give ascending integers of at least 1")
    return grid


_CHECKPOINT = ("--source-checkpoint", None)
# Per command: name, function, help, and its required flags besides --config, with their help.
_COMMANDS = (
    ("train-source", cmd_train_source, "train and freeze the source classifier", ()),
    ("reprogram", cmd_reprogram, "learn an adversarial program", (_CHECKPOINT,)),
    ("eval", cmd_eval, "evaluate a saved program", (_CHECKPOINT, ("--program", None))),
    ("sweep-data", cmd_sweep_data, "restricted-training-size sweep",
     (_CHECKPOINT, ("--grid", "comma-separated sizes, ascending"))),
    ("sweep-ksvd", cmd_sweep_ksvd, "k-SVD iteration sweep",
     (_CHECKPOINT, ("--grid", "comma-separated sweep counts"))),
)


def build_parser():
    parser = argparse.ArgumentParser(prog="reprogram",
                                     description="Sparse-coding reprogramming experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, text, flags in _COMMANDS:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default="out", help="output directory")
        for flag, flag_help in flags:
            p.add_argument(flag, required=True, help=flag_help)
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.seed)
        if "grid" in args:
            args.grid = _parse_grid(args.grid)
        os.makedirs(args.out, exist_ok=True)
        return args.run(config, args)
    except (ConfigError, DataFormatError, FileNotFoundError, FileExistsError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ShapeError, IndexError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
