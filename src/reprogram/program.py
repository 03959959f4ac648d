"""Adversarial program, label map, and the dictionary-learning training loop.

The program is a coefficient matrix theta (|V_S| x |V_T|): the embedding of
target token j is the source embedding table times column j. Training
codes theta once (OMP/k-SVD against the normalized source embeddings) and
then takes mini-batch gradient steps through the frozen source classifier,
each masked to the support that coding chose, so the saved theta has at
most `max_atoms` non-zeros per column.

Loss, gradient and evaluation hand the classifier one vocabulary embedding
E = table @ theta (d x |V_T|) over the model's table (under dictionary
update, the learned atoms) and a target dataset, whose token counts and
padded ids were built once, when it was loaded; the gradient with respect to
theta is table^T @ dE. The loss reads each row's target probability from the
source classes that map to its label, without building the mapped
distribution.
They trust their inputs: the entries `reprogram_train` and `evaluate_program`
check once that theta, model, label map and data fit and the data is non-empty.
"""

import csv
import json
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from .classifier import FrozenClassifier, gradient, predict
from .data import read_array, read_document
from .errors import ConfigError, ShapeError
from .numerics import as_matrix, softmax
from .sparse_coding import Dictionary, KsvdConfig, ksvd_run

PROGRAM_FORMAT_VERSION = 3
VALIDATIONS = 20  # iterates scored per reprogram_train run, give or take; see its docstring


@dataclass(frozen=True)
class LabelMap:
    """Total map from source class index to target class index, surjective."""

    source_to_target: tuple

    def __post_init__(self):
        if not self.source_to_target:
            raise ConfigError("label map must cover at least one source class")
        if not all(type(t) is int and t >= 0 for t in self.source_to_target):
            raise ConfigError("label map entries must be non-negative integers")
        targets = set(self.source_to_target)
        expected = set(range(self.num_target_classes))
        if targets != expected:
            raise ConfigError("label map must be surjective onto 0..max target class")

    @cached_property
    def _targets(self) -> np.ndarray:
        """`source_to_target` as an array, built once per map."""
        return np.array(self.source_to_target)

    @property
    def num_source_classes(self) -> int:
        return len(self.source_to_target)

    @property
    def num_target_classes(self) -> int:
        return max(self.source_to_target) + 1

    def loss_grad(self, logits, labels):
        """Summed cross-entropy of the mapped distributions at the target `labels`,
        and its gradient with respect to the source logits.

        A row's target probability sums the source classes that map to its
        label (its hits) in source order, as `map_output` does, so the two
        agree bit for bit.
        """
        p = softmax(logits)
        hits = self._targets == labels[:, None]
        target = np.where(hits, p, 0.0).cumsum(axis=1)[:, -1]
        dlogits = p - np.where(hits, p / target[:, None], 0.0)
        return float(-np.log(target).sum()), dlogits


@dataclass(frozen=True)
class ReprogramConfig:
    """Outer-loop parameters wrapping the inner sparse-coding configuration."""

    outer_iterations: int
    ksvd: KsvdConfig
    step_size: float = 0.01
    decay: float | None = None
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.outer_iterations < 1:
            raise ConfigError("outer_iterations must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.step_size < 0:
            raise ConfigError("step_size must be non-negative")
        if self.decay is not None and not 0 < self.decay <= 1:
            raise ConfigError("decay must lie in (0, 1]")

    def step_at(self, iteration: int) -> float:
        if self.decay is None:
            return self.step_size
        return self.step_size * self.decay**iteration


@dataclass(frozen=True)
class AdversarialProgram:
    """Learned theta, the config it was trained with and the target it was built for.

    Column j of theta embeds `target_tokens[j]`, target class i is
    `class_names[i]`, and source class i scores for target class
    `label_map[i]`; data numbered otherwise, or another map, does not fit
    the program.
    `source_basis` is None when theta codes over the model's own embedding
    table; under dictionary update it is the learned, read-only basis theta
    was coded and trained over. Score a program with `evaluate_program`.
    """

    theta: np.ndarray
    config: dict
    target_tokens: tuple
    class_names: tuple
    label_map: tuple
    source_basis: np.ndarray | None = None


def initial_theta(source_vocab_size: int, target_vocab_size: int, seed: int) -> np.ndarray:
    """Random program initialization, uniform in [-0.01, 0.01]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.01, 0.01, size=(source_vocab_size, target_vocab_size))


def _check_classes(label_map: LabelMap, model: FrozenClassifier, dataset) -> None:
    """Reject a label map that misses a source class, or a dataset with more
    classes than the map maps onto."""
    if model.params.num_classes != label_map.num_source_classes:
        raise ConfigError("label map does not cover the source classes")
    if len(dataset.class_names) > label_map.num_target_classes:
        raise ConfigError(f"label map maps onto {label_map.num_target_classes} target "
                          f"classes, but the data has {len(dataset.class_names)}")


def map_output(label_map: LabelMap, source_probs) -> np.ndarray:
    """Sum source-class probabilities (last axis) into their mapped target classes."""
    p = np.asarray(source_probs, dtype=np.float64)
    if p.ndim == 0 or p.shape[-1] != label_map.num_source_classes:
        raise ShapeError("probability vector size does not match label map")
    out = np.zeros(p.shape[:-1] + (label_map.num_target_classes,))
    for source, target in enumerate(label_map.source_to_target):
        out[..., target] += p[..., source]
    return out


def loss_and_grad(theta, model, label_map: LabelMap, batch):
    """Mean mapped cross-entropy over a batch and its gradient with respect to theta.

    `batch` is a non-empty target dataset, such as `train.take(rows)`, that
    fits theta, model and label map, as `reprogram_train` checked.
    """
    loss, dembedding, _ = gradient(model.params, model.embeddings @ theta, batch,
                                   label_map.loss_grad)
    return loss / len(batch), (model.embeddings.T @ dembedding) / len(batch)


def evaluate(theta, model, label_map: LabelMap, dataset):
    """Argmax accuracy and target-class confusion counts (rows = true class),
    over inputs that `evaluate_program` or `reprogram_train` checked."""
    logits = predict(model.params, model.embeddings @ theta, dataset)
    predicted = map_output(label_map, softmax(logits)).argmax(axis=1)
    n = label_map.num_target_classes
    confusion = np.bincount(dataset.labels * n + predicted,
                            minlength=n * n).reshape(n, n)
    return float(np.trace(confusion)) / len(dataset), confusion


def evaluate_program(program: AdversarialProgram, model, label_map, dataset):
    """`evaluate` the program's theta over its own basis, if it fits.

    A model of another source vocabulary or basis shape, data of other
    target tokens or class names, another label map and an empty dataset are
    a ConfigError; a theta that is not a finite matrix with one column per
    target token is a NumericError or ShapeError.
    """
    _check_classes(label_map, model, dataset)  # a map that misses a class is named so
    basis = program.source_basis
    if program.theta.shape[0] != model.embeddings.shape[1]:
        raise ConfigError("program does not match the source model vocabulary")
    if basis is not None and basis.shape != model.embeddings.shape:
        raise ConfigError("program source_basis does not match the source model's d x vocab")
    if program.target_tokens != dataset.vocab.index_to_token:
        raise ConfigError(f"program was built for target vocabulary "
                          f"{''.join(program.target_tokens)!r}, the data has "
                          f"{''.join(dataset.vocab.index_to_token)!r}")
    if program.class_names != dataset.class_names:
        raise ConfigError(f"program was built for target classes {list(program.class_names)}, "
                          f"the data has {list(dataset.class_names)}")
    if label_map.source_to_target != program.label_map:
        raise ConfigError(f"program was trained with label map {list(program.label_map)}, "
                          f"not {list(label_map.source_to_target)}")
    if len(dataset) == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    theta = as_matrix(program.theta)
    if theta.shape[1] != len(dataset.vocab):
        raise ShapeError("theta columns must match target vocabulary size")
    if basis is not None:
        model = replace(model, embeddings=basis)
    return evaluate(theta, model, label_map, dataset)


def reprogram_train(model: FrozenClassifier, label_map: LabelMap, train, valid,
                    cfg: ReprogramConfig):
    """Sparse coding once, then gradient descent on theta over its support.

    The initial theta is coded once over the source embedding dictionary
    (`ksvd_run`); under dictionary update the learned atoms are the model's
    table for the rest of the run. Each outer iteration then takes one
    mini-batch gradient step through the frozen model, masked to the
    support of that coding: theta keeps at most `max_atoms` non-zeros per
    column, and the saved program is the coding refit on its own support.
    A column whose code is empty stays zero. This is the debiasing step of
    hard thresholding pursuit (Foucart, 2011) with the support held fixed.
    Trace row 0 holds the coding's `coding_error`.

    Iteration `it` is scored on the validation split when
    (last - it) % max(1, outer_iterations // VALIDATIONS) == 0: the last
    iterate always, every iterate of a run shorter than 2 * VALIDATIONS
    iterations, and 20 to 30 evenly spaced ones otherwise (at 200
    iterations, 9, 19, ..., 199). Unscored trace rows hold `valid_accuracy`
    None. Returns the scored iterate with the best validation accuracy
    (ties: earliest iteration) and the full metrics trace; `evaluate_program`
    on the validation split reproduces the best `valid_accuracy` of the trace.

    Inputs are checked once, here: empty splits, splits of other target
    tokens or class names, and a label map that does not fit are a
    ConfigError; a step that left a NaN or Inf in theta is a NumericError.
    """
    if len(train) == 0 or len(valid) == 0:
        raise ConfigError("train and valid datasets must be non-empty")
    if (valid.vocab.index_to_token, valid.class_names) != (train.vocab.index_to_token,
                                                            train.class_names):
        raise ConfigError("valid and train splits differ in target tokens or class names")
    _check_classes(label_map, model, train)  # and so valid, of the same class names

    table = model.embeddings
    theta = initial_theta(table.shape[1], len(train.vocab), cfg.seed)
    dictionary, codes, ksvd_trace = ksvd_run(table @ theta, Dictionary.from_matrix(table),
                                             cfg.ksvd)
    theta = dictionary.fold_codes(codes)
    support = theta != 0
    if cfg.ksvd.update_dictionary:
        model = replace(model, embeddings=dictionary.atoms)  # read-only, as ksvd_run leaves it
    rng = np.random.default_rng(cfg.seed)

    shuffled, start = train, len(train)  # each epoch's rows, permuted once
    trace = []
    best_acc = -1.0
    last = cfg.outer_iterations - 1
    stride = max(1, cfg.outer_iterations // VALIDATIONS)

    for it in range(cfg.outer_iterations):
        if start >= len(train):
            shuffled, start = train.take(rng.permutation(len(train))), 0
        batch = shuffled.take(slice(start, start + cfg.batch_size))
        start += cfg.batch_size

        loss, grad = loss_and_grad(theta, model, label_map, batch)
        theta = theta - cfg.step_at(it) * np.where(support, grad, 0.0)

        entry = {
            "iteration": it,
            "loss": loss,
            "valid_accuracy": None,
            "mean_support": float(np.count_nonzero(theta) / theta.shape[1]),
        }
        trace.append(entry)
        if (last - it) % stride == 0:
            valid_acc, _ = evaluate(theta, model, label_map, valid)
            entry["valid_accuracy"] = valid_acc
            if valid_acc > best_acc:
                best_acc, best_theta = valid_acc, theta
    as_matrix(theta)  # a step that left a NaN or Inf leaves one in every later iterate
    trace[0]["coding_error"] = ksvd_trace[-1]

    program = AdversarialProgram(
        theta=best_theta,
        config=asdict(cfg),
        target_tokens=train.vocab.index_to_token,
        class_names=train.class_names,
        label_map=label_map.source_to_target,
        source_basis=dictionary.atoms if cfg.ksvd.update_dictionary else None,
    )
    return program, trace


def save_program(program: AdversarialProgram, path) -> None:
    doc = {
        "format_version": PROGRAM_FORMAT_VERSION,
        "source_vocab_size": program.theta.shape[0],
        "target_vocab_size": program.theta.shape[1],
        "target_tokens": list(program.target_tokens),
        "class_names": list(program.class_names),
        "label_map": list(program.label_map),
        "config": program.config,
        "theta": program.theta.ravel().tolist(),
    }
    if program.source_basis is not None:
        doc["source_basis"] = {
            "shape": list(program.source_basis.shape),
            "data": program.source_basis.ravel().tolist(),
        }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True))  # dumps, unlike dump, uses the C encoder


def load_program(path) -> AdversarialProgram:
    """Read a `save_program` file; a malformed one is a DataFormatError naming it.

    Theta and source_basis must hold their recorded sizes' worth of finite
    values (`read_array`), as `load_checkpoint` requires of the model they
    are scored with, and there must be one target
    token per theta column, each a string, as are the class names; the
    label map's entries must be integers.
    """
    with read_document(path, "program", PROGRAM_FORMAT_VERSION) as doc:
        theta = read_array(doc["theta"], (doc["source_vocab_size"], doc["target_vocab_size"]))
        basis = None
        if "source_basis" in doc:
            spec = doc["source_basis"]
            basis = read_array(spec["data"], spec["shape"])
        tokens, class_names = tuple(doc["target_tokens"]), tuple(doc["class_names"])
        label_map = tuple(doc["label_map"])
        if len(tokens) != theta.shape[1]:
            raise ValueError(f"{len(tokens)} target tokens for {theta.shape[1]} theta columns")
        if not all(type(name) is str for name in tokens + class_names):
            raise ValueError("target tokens and class names must be strings")
        if not all(type(target) is int for target in label_map):
            raise ValueError("label map entries must be integers")
        return AdversarialProgram(theta=theta, config=doc["config"], target_tokens=tokens,
                                  class_names=class_names, label_map=label_map,
                                  source_basis=basis)


def trace_to_csv(trace, path) -> None:
    """One row per outer iteration; valid_accuracy is empty where the iterate
    was not scored, and coding_error where none was coded."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iteration", "loss", "valid_accuracy", "mean_support", "coding_error"]
        )
        for entry in trace:
            writer.writerow(
                [
                    entry["iteration"],
                    repr(entry["loss"]),
                    "" if entry["valid_accuracy"] is None else repr(entry["valid_accuracy"]),
                    repr(entry["mean_support"]),
                    repr(entry["coding_error"]) if "coding_error" in entry else "",
                ]
            )
