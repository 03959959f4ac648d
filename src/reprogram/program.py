"""Adversarial program, label map, and the dictionary-learning training loop.

The program is a coefficient matrix theta (|V_S| x |V_T|): the embedding of
target token j is the source embedding table times column j. Training
alternates a sparse-coding projection of theta (OMP/k-SVD against the
normalized source embeddings) with mini-batch gradient steps through the
frozen source classifier.

Loss, gradient and evaluation hand the classifier's padded-batch path one
vocabulary embedding E = basis @ theta (d x |V_T|) and the padded target
tokens; the gradient with respect to theta is basis^T @ dE. `apply_program`
and the single-sequence helpers are views of the same computation.
"""

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from .classifier import FrozenClassifier, gradient, pad, predict
from .data import read_json
from .errors import ConfigError, ShapeError
from .numerics import as_matrix, softmax
from .sparse_coding import Dictionary, KsvdConfig, ksvd_run

PROGRAM_FORMAT_VERSION = 1


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

    @property
    def num_source_classes(self) -> int:
        return len(self.source_to_target)

    @property
    def num_target_classes(self) -> int:
        return max(self.source_to_target) + 1


@dataclass(frozen=True)
class ReprogramConfig:
    """Outer-loop parameters wrapping the inner sparse-coding configuration."""

    outer_iterations: int
    ksvd: KsvdConfig
    step_size: float = 0.01
    decay: float | None = None
    batch_size: int = 64
    projection_mode: str = "every_outer_iteration"
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
        if self.projection_mode not in ("every_outer_iteration", "encode_once"):
            raise ConfigError(f"unknown projection_mode {self.projection_mode!r}")

    def step_at(self, iteration: int) -> float:
        if self.decay is None:
            return self.step_size
        return self.step_size * self.decay**iteration


@dataclass(frozen=True)
class AdversarialProgram:
    """Learned theta plus sparsity metadata and the config it was trained with.

    `source_basis` is None when theta codes over the model's own embedding
    table. Under dictionary update it is the learned basis that this theta
    was validated with, and theta means nothing without it; score a program
    with `evaluate_program`, which applies the two together.
    """

    theta: np.ndarray
    config: dict
    source_basis: np.ndarray | None = None

    @property
    def support_sizes(self) -> np.ndarray:
        return np.count_nonzero(self.theta, axis=0)


def initial_theta(source_vocab_size: int, target_vocab_size: int, seed: int) -> np.ndarray:
    """Random program initialization, uniform in [-0.01, 0.01]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.01, 0.01, size=(source_vocab_size, target_vocab_size))


def _program_batch(theta, model: FrozenClassifier, sequences, basis=None):
    """Check theta and the target sequences once: basis, E = basis @ theta, ids, lengths."""
    theta = as_matrix(theta)
    basis = model.embeddings.table if basis is None else basis
    if theta.shape[0] != basis.shape[1]:
        raise ShapeError("theta rows must match source vocabulary size")
    ids, lengths = pad(sequences, theta.shape[1])
    return basis, basis @ theta, ids, lengths


def apply_program(theta, model: FrozenClassifier, target_tokens, basis=None) -> np.ndarray:
    """Embed a target-token sequence: column l = basis @ theta[:, tokens[l]]."""
    _, embedding, ids, _ = _program_batch(theta, model, [tuple(target_tokens)], basis)
    return embedding[:, ids[0]]


def map_output(label_map: LabelMap, source_probs) -> np.ndarray:
    """Sum source-class probabilities (last axis) into their mapped target classes."""
    p = np.asarray(source_probs, dtype=np.float64)
    if p.ndim == 0 or p.shape[-1] != label_map.num_source_classes:
        raise ShapeError("probability vector size does not match label map")
    out = np.zeros(p.shape[:-1] + (label_map.num_target_classes,))
    np.add.at(out, (..., np.array(label_map.source_to_target)), p)
    return out


def _mapped_loss_dlogits(logits, label_map: LabelMap, labels):
    """Summed cross-entropy of the mapped distributions and its gradient wrt the logits."""
    p = softmax(logits)
    target = map_output(label_map, p)[np.arange(len(labels)), labels]
    hits = np.array(label_map.source_to_target) == labels[:, None]
    dlogits = p - np.where(hits, p / target[:, None], 0.0)
    return float(-np.log(target).sum()), dlogits


def _labelled_batch(theta, model, batch, basis):
    """`_program_batch` of a non-empty batch of (target_tokens, label) pairs, plus the labels."""
    if not batch:
        raise ConfigError("batch must be non-empty")
    sequences, labels = zip(*batch)
    return *_program_batch(theta, model, sequences, basis), np.asarray(labels)


def reprogram_loss(theta, model, label_map: LabelMap, batch, basis=None) -> float:
    """Mean mapped cross-entropy over a batch of (target_tokens, target_label)."""
    _, embedding, ids, lengths, labels = _labelled_batch(theta, model, batch, basis)
    logits = predict(model.params, embedding, ids, lengths)
    return _mapped_loss_dlogits(logits, label_map, labels)[0] / len(batch)


def grad_theta(theta, model, label_map: LabelMap, batch, basis=None) -> np.ndarray:
    """Gradient of the mean mapped cross-entropy with respect to theta."""
    return _loss_and_grad(theta, model, label_map, batch, basis)[1]


def _loss_and_grad(theta, model, label_map, batch, basis=None):
    basis, embedding, ids, lengths, labels = _labelled_batch(theta, model, batch, basis)
    loss_grad = lambda logits, y: _mapped_loss_dlogits(logits, label_map, y)
    loss, dembedding, _ = gradient(model.params, embedding, ids, lengths, labels, loss_grad)
    return loss / len(batch), (basis.T @ dembedding) / len(batch)


def evaluate(theta, model, label_map: LabelMap, dataset, basis=None):
    """Argmax accuracy and target-class confusion counts (rows = true class)."""
    if len(dataset) == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    _, embedding, ids, lengths = _program_batch(theta, model, dataset.sequences, basis)
    logits = predict(model.params, embedding, ids, lengths)
    predicted = map_output(label_map, softmax(logits)).argmax(axis=1)
    n_classes = label_map.num_target_classes
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (np.asarray(dataset.labels), predicted), 1)
    accuracy = float(np.trace(confusion)) / len(dataset)
    return accuracy, confusion


def evaluate_program(program: AdversarialProgram, model, label_map, dataset):
    """`evaluate` the program's theta over its own basis (see AdversarialProgram)."""
    return evaluate(
        program.theta, model, label_map, dataset, basis=program.source_basis
    )


def reprogram_train(model: FrozenClassifier, label_map: LabelMap, train, valid,
                    cfg: ReprogramConfig):
    """Alternating sparse-coding projection and gradient descent on theta.

    Per outer iteration: project theta onto sparse codes over the source
    embedding dictionary (every iteration, or once up front in encode_once
    mode), then take one mini-batch gradient step through the frozen model.
    Returns the program with the best validation accuracy (ties: earliest
    iteration) and the full metrics trace. Under dictionary update the
    program's `source_basis` is the basis that the returned theta was
    validated with, so `evaluate_program` on the validation split reproduces
    the best `valid_accuracy` of the trace.
    """
    if not model.frozen:
        raise ConfigError("source model must be frozen")
    if len(train) == 0 or len(valid) == 0:
        raise ConfigError("train and valid datasets must be non-empty")
    if model.params.num_classes != label_map.num_source_classes:
        raise ConfigError("label map does not cover the source classes")

    table = model.embeddings.table
    dictionary = Dictionary.from_matrix(table)
    basis = None  # the model's own table until the dictionary is learned
    theta = initial_theta(table.shape[1], len(train.vocab), cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    every_iteration = cfg.projection_mode == "every_outer_iteration"

    samples = list(zip(train.sequences, train.labels))
    order: list[int] = []
    trace = []
    best_acc = -1.0

    for it in range(cfg.outer_iterations):
        if it == 0 or every_iteration:
            signals = (table if basis is None else basis) @ theta
            dictionary, codes, ksvd_trace = ksvd_run(signals, dictionary, cfg.ksvd)
            theta = dictionary.fold_codes(codes)
            if cfg.ksvd.update_dictionary:
                basis = dictionary.atoms

        if not order:
            order = list(rng.permutation(len(samples)))
        batch_idx = order[: cfg.batch_size]
        order = order[cfg.batch_size :]
        batch = [samples[i] for i in batch_idx]

        loss, grad = _loss_and_grad(theta, model, label_map, batch, basis=basis)
        theta = theta - cfg.step_at(it) * grad

        valid_acc, _ = evaluate(theta, model, label_map, valid, basis=basis)
        entry = {
            "iteration": it,
            "loss": loss,
            "valid_accuracy": valid_acc,
            "mean_support": float(np.mean(np.count_nonzero(theta, axis=0))),
        }
        if every_iteration:
            entry["coding_error"] = ksvd_trace[-1]
        trace.append(entry)
        if valid_acc > best_acc:
            best_acc = valid_acc
            best_theta, best_basis = theta.copy(), basis

    program = AdversarialProgram(
        theta=best_theta,
        config=asdict(cfg),
        source_basis=None if best_basis is None else best_basis.copy(),
    )
    return program, trace


def save_program(program: AdversarialProgram, path) -> None:
    doc = {
        "format_version": PROGRAM_FORMAT_VERSION,
        "source_vocab_size": program.theta.shape[0],
        "target_vocab_size": program.theta.shape[1],
        "config": program.config,
        "theta": program.theta.ravel().tolist(),
    }
    if program.source_basis is not None:
        doc["source_basis"] = {
            "shape": list(program.source_basis.shape),
            "data": program.source_basis.ravel().tolist(),
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_program(path) -> AdversarialProgram:
    doc = read_json(path)
    if doc.get("format_version") != PROGRAM_FORMAT_VERSION:
        raise ConfigError(f"unsupported program version {doc.get('format_version')}")
    theta = np.array(doc["theta"]).reshape(
        doc["source_vocab_size"], doc["target_vocab_size"]
    )
    basis = None
    if "source_basis" in doc:
        spec = doc["source_basis"]
        basis = np.array(spec["data"]).reshape(spec["shape"])
    return AdversarialProgram(theta=theta, config=doc["config"], source_basis=basis)


def trace_to_csv(trace, path) -> None:
    """One row per outer iteration; coding_error is empty where none was coded."""
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
                    repr(entry["valid_accuracy"]),
                    repr(entry["mean_support"]),
                    repr(entry["coding_error"]) if "coding_error" in entry else "",
                ]
            )
