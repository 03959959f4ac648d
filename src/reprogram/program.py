"""Adversarial program, label map, and the dictionary-learning training loop.

The program is a coefficient matrix theta (|V_S| x |V_T|): the embedding of
target token j is the source embedding table times column j. Training
projects theta onto sparse codes (OMP/k-SVD against the normalized source
embeddings) and takes mini-batch gradient steps through the frozen source
classifier. By default (`encode_once`) it projects once and then steps only
on the support that projection chose, so the saved theta has at most
`max_atoms` non-zeros per column; `every_outer_iteration` alternates a
projection and a dense step on every iteration.

Loss, gradient and evaluation hand the classifier's padded-batch path one
vocabulary embedding E = basis @ theta (d x |V_T|) and a target dataset's
`ids` and `lengths`, padded once when the dataset was built; the gradient
with respect to theta is basis^T @ dE. `loss_and_grad` is the training
step's loss and gradient on a batch, `evaluate` scores a whole split.

No step of the loop reads a validation score, so each iteration's scoring
overlaps the next iteration's coding and gradient step: it runs in one
worker forked per `reprogram_train` call where the platform has the fork
start method and at least two usable CPUs, and in-process elsewhere, in
the same order. The worker keeps off the CPU the caller runs on. Both run
the same scoring code as `evaluate`, and every output is the same either
way.
"""

import csv
import json
import multiprocessing
import os
import signal
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .classifier import FrozenClassifier, gradient, predict
from .data import read_document
from .errors import ConfigError, ShapeError, WorkerError
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
    """Outer-loop parameters wrapping the inner sparse-coding configuration.

    `projection_mode` is "encode_once" (the default: one projection, then
    gradient steps on its support) or "every_outer_iteration" (a projection,
    then a dense step, on every iteration); see `reprogram_train`.
    """

    outer_iterations: int
    ksvd: KsvdConfig
    step_size: float = 0.01
    decay: float | None = None
    batch_size: int = 64
    projection_mode: str = "encode_once"
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


def initial_theta(source_vocab_size: int, target_vocab_size: int, seed: int) -> np.ndarray:
    """Random program initialization, uniform in [-0.01, 0.01]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.01, 0.01, size=(source_vocab_size, target_vocab_size))


def _embedding(theta, model: FrozenClassifier, dataset, basis=None):
    """Check theta against the source and target vocabularies: basis, E = basis @ theta."""
    theta = as_matrix(theta)
    basis = model.embeddings if basis is None else basis
    if theta.shape[0] != basis.shape[1]:
        raise ShapeError("theta rows must match source vocabulary size")
    if theta.shape[1] != len(dataset.vocab):
        raise ShapeError("theta columns must match target vocabulary size")
    return basis, basis @ theta


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


def _mapped_loss_dlogits(logits, label_map: LabelMap, labels):
    """Summed cross-entropy of the mapped distributions and its gradient wrt the logits."""
    p = softmax(logits)
    target = map_output(label_map, p)[np.arange(len(labels)), labels]
    hits = np.array(label_map.source_to_target) == labels[:, None]
    dlogits = p - np.where(hits, p / target[:, None], 0.0)
    return float(-np.log(target).sum()), dlogits


def loss_and_grad(theta, model, label_map: LabelMap, batch, basis=None):
    """Mean mapped cross-entropy over a batch and its gradient with respect to theta.

    `batch` is a non-empty target dataset, such as `train.take(rows)`.
    """
    if len(batch) == 0:
        raise ConfigError("batch must be non-empty")
    _check_classes(label_map, model, batch)
    basis, embedding = _embedding(theta, model, batch, basis)
    loss_grad = lambda logits, y: _mapped_loss_dlogits(logits, label_map, y)
    loss, dembedding, _ = gradient(model.params, embedding, batch.ids, batch.lengths,
                                   batch.labels, loss_grad)
    return loss / len(batch), (basis.T @ dembedding) / len(batch)


def _score(model, label_map: LabelMap, dataset, embedding):
    """`evaluate` of a checked split under the vocabulary embedding E."""
    logits = predict(model.params, embedding, dataset.ids, dataset.lengths)
    predicted = map_output(label_map, softmax(logits)).argmax(axis=1)
    n = label_map.num_target_classes
    confusion = np.bincount(dataset.labels * n + predicted,
                            minlength=n * n).reshape(n, n)
    return float(np.trace(confusion)) / len(dataset), confusion


def evaluate(theta, model, label_map: LabelMap, dataset, basis=None):
    """Argmax accuracy and target-class confusion counts (rows = true class)."""
    if len(dataset) == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    _check_classes(label_map, model, dataset)
    _, embedding = _embedding(theta, model, dataset, basis)
    return _score(model, label_map, dataset, embedding)


def evaluate_program(program: AdversarialProgram, model, label_map, dataset):
    """`evaluate` the program's theta over its own basis (see AdversarialProgram)."""
    return evaluate(
        program.theta, model, label_map, dataset, basis=program.source_basis
    )


def _worker_available() -> bool:
    """Whether this platform can fork a worker and has two CPUs to run it beside the caller."""
    return ("fork" in multiprocessing.get_all_start_methods()
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)


def _other_cpus() -> set:
    """The usable CPUs but the one this process last ran on; all of them if
    that is unknown or is the only one."""
    cpus = os.sched_getaffinity(0)
    try:
        with open("/proc/self/stat") as fh:  # field 39, "processor"
            return cpus - {int(fh.read().rsplit(")", 1)[1].split()[36])} or cpus
    except OSError:
        return cpus


def _serve(conn, caller_end, score, cpus):
    """Worker loop, on `cpus`: send back score(x) for each x received until None;
    an error is sent back in its place and ends the loop."""
    caller_end.close()  # so that the caller's end closes when the caller dies
    # A pipe write wakes its reader on the writer's CPU, where it would preempt
    # the caller while another CPU idles; the worker keeps off the caller's CPU.
    os.sched_setaffinity(0, cpus)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    try:
        while (x := conn.recv()) is not None:
            conn.send(score(x))
    except EOFError:
        pass  # the caller is gone
    except Exception as exc:
        conn.send(exc)


@contextmanager
def _overlapped(score):
    """Yield (submit, collect): submit(x, tag) queues score(x); collect(wait)
    returns the (tag, score) pairs ready so far, or all outstanding ones if
    wait, in submission order.

    Where `_worker_available`, a worker forked here computes them while the
    caller goes on; it is stopped when the block ends, or killed if it
    raises. An error raised by score is raised again by collect; a worker
    that dies is a WorkerError. Elsewhere submit calls score in-process.
    Fork, not spawn: the worker inherits score's arguments, where a spawned
    one would pay an interpreter start and a numpy import per call.
    """
    pending = deque()  # tags of outstanding work; in-process, (tag, score) pairs
    if not _worker_available():
        yield (lambda x, tag: pending.append((tag, score(x)))), \
            (lambda wait: [pending.popleft() for _ in range(len(pending))])
        return
    context = multiprocessing.get_context("fork")
    conn, child = context.Pipe()
    worker = context.Process(target=_serve, args=(child, conn, score, _other_cpus()),
                             daemon=True)
    worker.start()
    child.close()

    def receive():
        try:
            result = conn.recv()
        except (EOFError, OSError):
            worker.join()
            raise WorkerError(f"validation worker exited with code {worker.exitcode}") from None
        if isinstance(result, Exception):
            raise result
        return pending.popleft(), result

    def submit(x, tag):
        try:
            conn.send(x)
            pending.append(tag)
            return
        except OSError:  # the worker has ended: below, raise its error or that it died
            pass  # outside this block, so that the failed send's buffer is freed now
        while True:
            receive()

    def collect(wait):
        return [receive() for _ in range(len(pending)) if wait or conn.poll()]

    try:
        yield submit, collect
        conn.send(None)
    except BaseException:
        worker.kill()
        raise
    finally:
        worker.join()
        conn.close()


def reprogram_train(model: FrozenClassifier, label_map: LabelMap, train, valid,
                    cfg: ReprogramConfig):
    """Sparse-coding projection and gradient descent on theta.

    Per outer iteration: project theta onto sparse codes over the source
    embedding dictionary, then take one mini-batch gradient step through
    the frozen model. In encode_once mode (the default) only iteration 0
    projects, and every step is masked to the support of that projection:
    theta keeps at most `max_atoms` non-zeros per column, and the saved
    program is the projection refit on its own support. A column whose
    projection is empty stays zero. In every_outer_iteration mode every
    iteration projects and steps densely, so the saved theta is dense. The
    trace's `coding_error` is recorded on the iterations that project.
    Each step's validation overlaps the next iteration (see the module
    docstring); the scores are read back in iteration order. Returns the
    program with the best validation accuracy (ties: earliest iteration)
    and the full metrics trace. Under dictionary update the
    program's `source_basis` is the basis that the returned theta was
    validated with, so `evaluate_program` on the validation split reproduces
    the best `valid_accuracy` of the trace.
    """
    if len(train) == 0 or len(valid) == 0:
        raise ConfigError("train and valid datasets must be non-empty")
    _check_classes(label_map, model, train)
    _check_classes(label_map, model, valid)

    table = model.embeddings
    dictionary = Dictionary.from_matrix(table)
    basis = None  # the model's own table until the dictionary is learned
    theta = initial_theta(table.shape[1], len(train.vocab), cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    every_iteration = cfg.projection_mode == "every_outer_iteration"

    order = np.empty(0, dtype=np.intp)
    trace = []
    best_acc = -1.0
    last = cfg.outer_iterations - 1
    validation = _overlapped(lambda embedding: _score(model, label_map, valid, embedding)[0])

    with validation as (submit, collect):
        for it in range(cfg.outer_iterations):
            projects = it == 0 or every_iteration
            if projects:
                signals = (table if basis is None else basis) @ theta
                dictionary, codes, ksvd_trace = ksvd_run(signals, dictionary, cfg.ksvd)
                theta = dictionary.fold_codes(codes)
                support = theta != 0
                if cfg.ksvd.update_dictionary:
                    basis = dictionary.atoms

            if not order.size:
                order = rng.permutation(len(train))
            batch = train.take(order[: cfg.batch_size])
            order = order[cfg.batch_size :]

            loss, grad = loss_and_grad(theta, model, label_map, batch, basis=basis)
            if not every_iteration:
                grad = np.where(support, grad, 0.0)
            theta = theta - cfg.step_at(it) * grad

            entry = {
                "iteration": it,
                "loss": loss,
                "valid_accuracy": None,  # filled in when its score is read back
                "mean_support": float(np.mean(np.count_nonzero(theta, axis=0))),
            }
            if projects:
                entry["coding_error"] = ksvd_trace[-1]
            trace.append(entry)
            submit(_embedding(theta, model, valid, basis)[1], (entry, theta, basis))
            for (scored_entry, scored_theta, scored_basis), valid_acc in collect(it == last):
                scored_entry["valid_accuracy"] = valid_acc
                if valid_acc > best_acc:
                    best_acc = valid_acc
                    best_theta, best_basis = scored_theta.copy(), scored_basis

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
    """Read a `save_program` file; a malformed one is a DataFormatError naming it.

    Every theta and source_basis entry must be finite, as `load_checkpoint`
    requires of the model it is scored with.
    """
    with read_document(path, "program", PROGRAM_FORMAT_VERSION) as doc:
        theta = np.array(doc["theta"], dtype=np.float64).reshape(
            doc["source_vocab_size"], doc["target_vocab_size"]
        )
        basis = None
        if "source_basis" in doc:
            spec = doc["source_basis"]
            basis = np.array(spec["data"], dtype=np.float64).reshape(spec["shape"])
        if not all(np.isfinite(arr).all() for arr in (theta, basis) if arr is not None):
            raise ValueError("non-finite theta or source_basis entry")
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
