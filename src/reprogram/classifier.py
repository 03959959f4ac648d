"""A small frozen sequence classifier with input-embedding gradients.

This is the pretrained source model of the pipeline: trainable end to end on
a source task, then frozen. After freezing, only forward evaluation and
gradients with respect to the *input embeddings* are available; weights are
never mutated again (the arrays are made read-only).

Two architectures:
  bag_mlp - mean-pool embeddings -> tanh hidden layer -> linear head
  birnn   - single bidirectional tanh recurrence, concatenated final states
            -> linear head

One path serves training, reprogramming and evaluation: `forward` embeds a
right-padded batch of token ids through a vocabulary embedding E and returns
the logits with its cache; `backward` consumes the cache and returns dE, plus
weight gradients only for source training. The single-sequence functions are
batches of one.
"""

import json
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .data import read_json
from .errors import ConfigError, NumericError, ShapeError
from .numerics import as_matrix, softmax

FORMAT_VERSION = 1
# Sequences per model call. Larger slices only raise the peak memory: a whole
# split at once costs megabytes and runs no faster.
MAX_BATCH = 32


@dataclass(frozen=True)
class EmbeddingTable:
    """Column i is the embedding of source token i (d x vocab_size)."""

    table: np.ndarray

    @property
    def dim(self) -> int:
        return self.table.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True)
class ClassifierParams:
    architecture: str
    weights: dict
    num_classes: int


@dataclass(frozen=True)
class FrozenClassifier:
    embeddings: EmbeddingTable
    params: ClassifierParams
    frozen: bool
    seed: int


@dataclass(frozen=True)
class TrainConfig:
    architecture: str = "bag_mlp"
    embed_dim: int = 32
    hidden_dim: int = 32
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1.0

    def __post_init__(self):
        if self.architecture not in ("bag_mlp", "birnn"):
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if min(self.embed_dim, self.hidden_dim, self.epochs, self.batch_size) < 1:
            raise ConfigError("embed_dim, hidden_dim, epochs, batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")


def _init_weights(architecture, d, hidden, num_classes, rng):
    u = lambda *shape: rng.uniform(-0.1, 0.1, size=shape)
    if architecture == "bag_mlp":
        return {
            "w1": u(hidden, d),
            "b1": u(hidden),
            "w2": u(num_classes, hidden),
            "b2": u(num_classes),
        }
    return {
        "wx_f": u(hidden, d),
        "wh_f": u(hidden, hidden),
        "b_f": u(hidden),
        "wx_b": u(hidden, d),
        "wh_b": u(hidden, hidden),
        "b_b": u(hidden),
        "w_out": u(num_classes, 2 * hidden),
        "b_out": u(num_classes),
    }


def _forward_bag_mlp(w, embedded, mask):
    x = np.where(mask[:, :, None], embedded, 0.0).sum(axis=1) / mask.sum(axis=1)[:, None]
    h = np.tanh(x @ w["w1"].T + w["b1"])
    logits = h @ w["w2"].T + w["b2"]
    return logits, (x, h)


def _backward_bag_mlp(w, cache, mask, dlogits, weight_grads):
    x, h = cache
    da1 = (dlogits @ w["w2"]) * (1.0 - h * h)
    dx = (da1 @ w["w1"]) / mask.sum(axis=1)[:, None]
    dembedded = np.broadcast_to(dx[:, None, :], mask.shape + dx.shape[1:])
    if not weight_grads:
        return dembedded, None
    grads = {"w2": dlogits.T @ h, "b2": dlogits.sum(axis=0),
             "w1": da1.T @ x, "b1": da1.sum(axis=0)}
    return dembedded, grads


def _recur(embedded, wx, wh, b, mask, steps):
    """tanh recurrence over `steps` for all sequences; a state holds still on padded steps."""
    states = embedded @ wx.T  # the input terms, overwritten step by step by the states
    states += b
    h = np.zeros_like(states[:, 0])
    for t in steps:
        h = np.where(mask[:, t, None], np.tanh(states[:, t] + h @ wh.T), h)
        states[:, t] = h
    return states


def _recur_grad(dh, states, wh, mask, steps):
    """Gradients of the pre-activations of `_recur`, walking its steps in reverse."""
    da = np.zeros_like(states)
    for t in steps:
        live = mask[:, t, None]
        da[:, t] = np.where(live, dh * (1.0 - states[:, t] ** 2), 0.0)
        dh = np.where(live, da[:, t] @ wh, dh)
    return da


def _forward_birnn(w, embedded, mask):
    # the forward state freezes after step len-1; the backward one is zero until then
    steps = range(mask.shape[1])
    hf = _recur(embedded, w["wx_f"], w["wh_f"], w["b_f"], mask, steps)
    hb = _recur(embedded, w["wx_b"], w["wh_b"], w["b_b"], mask, reversed(steps))
    final = np.concatenate([hf[:, -1], hb[:, 0]], axis=1)
    logits = final @ w["w_out"].T + w["b_out"]
    return logits, (embedded, hf, hb, final)


def _backward_birnn(w, cache, mask, dlogits, weight_grads):
    embedded, hf, hb, final = cache
    hidden, steps = hf.shape[2], range(mask.shape[1])
    dfinal = dlogits @ w["w_out"]
    daf = _recur_grad(dfinal[:, :hidden], hf, w["wh_f"], mask, reversed(steps))
    dab = _recur_grad(dfinal[:, hidden:], hb, w["wh_b"], mask, steps)
    dembedded = daf @ w["wx_f"] + dab @ w["wx_b"]
    if not weight_grads:
        return dembedded, None
    grads = {"w_out": dlogits.T @ final, "b_out": dlogits.sum(axis=0)}
    # the state each step read: the forward one from t-1, the backward one from t+1
    prev_f = np.pad(hf[:, :-1], ((0, 0), (1, 0), (0, 0)))
    prev_b = np.pad(hb[:, 1:], ((0, 0), (0, 1), (0, 0)))
    for side, da, prev in (("f", daf, prev_f), ("b", dab, prev_b)):
        grads[f"wx_{side}"] = np.tensordot(da, embedded, axes=([0, 1], [0, 1]))
        grads[f"wh_{side}"] = np.tensordot(da, prev, axes=([0, 1], [0, 1]))
        grads[f"b_{side}"] = da.sum(axis=(0, 1))
    return dembedded, grads


_FORWARD = {"bag_mlp": _forward_bag_mlp, "birnn": _forward_birnn}
_BACKWARD = {"bag_mlp": _backward_bag_mlp, "birnn": _backward_birnn}


def pad(sequences, vocab_size: int):
    """Right-pad token sequences with 0s: ids (N x L_max) and lengths (N).

    Rejects an empty batch or sequence and tokens outside 0..vocab_size-1.
    """
    lengths = np.fromiter(map(len, sequences), dtype=np.intp)
    if lengths.size == 0 or lengths.min() == 0:
        raise ShapeError("empty batch or sequence")
    ids = np.zeros((lengths.size, lengths.max()), dtype=np.intp)
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = list(chain.from_iterable(sequences))
    bad = ids[(ids < 0) | (ids >= vocab_size)]
    if bad.size:
        raise IndexError(f"token {bad[0]} out of range")
    return ids, lengths


def forward(params: ClassifierParams, vocab_embedding, ids, lengths):
    """Logits (N x C) of right-padded token ids (N x L) under an embedding E (d x V).

    Token v embeds as E[:, v]. Slots past a sequence's length never reach its
    logits. Also returns the cache that `backward` consumes.
    """
    width = int(lengths.max())
    ids, mask = ids[:, :width], np.arange(width) < lengths[:, None]
    logits, cache = _FORWARD[params.architecture](params.weights, vocab_embedding.T[ids], mask)
    return logits, (vocab_embedding.shape, ids, mask, cache)


def backward(params: ClassifierParams, cache, dlogits, weight_grads=False):
    """dE (d x V) of sum(dlogits * logits), and weight gradients (else None) if asked."""
    (d, vocab_size), ids, mask, inner = cache
    dembedded, grads = _BACKWARD[params.architecture](params.weights, inner, mask, dlogits,
                                                      weight_grads)
    # scatter-add the live slots into their tokens' columns
    slots = (ids[mask][:, None] * d + np.arange(d)).ravel()
    dvocab = np.bincount(slots, weights=dembedded[mask].ravel(), minlength=vocab_size * d)
    return dvocab.reshape(vocab_size, d).T, grads


def _slices(n):
    return (slice(start, start + MAX_BATCH) for start in range(0, n, MAX_BATCH))


def predict(params: ClassifierParams, vocab_embedding, ids, lengths) -> np.ndarray:
    """`forward` logits of a padded batch of any size, MAX_BATCH sequences per call."""
    return np.concatenate([forward(params, vocab_embedding, ids[rows], lengths[rows])[0]
                           for rows in _slices(lengths.size)])


def gradient(params: ClassifierParams, vocab_embedding, ids, lengths, labels, loss_grad,
             weight_grads=False):
    """Summed loss, dE and (if asked) weight gradients of a padded batch of any size.

    `loss_grad(logits, labels)` gives the summed loss of a slice of at most
    MAX_BATCH sequences and its gradient with respect to their logits.
    """
    loss, dvocab, grads = 0.0, np.zeros(vocab_embedding.shape), None
    for rows in _slices(lengths.size):
        logits, cache = forward(params, vocab_embedding, ids[rows], lengths[rows])
        part_loss, dlogits = loss_grad(logits, labels[rows])
        part_dvocab, part = backward(params, cache, dlogits, weight_grads)
        loss, dvocab = loss + part_loss, dvocab + part_dvocab
        grads = part if grads is None else {name: grads[name] + part[name] for name in grads}
    return loss, dvocab, grads


def _cross_entropy_grad(logits, labels):
    """Summed cross-entropy of the rows of logits at their labels, and its gradient."""
    p = softmax(logits)
    rows = np.arange(len(labels))
    loss = float(-np.log(p[rows, labels]).sum())
    p[rows, labels] -= 1.0
    return loss, p


def _one_sequence(model: FrozenClassifier, embedded_seq):
    """An embedded sequence (d x L) as a padded batch of one: E is the sequence itself."""
    embedded = as_matrix(embedded_seq)
    if embedded.shape[1] == 0:
        raise ShapeError("empty sequence")
    if embedded.shape[0] != model.embeddings.dim:
        raise ShapeError("embedded sequence dimension mismatch")
    return embedded, np.arange(embedded.shape[1])[None, :], np.array([embedded.shape[1]])


def forward_embedded(model: FrozenClassifier, embedded_seq) -> np.ndarray:
    """Logits for an already-embedded sequence (d x L)."""
    return forward(model.params, *_one_sequence(model, embedded_seq))[0][0]


def forward_tokens(model: FrozenClassifier, tokens) -> np.ndarray:
    """Logits for a source-token index sequence."""
    ids, lengths = pad([tuple(tokens)], model.embeddings.vocab_size)
    return forward(model.params, model.embeddings.table, ids, lengths)[0][0]


def input_gradient(model: FrozenClassifier, embedded_seq, target_class: int) -> np.ndarray:
    """Gradient of cross-entropy at target_class with respect to the input."""
    if not model.frozen:
        raise ConfigError("input_gradient requires a frozen model")
    batch = _one_sequence(model, embedded_seq)
    if not 0 <= target_class < model.params.num_classes:
        raise IndexError(f"class {target_class} out of range")
    return gradient(model.params, *batch, np.array([target_class]), _cross_entropy_grad)[1]


def _freeze(embeddings, params, seed) -> FrozenClassifier:
    table = embeddings.copy()
    table.flags.writeable = False
    weights = {}
    for name, arr in params.weights.items():
        arr = arr.copy()
        arr.flags.writeable = False
        weights[name] = arr
    return FrozenClassifier(
        embeddings=EmbeddingTable(table=table),
        params=replace(params, weights=weights),
        frozen=True,
        seed=seed,
    )


def train_source(train, config: TrainConfig, seed: int, valid=None):
    """Train embeddings and classifier jointly with mini-batch SGD, then freeze.

    Returns the frozen model and a report with train/valid accuracy plus the
    majority-class baseline of the training split.
    """
    if len(train.sequences) == 0:
        raise ConfigError("empty training set")
    num_classes = len(train.class_names)
    if len(set(train.labels)) < 2:
        raise ConfigError("training data has fewer than 2 classes")

    rng = np.random.default_rng(seed)
    vocab_size = len(train.vocab)
    d, hidden = config.embed_dim, config.hidden_dim
    table = rng.uniform(-0.1, 0.1, size=(d, vocab_size))
    weights = _init_weights(config.architecture, d, hidden, num_classes, rng)
    params = ClassifierParams(
        architecture=config.architecture, weights=weights, num_classes=num_classes
    )
    ids, lengths = pad(train.sequences, vocab_size)
    labels = np.asarray(train.labels)

    n = len(train.sequences)
    lr = config.learning_rate
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            _, dtable, grads = gradient(params, table, ids[batch], lengths[batch],
                                        labels[batch], _cross_entropy_grad, weight_grads=True)
            scale = lr / len(batch)
            for name in weights:
                weights[name] -= scale * grads[name]
            table -= scale * dtable

    if np.any(np.linalg.norm(table, axis=0) == 0.0):
        raise NumericError("training produced a zero embedding column")

    model = _freeze(table, params, seed)
    report = {
        "train_accuracy": evaluate_source(model, train),
        "majority_class_accuracy": train.majority_class_accuracy(),
    }
    if valid is not None:
        report["valid_accuracy"] = evaluate_source(model, valid)
    return model, report


def evaluate_source(model: FrozenClassifier, dataset) -> float:
    """Plain accuracy of the frozen model on a source-task dataset."""
    ids, lengths = pad(dataset.sequences, model.embeddings.vocab_size)
    predicted = predict(model.params, model.embeddings.table, ids, lengths).argmax(axis=1)
    return int(np.count_nonzero(predicted == np.asarray(dataset.labels))) / lengths.size


def save_checkpoint(model: FrozenClassifier, path) -> None:
    """Serialize a frozen model to JSON with bit-exact float round-trip."""
    doc = {
        "format_version": FORMAT_VERSION,
        "architecture": model.params.architecture,
        "d": model.embeddings.dim,
        "vocab_size": model.embeddings.vocab_size,
        "num_classes": model.params.num_classes,
        "seed": model.seed,
        "embeddings": model.embeddings.table.ravel().tolist(),
        "weights": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in sorted(model.params.weights.items())
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_checkpoint(path) -> FrozenClassifier:
    doc = read_json(path)
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {doc.get('format_version')}")
    table = np.array(doc["embeddings"]).reshape(doc["d"], doc["vocab_size"])
    weights = {
        name: np.array(spec["data"]).reshape(spec["shape"])
        for name, spec in doc["weights"].items()
    }
    params = ClassifierParams(
        architecture=doc["architecture"],
        weights=weights,
        num_classes=doc["num_classes"],
    )
    return _freeze(table, params, doc["seed"])
