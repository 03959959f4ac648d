"""A small frozen sequence classifier with input-embedding gradients.

This is the pretrained source model of the pipeline: trainable end to end on
a source task, then frozen. After freezing, only forward evaluation and
gradients with respect to the *input embeddings* are available; weights are
never mutated again (the arrays are made read-only).

Two architectures:
  bag_mlp - mean-pool embeddings -> tanh hidden layer -> linear head
  birnn   - single bidirectional tanh recurrence, concatenated final states
            -> linear head

Gradients take one path, for training and reprogramming: `forward` embeds
the right-padded token ids of a dataset (padded once, in `data`) through a
vocabulary embedding E and returns the logits with its cache; `backward`
consumes the cache and returns dE, plus weight gradients only for source
training. `gradient` runs the two over a batch of any size. Scoring takes
`predict`, which computes the same logits in one pass over a whole split:
it folds the first layer into a per-token table, keeps no cache and needs
no padding mask. These three are the frozen model's whole interface.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .data import read_document
from .errors import ConfigError, NumericError, ShapeError
from .numerics import softmax

FORMAT_VERSION = 1
# Sequences per `forward`/`backward` call in `gradient`; it bounds their cache's memory.
MAX_BATCH = 32


@dataclass(frozen=True)
class ClassifierParams:
    architecture: str
    weights: dict
    num_classes: int


@dataclass(frozen=True)
class FrozenClassifier:
    embeddings: np.ndarray  # read-only d x V; column i embeds source token i
    params: ClassifierParams
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


def _weight_shapes(architecture, d, hidden, num_classes):
    """The name and shape of each weight of an architecture; the first is hidden x d."""
    if architecture == "bag_mlp":
        return {
            "w1": (hidden, d),
            "b1": (hidden,),
            "w2": (num_classes, hidden),
            "b2": (num_classes,),
        }
    return {
        "wx_f": (hidden, d),
        "wh_f": (hidden, hidden),
        "b_f": (hidden,),
        "wx_b": (hidden, d),
        "wh_b": (hidden, hidden),
        "b_b": (hidden,),
        "w_out": (num_classes, 2 * hidden),
        "b_out": (num_classes,),
    }


def _init_weights(architecture, d, hidden, num_classes, rng):
    shapes = _weight_shapes(architecture, d, hidden, num_classes)
    return {name: rng.uniform(-0.1, 0.1, size=shape) for name, shape in shapes.items()}


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


def _predict_bag_mlp(w, vocab_embedding, ids, lengths):
    table = vocab_embedding.T @ w["w1"].T  # row v: w1 @ E[:, v]
    (n, width), vocab = ids.shape, len(table)
    logits = np.empty((n, len(w["b2"])))
    rows = max(1, n * table.shape[1] // vocab)  # a block's rows x V counts fit in N x h
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        count = len(lengths[block])
        slots = ids[block] + vocab * np.arange(count)[:, None]  # (row, token) -> one bin
        freq = np.bincount(slots[np.arange(width) < lengths[block, None]],
                           minlength=count * vocab).reshape(count, vocab)
        h = freq @ table
        h /= lengths[block, None]
        h += w["b1"]
        logits[block] = np.tanh(h, out=h) @ w["w2"].T + w["b2"]
    return logits


def _predict_birnn(w, vocab_embedding, ids, lengths):
    # rows sorted longest first, so the rows live at step k are the first live[k];
    # the backward direction reads each row's ids from its last one
    order = np.argsort(-lengths, kind="stable")
    live = np.count_nonzero(lengths[:, None] > np.arange(lengths.max()), axis=0)
    flat, first = ids.ravel(), order * ids.shape[1]
    final = []
    for side, start, step in (("f", first, 1), ("b", first + lengths[order] - 1, -1)):
        table = vocab_embedding.T @ w[f"wx_{side}"].T + w[f"b_{side}"]  # input terms
        wh = w[f"wh_{side}"]
        h = np.zeros((len(ids), len(wh)))
        for k, n in enumerate(live):
            state = h[:n] @ wh.T
            state += table.take(flat[start[:n] + step * k], axis=0)
            np.tanh(state, out=h[:n])
        final.append(h)
    logits = np.empty((len(ids), len(w["b_out"])))
    logits[order] = np.concatenate(final, axis=1) @ w["w_out"].T + w["b_out"]
    return logits


_PREDICT = {"bag_mlp": _predict_bag_mlp, "birnn": _predict_birnn}


def predict(params: ClassifierParams, vocab_embedding, ids, lengths) -> np.ndarray:
    """`forward`'s logits of a padded batch of any size, in one pass that keeps no cache.

    A token reaches the model only through its first layer, so that layer is
    folded into a V x h table once. `bag_mlp` pools it through per-row token
    counts, in blocks of rows whose counts fit in N x h; `birnn` steps the
    rows longest first, so each step updates only the leading rows still
    live. Memory stays a few N x h arrays, never N x L x d.
    """
    return _PREDICT[params.architecture](params.weights, vocab_embedding, ids, lengths)


def gradient(params: ClassifierParams, vocab_embedding, ids, lengths, labels, loss_grad,
             weight_grads=False):
    """Summed loss, dE and (if asked) weight gradients of a padded batch of any size.

    `loss_grad(logits, labels)` gives the summed loss of a slice of at most
    MAX_BATCH sequences and its gradient with respect to their logits.
    """
    loss, dvocab, grads = 0.0, np.zeros(vocab_embedding.shape), None
    for start in range(0, lengths.size, MAX_BATCH):
        rows = slice(start, start + MAX_BATCH)
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


def _read_only(arr) -> np.ndarray:
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _freeze(embeddings, params, seed) -> FrozenClassifier:
    """The model over read-only copies of the embeddings and weights."""
    weights = {name: _read_only(arr) for name, arr in params.weights.items()}
    return FrozenClassifier(_read_only(embeddings), replace(params, weights=weights), seed)


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
    ids, lengths, labels = train.ids, train.lengths, train.label_array

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
    if len(dataset) == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    if len(dataset.vocab) != model.embeddings.shape[1]:
        raise ShapeError("dataset vocabulary size does not match the model's")
    logits = predict(model.params, model.embeddings, dataset.ids, dataset.lengths)
    predicted = logits.argmax(axis=1)
    return int(np.count_nonzero(predicted == dataset.label_array)) / len(dataset)


def save_checkpoint(model: FrozenClassifier, path) -> None:
    """Serialize a frozen model to JSON with bit-exact float round-trip."""
    d, vocab_size = model.embeddings.shape
    doc = {
        "format_version": FORMAT_VERSION,
        "architecture": model.params.architecture,
        "d": d,
        "vocab_size": vocab_size,
        "num_classes": model.params.num_classes,
        "seed": model.seed,
        "embeddings": model.embeddings.ravel().tolist(),
        "weights": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in sorted(model.params.weights.items())
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_checkpoint(path) -> FrozenClassifier:
    """Read a `save_checkpoint` file; a malformed one is a DataFormatError naming it.

    The weights must have the names and shapes `_init_weights` builds for the
    architecture, d, hidden size and class count, and every value must be finite.
    """
    with read_document(path, "checkpoint", FORMAT_VERSION) as doc:
        architecture = doc["architecture"]
        if architecture not in _FORWARD:
            raise ValueError(f"unknown architecture {architecture!r}")
        table = np.array(doc["embeddings"], dtype=np.float64).reshape(
            doc["d"], doc["vocab_size"]
        )
        weights = {
            name: np.array(spec["data"], dtype=np.float64).reshape(spec["shape"])
            for name, spec in doc["weights"].items()
        }
        first = next(iter(_weight_shapes(architecture, 0, 0, 0)))  # hidden x d
        hidden = len(weights[first])
        expected = _weight_shapes(architecture, doc["d"], hidden, doc["num_classes"])
        shapes = {name: arr.shape for name, arr in weights.items()}
        if shapes != expected:
            raise ValueError(f"weight shapes {shapes}, expected {expected}")
        if not all(np.isfinite(arr).all() for arr in (table, *weights.values())):
            raise ValueError("non-finite embedding or weight")
        params = ClassifierParams(
            architecture=architecture,
            weights=weights,
            num_classes=doc["num_classes"],
        )
        return _freeze(table, params, doc["seed"])
