"""A small frozen sequence classifier with input-embedding gradients.

This is the pretrained source model of the pipeline: trainable end to end on
a source task, then frozen. After freezing, only forward evaluation and
gradients with respect to the *input embeddings* are available; weights are
never mutated again (the arrays are made read-only).

Two architectures:
  bag_mlp - mean-pool embeddings -> tanh hidden layer -> linear head
  birnn   - single bidirectional tanh recurrence, concatenated final states
            -> linear head

Each architecture has one pass. A token reaches the model only through its
first layer, so `predict` folds that layer into a V x h table over a
vocabulary embedding E and runs the right-padded token ids of a batch or a
whole split (padded once, in `data`) through it, with no padding mask and
nothing kept. `gradient` runs the same pass, keeping what the walk back
needs, and walks back through the same table to dE, plus weight gradients
only for source training. These two are the frozen model's whole interface.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .data import read_array, read_document
from .errors import ConfigError, NumericError, ShapeError
from .numerics import softmax

FORMAT_VERSION = 1


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
        if self.architecture not in _PASSES:
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


def _predict_bag_mlp(w, vocab_embedding, ids, lengths, keep=False):
    table = vocab_embedding.T @ w["w1"].T  # row v: w1 @ E[:, v]
    (n, width), (vocab, hidden) = ids.shape, table.shape
    logits = np.empty((n, len(w["b2"])))
    # a block's rows x V counts fit in N x h, or in the V x h table itself, so a
    # training batch pools in one block; `gradient` blocks as `predict` does
    rows = max(hidden, n * hidden // vocab)
    counts, states = [], []
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        count = len(lengths[block])
        token = ids[block][np.arange(width) < lengths[block, None]]
        if token.max(initial=0) >= vocab:  # it would count as a token of the next row
            raise IndexError(f"token id {token.max()} out of range for {vocab} tokens")
        # one bin for each (row, token) pair
        slots = token + vocab * np.repeat(np.arange(count), lengths[block])
        freq = np.bincount(slots, minlength=count * vocab).reshape(count, vocab)
        h = freq @ table
        h /= lengths[block, None]
        h += w["b1"]
        logits[block] = np.tanh(h, out=h) @ w["w2"].T + w["b2"]
        if keep:
            counts.append(freq)
            states.append(h)
    if not keep:
        return logits, None
    return logits, (np.concatenate(counts), lengths, np.concatenate(states))


def _backprop_bag_mlp(w, vocab_embedding, saved, dlogits, weight_grads):
    counts, lengths, h = saved
    da1 = (dlogits @ w["w2"]) * (1.0 - h * h)
    dtable = counts.T @ (da1 / lengths[:, None])  # V x h
    dvocab = w["w1"].T @ dtable.T
    if not weight_grads:
        return dvocab, None
    return dvocab, {"w2": dlogits.T @ h, "b2": dlogits.sum(axis=0),
                    "w1": dtable.T @ vocab_embedding.T, "b1": da1.sum(axis=0)}


def _predict_birnn(w, vocab_embedding, ids, lengths, keep=False):
    # rows sorted longest first, so the rows live at step k are the first live[k];
    # the backward direction reads each row's ids from its last one
    order = np.argsort(-lengths, kind="stable")
    live = np.count_nonzero(lengths[:, None] > np.arange(lengths.max()), axis=0).tolist()
    flat, first = ids.ravel(), order * ids.shape[1]
    final, sides = [], []
    for side, start, step in (("f", first, 1), ("b", first + lengths[order] - 1, -1)):
        table = vocab_embedding.T @ w[f"wx_{side}"].T + w[f"b_{side}"]  # input terms
        wh = w[f"wh_{side}"]
        h = np.zeros((len(ids), len(wh)))
        # kept: tokens[k, :n] and states[k + 1, :n] hold the live rows' token
        # and state at step k; dead rows keep token 0 and state 0
        tokens = np.zeros((len(live), len(ids)), dtype=ids.dtype) if keep else None
        states = np.zeros((len(live) + 1, *h.shape)) if keep else None
        for k, n in enumerate(live):
            token = flat[start[:n] + step * k]
            state = h[:n] @ wh.T
            state += table.take(token, axis=0)
            np.tanh(state, out=h[:n])
            if keep:
                tokens[k, :n] = token
                states[k + 1, :n] = h[:n]
        final.append(h)
        sides.append((side, tokens, states))
    final = np.concatenate(final, axis=1)
    logits = np.empty((len(ids), len(w["b_out"])))
    logits[order] = final @ w["w_out"].T + w["b_out"]
    return logits, (order, live, final, sides) if keep else None


def _backprop_birnn(w, vocab_embedding, saved, dlogits, weight_grads):
    order, live, final, sides = saved
    dlogits = dlogits[order]  # rows longest first, as the states
    alive = (np.arange(len(order)) < np.array(live)[:, None])[:, :, None]  # step x row x 1
    vocab, dvocab, grads = vocab_embedding.shape[1], 0.0, {}
    for dh, (side, tokens, states) in zip(np.hsplit(dlogits @ w["w_out"], 2), sides):
        wh, hidden, dh = w[f"wh_{side}"], states.shape[2], dh.copy()
        # pre-activation gradients: tanh' at each live step's state, times dh
        da = np.square(states[1:])
        np.subtract(1.0, da, out=da)
        da *= alive
        for k, n in reversed(list(enumerate(live))):
            da[k, :n] *= dh[:n]
            np.matmul(da[k, :n], wh, out=dh[:n])
        # scatter-add each step into its token's row of the input-term table
        slots = (tokens[:, :, None] * hidden + np.arange(hidden)).ravel()
        dtable = np.bincount(slots, weights=da.ravel(),
                             minlength=vocab * hidden).reshape(vocab, hidden)
        dvocab = dvocab + w[f"wx_{side}"].T @ dtable.T
        if weight_grads:
            grads[f"wx_{side}"] = dtable.T @ vocab_embedding.T
            grads[f"wh_{side}"] = np.tensordot(da, states[:-1], axes=([0, 1], [0, 1]))
            grads[f"b_{side}"] = dtable.sum(axis=0)
    if not weight_grads:
        return dvocab, None
    return dvocab, {**grads, "w_out": dlogits.T @ final, "b_out": dlogits.sum(axis=0)}


_PASSES = {"bag_mlp": (_predict_bag_mlp, _backprop_bag_mlp),
           "birnn": (_predict_birnn, _backprop_birnn)}


def predict(params: ClassifierParams, vocab_embedding, ids, lengths) -> np.ndarray:
    """Logits (N x C) of right-padded token ids (N x L) under an embedding E (d x V).

    Token v embeds as E[:, v]; slots past a sequence's length never reach its
    logits. A token reaches the model only through its first layer, so that
    layer is folded into a V x h table once. `bag_mlp` pools it through
    per-row token counts, in blocks of rows whose counts fit in N x h or in
    the V x h table; `birnn` steps the rows longest first, so each step
    updates only the leading rows still live. Memory stays the table and a
    few N x h arrays, never N x L x d.
    """
    return _PASSES[params.architecture][0](params.weights, vocab_embedding, ids, lengths)[0]


def gradient(params: ClassifierParams, vocab_embedding, ids, lengths, labels, loss_grad,
             weight_grads=False):
    """Summed loss, dE and (if asked) weight gradients of a padded batch.

    The forward half is `predict`'s pass, bit for bit, keeping what the walk
    back needs: `bag_mlp` its token counts and hidden states, `birnn` each
    step's live states (L x N x h per direction). `loss_grad(logits, labels)`
    gives the batch's summed loss and its gradient with respect to the logits.
    Both halves go through the folded table, so dE = W^T dtable^T.
    """
    forward, backprop = _PASSES[params.architecture]
    logits, saved = forward(params.weights, vocab_embedding, ids, lengths, keep=True)
    loss, dlogits = loss_grad(logits, labels)
    dvocab, grads = backprop(params.weights, vocab_embedding, saved, dlogits, weight_grads)
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
    if len(train) == 0:
        raise ConfigError("empty training set")
    num_classes = len(train.class_names)
    if np.count_nonzero(np.bincount(train.labels)) < 2:
        raise ConfigError("training data has fewer than 2 classes")

    rng = np.random.default_rng(seed)
    vocab_size = len(train.vocab)
    d, hidden = config.embed_dim, config.hidden_dim
    table = rng.uniform(-0.1, 0.1, size=(d, vocab_size))
    weights = _init_weights(config.architecture, d, hidden, num_classes, rng)
    params = ClassifierParams(
        architecture=config.architecture, weights=weights, num_classes=num_classes
    )
    ids, lengths, labels = train.ids, train.lengths, train.labels

    n = len(train)
    lr = config.learning_rate
    for epoch in range(1, config.epochs + 1):
        order, loss = rng.permutation(n), 0.0
        # a step that overflows is caught once, by the check after the epoch
        with np.errstate(all="ignore"):
            for start in range(0, n, config.batch_size):
                batch = order[start : start + config.batch_size]
                part, dtable, grads = gradient(params, table, ids[batch], lengths[batch],
                                               labels[batch], _cross_entropy_grad,
                                               weight_grads=True)
                loss += part
                scale = lr / len(batch)
                for name in weights:
                    weights[name] -= scale * grads[name]
                table -= scale * dtable
        if not all(np.isfinite(arr).all() for arr in (loss, table, *weights.values())):
            raise NumericError(f"source training diverged in epoch {epoch}: non-finite loss, "
                               f"embedding or weight (learning_rate {lr:g})")

    if not table.any(axis=0).all():
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
    return int(np.count_nonzero(predicted == dataset.labels)) / len(dataset)


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

    Each array must hold its recorded sizes' worth of finite values
    (`read_array`), and the weights must have the names and shapes
    `_init_weights` builds for the architecture, d, hidden size and class count.
    """
    with read_document(path, "checkpoint", FORMAT_VERSION) as doc:
        architecture = doc["architecture"]
        if architecture not in _PASSES:
            raise ValueError(f"unknown architecture {architecture!r}")
        table = read_array(doc["embeddings"], (doc["d"], doc["vocab_size"]))
        weights = {name: read_array(spec["data"], spec["shape"])
                   for name, spec in doc["weights"].items()}
        first = next(iter(_weight_shapes(architecture, 0, 0, 0)))  # hidden x d
        hidden = len(weights[first])
        expected = _weight_shapes(architecture, doc["d"], hidden, doc["num_classes"])
        shapes = {name: arr.shape for name, arr in weights.items()}
        if shapes != expected:
            raise ValueError(f"weight shapes {shapes}, expected {expected}")
        params = ClassifierParams(
            architecture=architecture,
            weights=weights,
            num_classes=doc["num_classes"],
        )
        return _freeze(table, params, doc["seed"])
