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
vocabulary embedding E and runs a dataset, a batch or a whole split, through
it: `bag_mlp` its per-row token counts and `birnn` its right-padded token ids
(both built once, in `data`), with no padding mask and nothing kept.
`gradient` runs the same arithmetic, keeping what the walk back needs, and
walks back through the same table to dE, plus weight gradients only for
source training. `birnn` scores one direction after the other, but keeps by
stepping both directions together, time-major, over their stacked tables;
each product and sum is the one that scoring computes, so the two agree bit
for bit. These two are the frozen model's whole interface.
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


def _predict_bag_mlp(w, vocab_embedding, dataset, keep=False):
    table = vocab_embedding.T @ w["w1"].T  # row v: w1 @ E[:, v]
    counts, lengths = dataset.counts, dataset.lengths
    (n, vocab), hidden = counts.shape, table.shape[1]
    h, logits = np.empty((n, hidden)), np.empty((n, len(w["b2"])))
    # a block's counts, cast to float64, fit in N x h or in the V x h table, so
    # a batch, or a split over a small vocabulary, pools in one block; the head
    # runs per block too, as BLAS can round its rows otherwise at another size
    rows = max(hidden, n * hidden // max(vocab, 1))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        state = np.matmul(counts[block], table, out=h[block])
        state /= lengths[block, None]
        state += w["b1"]
        logits[block] = np.tanh(state, out=state) @ w["w2"].T + w["b2"]
    return logits, (counts, lengths, h) if keep else None


def _backprop_bag_mlp(w, vocab_embedding, saved, dlogits, weight_grads):
    counts, lengths, h = saved
    da1 = (dlogits @ w["w2"]) * (1.0 - h * h)
    dtable = counts.T @ (da1 / lengths[:, None])  # V x h
    dvocab = w["w1"].T @ dtable.T
    if not weight_grads:
        return dvocab, None
    return dvocab, {"w2": dlogits.T @ h, "b2": dlogits.sum(axis=0),
                    "w1": dtable.T @ vocab_embedding.T, "b1": da1.sum(axis=0)}


def _predict_birnn(w, vocab_embedding, dataset, keep=False):
    ids, lengths = dataset.ids, dataset.lengths
    # rows sorted longest first, so the rows live at step k are the first live[k]
    order = np.argsort(-lengths, kind="stable")
    live = np.count_nonzero(lengths[:, None] > np.arange(lengths.max()), axis=0).tolist()
    tables = [vocab_embedding.T @ w[f"wx_{side}"].T + w[f"b_{side}"] for side in "fb"]
    if keep:
        final, saved = _kept_birnn(w, tables, ids, lengths, order, live)
    else:
        final, saved = _scored_birnn(w, tables, ids, lengths, order, live), None
    logits = np.empty((len(ids), len(w["b_out"])))
    logits[order] = final @ w["w_out"].T + w["b_out"]
    return logits, saved


def _scored_birnn(w, tables, ids, lengths, order, live):
    """Both directions' final states (N x 2h), one direction after the other,
    gathering each step's tokens as it goes; the backward direction reads each
    row's ids from its last one. Stepping the directions together, as the
    kept pass does, would hold more than a few N x h arrays here, and at the
    row counts scoring sees a step costs arithmetic, not calls."""
    flat, first = ids.ravel(), order * ids.shape[1]
    final = []
    for table, wh, start, step in zip(tables, (w["wh_f"], w["wh_b"]),
                                      (first, first + lengths[order] - 1), (1, -1)):
        h = np.zeros((len(ids), len(wh)))
        for k, n in enumerate(live):
            state = h[:n] @ wh.T
            state += table.take(flat[start[:n] + step * k], axis=0)
            np.tanh(state, out=h[:n])
        final.append(h)
    return np.concatenate(final, axis=1)


def _kept_birnn(w, tables, ids, lengths, order, live):
    """Both directions stepped together, keeping what the walk back reads.

    The tables stack into one (2V + 1) x h input-term table: row 0 is zero,
    forward token v is row 1 + v and backward token v row 1 + V + v, so a
    token past E's columns indexes past the table, as in scoring. `tokens`
    (2 x L x N, time-major, rows longest first) holds each step's row of it,
    the zero row at a dead slot. `states[:, k + 1, :n]` holds the live rows'
    states after step k; states[:, 0] and dead slots stay 0.
    """
    vocab, hidden = len(tables[0]), len(w["wh_f"])
    table = np.concatenate([np.zeros((1, hidden)), *tables])
    lengths = lengths[order]
    steps = np.arange(len(live))[:, None]
    back = lengths - 1 - steps  # L x N, the backward direction's slot; < 0 when dead
    flat, first = ids.ravel(), order * ids.shape[1]
    tokens = np.stack([flat.take(first + steps) + 1,
                       flat.take(first + np.maximum(back, 0)) + 1 + vocab])
    tokens[:, back < 0] = 0
    states = np.zeros((2, len(live) + 1, len(ids), hidden))
    np.tanh(table.take(tokens[:, 0], axis=0), out=states[:, 1])  # step 0 starts from state 0
    wh = np.stack([w["wh_f"], w["wh_b"]])
    # each wh.T stays a transposed view: a contiguous copy rounds otherwise
    wh_t = wh.transpose(0, 2, 1)
    for k, n in enumerate(live[1:], 1):
        state = np.matmul(states[:, k, :n], wh_t, out=states[:, k + 1, :n])
        state += table.take(tokens[:, k, :n], axis=0)
        np.tanh(state, out=state)
    final = np.concatenate(states[:, lengths, np.arange(len(ids))], axis=1)
    return final, (order, live, final, tokens, states, wh)


def _backprop_birnn(w, vocab_embedding, saved, dlogits, weight_grads):
    order, live, final, tokens, states, wh = saved
    dlogits = dlogits[order]  # rows longest first, as the states
    vocab, hidden = vocab_embedding.shape[1], states.shape[3]
    dh = (dlogits @ w["w_out"]).reshape(-1, 2, hidden).transpose(1, 0, 2).copy()
    # pre-activation gradients: tanh' at each live step's state, times dh; the
    # product at step 0 would feed a step that does not exist
    da = np.square(states[:, 1:])
    np.subtract(1.0, da, out=da)
    for k in range(len(live) - 1, 0, -1):
        n = live[k]
        da[:, k, :n] *= dh[:, :n]
        np.matmul(da[:, k, :n], wh, out=dh[:, :n])
    da[:, 0] *= dh
    # scatter-add each step into its token's row of the stacked input-term
    # table; dead slots land in the zero row, which is dropped
    size = (2 * vocab + 1) * hidden
    slots = np.arange(size).reshape(-1, hidden).take(tokens, axis=0)
    dtable = np.bincount(slots.ravel(), weights=da.ravel(), minlength=size).reshape(-1, hidden)
    dtables = dtable[1:vocab + 1], dtable[vocab + 1:]
    dvocab = w["wx_f"].T @ dtables[0].T + w["wx_b"].T @ dtables[1].T
    if not weight_grads:
        return dvocab, None
    da[tokens == 0] = 0.0  # tensordot reads every slot
    grads = {}
    for side, dtable, da_side, states_side in zip("fb", dtables, da, states):
        grads[f"wx_{side}"] = dtable.T @ vocab_embedding.T
        grads[f"wh_{side}"] = np.tensordot(da_side, states_side[:-1], axes=([0, 1], [0, 1]))
        grads[f"b_{side}"] = dtable.sum(axis=0)
    return dvocab, {**grads, "w_out": dlogits.T @ final, "b_out": dlogits.sum(axis=0)}


_PASSES = {"bag_mlp": (_predict_bag_mlp, _backprop_bag_mlp),
           "birnn": (_predict_birnn, _backprop_birnn)}


def predict(params: ClassifierParams, vocab_embedding, dataset) -> np.ndarray:
    """Logits (N x C) of a dataset's rows under a vocabulary embedding E (d x V).

    Token v embeds as E[:, v]; slots past a sequence's length never reach its
    logits. A token reaches the model only through its first layer, so that
    layer is folded into a V x h table once. `bag_mlp` pools it through the
    dataset's per-row token `counts`, in blocks of rows whose counts fit in
    N x h or in the V x h table; `birnn` steps the padded `ids` longest row
    first, one direction after the other, so each step updates only the
    leading rows still live. Memory stays the table and a few N x h arrays,
    never N x L x d.
    """
    return _PASSES[params.architecture][0](params.weights, vocab_embedding, dataset)[0]


def gradient(params: ClassifierParams, vocab_embedding, dataset, loss_grad,
             weight_grads=False):
    """Summed loss, dE and (if asked) weight gradients of a dataset, such as a batch.

    The forward half is `predict`'s pass, bit for bit, keeping what the walk
    back needs: `bag_mlp` its hidden states, `birnn` each step's states
    (2 x L x N x h, longest row first), both directions stepped together and
    walked back together. `loss_grad(logits, labels)` gives the summed
    loss at the dataset's labels and its gradient with respect to the
    logits. Both halves go through the folded table, so dE = W^T dtable^T.
    """
    forward, backprop = _PASSES[params.architecture]
    logits, saved = forward(params.weights, vocab_embedding, dataset, keep=True)
    loss, dlogits = loss_grad(logits, dataset.labels)
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
    n = len(train)
    lr = config.learning_rate
    for epoch in range(1, config.epochs + 1):
        shuffled, loss = train.take(rng.permutation(n)), 0.0
        # a step that overflows is caught once, by the check after the epoch
        with np.errstate(all="ignore"):
            for start in range(0, n, config.batch_size):
                batch = shuffled.take(slice(start, start + config.batch_size))
                part, dtable, grads = gradient(params, table, batch, _cross_entropy_grad,
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
    logits = predict(model.params, model.embeddings, dataset)
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
        fh.write(json.dumps(doc, sort_keys=True))  # dumps, unlike dump, uses the C encoder


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
