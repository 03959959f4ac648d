import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reprogram.classifier import (
    ClassifierParams,
    TrainConfig,
    _PASSES,
    _cross_entropy_grad,
    evaluate_source,
    gradient,
    load_checkpoint,
    predict,
    save_checkpoint,
    train_source,
)
from reprogram.errors import ConfigError, ShapeError
from reprogram.numerics import softmax
from reprogram.data import SequenceDataset, SplitSpec, Vocab, split, synth_tasks


def make_model(rng, d=6, vocab=10, hidden=5, classes=2, architecture="bag_mlp"):
    """Small random frozen model for direct tests."""
    from reprogram.classifier import _freeze, _init_weights

    table = rng.uniform(-0.5, 0.5, size=(d, vocab))
    weights = _init_weights(architecture, d, hidden, classes, rng)
    for name in weights:
        weights[name] = rng.uniform(-0.5, 0.5, size=weights[name].shape)
    params = ClassifierParams(architecture=architecture, weights=weights,
                              num_classes=classes)
    return _freeze(table, params, seed=0)


def as_dataset(ids, lengths, vocab, labels=None):
    """A dataset of the live slots of padded `ids` rows over `vocab` tokens,
    labelled 0 unless `labels` are given."""
    ids, lengths = np.asarray(ids), np.asarray(lengths)
    labels = np.zeros(len(lengths), dtype=np.int32) if labels is None else np.asarray(labels)
    classes = tuple(range(max(2, int(labels.max(initial=0)) + 1)))
    return SequenceDataset.from_tokens(ids[np.arange(ids.shape[1]) < lengths[:, None]], lengths,
                                       labels, Vocab.from_tokens(range(vocab)), classes)


def token_logits(model, tokens):
    """Logits of one source-token sequence, a batch of one over the model's table."""
    row = as_dataset([tokens], [len(tokens)], model.embeddings.shape[1])
    return predict(model.params, model.embeddings, row)[0]


def pooled_logits(model, tokens):
    """`bag_mlp` logits of one token sequence, pooled in `predict`'s order: the
    gathered embedding columns enter through the folded table, once per count."""
    w, embeddings = model.params.weights, model.embeddings
    counts = np.bincount(tokens, minlength=embeddings.shape[1])[None, :]
    h = counts @ (embeddings.T @ w["w1"].T)
    h = np.tanh(h / len(tokens) + w["b1"])
    return (h @ w["w2"].T + w["b2"])[0]


def one_sequence(embedded, target=0):
    """An embedded sequence (d x L) labelled `target`, as a dataset of one row
    whose vocabulary embedding E is the sequence itself, so that dE is the
    input gradient."""
    length = embedded.shape[1]
    return embedded, as_dataset(np.arange(length)[None, :], [length], length, [target])


def sequence_logits(params, embedded):
    return predict(params, *one_sequence(embedded))[0]


def input_gradient(model, embedded, target):
    """`gradient` of the cross-entropy at `target` with respect to the embedded sequence."""
    return gradient(model.params, *one_sequence(embedded, target), _cross_entropy_grad)[1]


def model_digest(model):
    h = hashlib.sha256()
    h.update(model.embeddings.tobytes())
    for name in sorted(model.params.weights):
        h.update(model.params.weights[name].tobytes())
    return h.hexdigest()


class TestForward:
    def test_zero_weights_uniform(self):
        params = ClassifierParams(
            architecture="bag_mlp",
            weights={"w1": np.zeros((4, 3)), "b1": np.zeros(4),
                     "w2": np.zeros((2, 4)), "b2": np.zeros(2)},
            num_classes=2,
        )
        logits = sequence_logits(params, np.zeros((3, 4)))
        assert np.allclose(softmax(logits[None, :]), [[0.5, 0.5]])

    def test_hand_computed_two_layer(self):
        w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        w2 = np.array([[1.0, -1.0], [0.5, 0.5]])
        params = ClassifierParams(
            architecture="bag_mlp",
            weights={"w1": w1, "b1": np.array([0.1, -0.1]),
                     "w2": w2, "b2": np.array([0.0, 0.2])},
            num_classes=2,
        )
        x = np.array([[0.3], [0.7]])
        h = np.tanh([0.4, 0.6])
        expected = [h[0] - h[1], 0.5 * h[0] + 0.5 * h[1] + 0.2]
        assert np.allclose(sequence_logits(params, x), expected)

    def test_bag_mlp_permutation_invariant(self):
        rng = np.random.default_rng(0)
        model = make_model(rng)
        seq = rng.normal(size=(6, 7))
        logits = sequence_logits(model.params, seq)
        perm = rng.permutation(7)
        assert np.allclose(sequence_logits(model.params, seq[:, perm]), logits)

    def test_tokens_equals_gathered_embeddings(self):
        rng = np.random.default_rng(2)
        model = make_model(rng)
        for _ in range(10):
            seq = list(rng.integers(0, 10, size=rng.integers(1, 8)))
            assert np.array_equal(token_logits(model, seq), pooled_logits(model, seq))

    def test_token_out_of_range(self):
        # a dataset of 100 tokens has counts the model's 10-token table cannot pool
        rng = np.random.default_rng(3)
        model = make_model(rng)
        row = as_dataset([[0, 99]], [2], 100)
        with pytest.raises(ValueError, match="mismatch"):
            predict(model.params, model.embeddings, row)

    def test_birnn_token_without_a_column_rejected(self):
        # a token past E's columns is never read as some other token's terms
        rng = np.random.default_rng(3)
        model = make_model(rng, vocab=5, architecture="birnn")
        row = as_dataset([[0, 5, 1]], [3], 6)
        with pytest.raises(IndexError):
            predict(model.params, model.embeddings, row)
        with pytest.raises(IndexError):
            gradient(model.params, model.embeddings, row, _cross_entropy_grad)

    def test_evaluate_source_rejects_empty_or_foreign_dataset(self):
        rng = np.random.default_rng(3)
        model = make_model(rng)
        with pytest.raises(ConfigError):
            evaluate_source(model, SequenceDataset.from_sequences(
                (), (), Vocab.from_tokens(range(10)), ("x",)))
        dataset = SequenceDataset.from_sequences(((0, 4),), (1,), Vocab.from_tokens("ABCDE"),
                                                 ("x", "y"))
        with pytest.raises(ShapeError):
            evaluate_source(model, dataset)

    def test_birnn_forward_order_sensitive(self):
        rng = np.random.default_rng(4)
        model = make_model(rng, architecture="birnn")
        seq = rng.normal(size=(6, 5))
        flipped = seq[:, ::-1].copy()
        assert not np.allclose(sequence_logits(model.params, seq),
                               sequence_logits(model.params, flipped))


def central_difference(loss, arr, h=1e-6):
    """Central differences of loss() with respect to each entry of arr, perturbed in place."""
    fd = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        saved = arr[idx]
        arr[idx] = saved + h
        up = loss()
        arr[idx] = saved - h
        down = loss()
        arr[idx] = saved
        fd[idx] = (up - down) / (2 * h)
    return fd


def relative_error(analytic, fd):
    return np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)


def finite_difference(model, embedded, target):
    """Central differences of one sequence's cross-entropy at `target`."""
    embedded = embedded.copy()
    return central_difference(
        lambda: -np.log(softmax(sequence_logits(model.params, embedded)[None, :])[0, target]),
        embedded)


class TestInputGradient:
    @pytest.mark.parametrize("architecture", ["bag_mlp", "birnn"])
    def test_matches_finite_differences(self, architecture):
        rng = np.random.default_rng(5)
        for _ in range(10):
            model = make_model(rng, architecture=architecture)
            embedded = rng.normal(size=(6, int(rng.integers(1, 6))))
            target = int(rng.integers(2))
            analytic = input_gradient(model, embedded, target)
            fd = finite_difference(model, embedded, target)
            assert relative_error(analytic, fd) <= 1e-5
        # dE of a summed cross-entropy over the batches of `batch_cases`
        model = make_model(rng, architecture=architecture)
        for vocab_embedding, batch in batch_cases(rng, model):
            rows = np.arange(len(batch))

            def loss():
                p = softmax(predict(model.params, vocab_embedding, batch))
                return -np.log(p[rows, batch.labels]).sum()

            dvocab = gradient(model.params, vocab_embedding, batch, _cross_entropy_grad)[1]
            assert_absent_tokens_zero(dvocab, batch)
            vocab = model.embeddings.shape[1]
            fd = central_difference(loss, vocab_embedding[:, :vocab])
            assert relative_error(dvocab[:, :vocab], fd) <= 1e-5

    def test_near_one_hot_gradient_vanishes(self):
        rng = np.random.default_rng(6)
        model = make_model(rng)
        # scale the head so the target class saturates
        weights = dict(model.params.weights)
        w2 = weights["w2"].copy()
        w2[0, :] = 0.0
        w2[1, :] = 0.0
        b2 = np.array([40.0, 0.0])
        weights["w2"], weights["b2"] = w2, b2
        from reprogram.classifier import _freeze

        sat = _freeze(model.embeddings.copy(),
                      ClassifierParams("bag_mlp", weights, 2), 0)
        grad = input_gradient(sat, rng.normal(size=(6, 3)), 0)
        assert np.max(np.abs(grad)) <= 1e-12

    def test_class_out_of_range(self):
        rng = np.random.default_rng(7)
        model = make_model(rng)
        with pytest.raises(IndexError):
            input_gradient(model, np.zeros((6, 2)), 5)

    def test_many_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            model = make_model(rng, d=4, vocab=6, hidden=3)
            embedded = rng.normal(size=(4, int(rng.integers(1, 5))))
            target = int(rng.integers(2))
            analytic = input_gradient(model, embedded, target)
            fd = finite_difference(model, embedded, target)
            assert relative_error(analytic, fd) <= 1e-5


def mixed_length_batch(rng, model, lengths=(3, 1, 5, 2, 4), pads=4, used=None):
    """A two-class dataset over E = [table | pads columns of large values],
    whose extra tokens no live slot uses. Live slots draw from the first
    `used` tokens of the table (all of them by default)."""
    d, vocab = model.embeddings.shape
    extra = rng.normal(scale=1e3, size=(d, pads))
    vocab_embedding = np.hstack([model.embeddings, extra])
    lengths = np.array(lengths)
    ids = rng.integers(vocab, vocab + pads, size=(len(lengths), lengths.max()))
    for n, length in enumerate(lengths):
        ids[n, :length] = rng.integers(0, used or vocab, size=length)
    labels = rng.integers(2, size=len(lengths))
    return vocab_embedding, as_dataset(ids, lengths, vocab + pads, labels)


def batch_cases(rng, model):
    """Five rows of distinct lengths; and 70 rows, more than a 64-row batch, with
    length ties and length-1 rows, whose live slots leave two tokens absent."""
    lengths = rng.integers(1, 7, size=70)
    lengths[rng.choice(70, size=5, replace=False)] = 1
    vocab = model.embeddings.shape[1]
    return [mixed_length_batch(rng, model),
            mixed_length_batch(rng, model, lengths, used=vocab - 2)]


def assert_absent_tokens_zero(dvocab, batch):
    """dE is exactly zero in the column of every token no live slot holds."""
    live = batch.ids[np.arange(batch.ids.shape[1]) < batch.lengths[:, None]]
    absent = np.setdiff1d(np.arange(dvocab.shape[1]), live)
    assert absent.size and not dvocab[:, absent].any()


class TestPaddedBatch:
    @pytest.mark.parametrize("architecture", ["bag_mlp", "birnn"])
    def test_padding_invariance(self, architecture):
        rng = np.random.default_rng(11)
        model = make_model(rng, architecture=architecture)
        vocab_embedding, batch = mixed_length_batch(rng, model)
        logits = predict(model.params, vocab_embedding, batch)
        for n, length in enumerate(batch.lengths):
            single = sequence_logits(model.params, vocab_embedding[:, batch.ids[n, :length]])
            assert np.max(np.abs(logits[n] - single)) <= 1e-12

    @pytest.mark.parametrize("architecture", ["bag_mlp", "birnn"])
    def test_padded_slots_are_never_read(self, architecture):
        rng = np.random.default_rng(15)
        model = make_model(rng, architecture=architecture)
        vocab_embedding, batch = mixed_length_batch(rng, model)
        pads = np.arange(batch.ids.shape[1]) >= batch.lengths[:, None]
        args = model.params, vocab_embedding
        # an id out of range anywhere but a live slot is never looked up
        assert np.array_equal(predict(*args, replace(batch, ids=np.where(pads, 10**6, batch.ids))),
                              predict(*args, batch))

    @pytest.mark.parametrize("architecture", ["bag_mlp", "birnn"])
    def test_weight_gradients_match_finite_differences(self, architecture):
        rng = np.random.default_rng(12)
        model = make_model(rng, architecture=architecture)
        vocab = model.embeddings.shape[1]
        for vocab_embedding, batch in batch_cases(rng, model):
            weights = {name: arr.copy() for name, arr in model.params.weights.items()}
            params = ClassifierParams(architecture, weights, model.params.num_classes)
            # loss = sum(cotangent * logits), so the walk back starts from a known dlogits
            cotangent = rng.normal(size=(len(batch), model.params.num_classes))

            def linear(logits, labels):
                return float(np.sum(cotangent * logits)), cotangent

            def loss():
                return gradient(params, vocab_embedding, batch, linear)[0]

            _, dvocab, grads = gradient(params, vocab_embedding, batch, linear,
                                        weight_grads=True)
            assert_absent_tokens_zero(dvocab, batch)
            fd = central_difference(loss, vocab_embedding[:, :vocab])
            assert relative_error(dvocab[:, :vocab], fd) <= 1e-5
            for name, arr in weights.items():
                assert relative_error(grads[name], central_difference(loss, arr)) <= 1e-5, name


@st.composite
def padded_batches(draw):
    """1-100 sequences of mixed lengths over V tokens, right-padded; lengths tie
    whenever there are more than 9 rows."""
    n = draw(st.integers(1, 100))
    lengths = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
    vocab = draw(st.integers(1, 8))
    width = int(lengths.max())
    tokens = st.lists(st.integers(0, vocab - 1), min_size=width, max_size=width)
    ids = np.array(draw(st.lists(tokens, min_size=n, max_size=n)))
    return vocab, ids, lengths


def masked_logits(params, vocab_embedding, ids, lengths):
    """Logits of a padded batch computed slot by slot: gather every slot's
    embedding, then mean-pool the live slots (`bag_mlp`) or run each
    direction's recurrence over all L steps, a state holding still on padded
    steps (`birnn`)."""
    w, embedded = params.weights, vocab_embedding.T[ids]  # N x L x d
    mask = np.arange(ids.shape[1]) < lengths[:, None]
    if params.architecture == "bag_mlp":
        x = np.where(mask[:, :, None], embedded, 0.0).sum(axis=1) / lengths[:, None]
        return np.tanh(x @ w["w1"].T + w["b1"]) @ w["w2"].T + w["b2"]
    final = []
    for side, steps in (("f", range(ids.shape[1])), ("b", range(ids.shape[1] - 1, -1, -1))):
        h = np.zeros((len(ids), len(w[f"wh_{side}"])))
        for t in steps:
            step = np.tanh(embedded[:, t] @ w[f"wx_{side}"].T + w[f"b_{side}"]
                           + h @ w[f"wh_{side}"].T)
            h = np.where(mask[:, t, None], step, h)
        final.append(h)
    return np.concatenate(final, axis=1) @ w["w_out"].T + w["b_out"]


class TestPredict:
    @pytest.mark.parametrize("architecture", ["bag_mlp", "birnn"])
    @settings(derandomize=True, deadline=None)
    @given(batch=padded_batches())
    def test_matches_masked_reference(self, architecture, batch):
        vocab, ids, lengths = batch
        rng = np.random.default_rng(13)
        model = make_model(rng, vocab=vocab, architecture=architecture)
        # padded slots select extra columns of large values, which no live slot uses
        vocab_embedding = np.hstack([model.embeddings,
                                     rng.normal(scale=1e3, size=(model.embeddings.shape[0], 4))])
        pads = np.arange(ids.shape[1]) >= lengths[:, None]
        ids = np.where(pads, vocab + np.arange(ids.size).reshape(ids.shape) % 4, ids)
        logits = predict(model.params, vocab_embedding, as_dataset(ids, lengths, vocab + 4))
        assert np.max(np.abs(logits - masked_logits(model.params, vocab_embedding, ids,
                                                    lengths))) <= 1e-12

    @pytest.mark.parametrize("architecture", ["bag_mlp", "birnn"])
    @settings(derandomize=True, deadline=None)
    @given(batch=padded_batches())
    def test_is_the_forward_half_of_gradient(self, architecture, batch):
        # the logits that gradient hands to loss_grad are predict's, bit for bit
        vocab, ids, lengths = batch
        model = make_model(np.random.default_rng(13), vocab=vocab, architecture=architecture)
        handed = []

        def loss_grad(logits, labels):
            handed.append(logits.copy())
            return 0.0, np.zeros_like(logits)

        args = model.params, model.embeddings, as_dataset(ids, lengths, vocab)
        gradient(*args, loss_grad)
        assert handed[0].tobytes() == predict(*args).tobytes()

    @pytest.mark.parametrize("architecture", ["bag_mlp", "birnn"])
    @settings(derandomize=True, deadline=None)
    @given(batch=padded_batches(), seed=st.integers(0, 2**32 - 1))
    def test_row_order_does_not_matter(self, architecture, batch, seed):
        # rows are scored longest first and scattered back, so a permutation
        # of the rows permutes the logits and nothing else
        vocab, ids, lengths = batch
        rng = np.random.default_rng(seed)
        model = make_model(rng, vocab=vocab, architecture=architecture)
        perm = rng.permutation(len(lengths))
        args = model.params, model.embeddings
        dataset = as_dataset(ids, lengths, vocab)
        logits = predict(*args, dataset)
        permuted = predict(*args, dataset.take(perm))
        assert np.max(np.abs(permuted - logits[perm])) <= 1e-12
        assert np.array_equal(permuted.argmax(axis=1), logits[perm].argmax(axis=1))

    @pytest.mark.parametrize("architecture, vocab", [
        pytest.param("bag_mlp", 7, id="bag_mlp"), pytest.param("birnn", 7, id="birnn"),
        pytest.param("bag_mlp", 200, id="bag_mlp-200"), pytest.param("birnn", 200, id="birnn-200"),
    ])
    def test_memory_never_n_by_length_by_hidden(self, architecture, vocab):
        rng = np.random.default_rng(14)
        n, width, d, hidden = 2048, 32, 32, 32
        model = make_model(rng, d=d, vocab=vocab, hidden=hidden, architecture=architecture)
        ids = rng.integers(0, vocab, size=(n, width))
        lengths = rng.integers(1, width + 1, size=n)
        lengths[0] = width
        dataset = as_dataset(ids, lengths, vocab)
        tracemalloc.start()
        try:
            predict(model.params, model.embeddings, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few N x h float64 arrays: never N x L x h, and a bag_mlp's N x V
        # token counts, cast to float64, no larger than its N x h state
        assert peak <= 5 * n * hidden * 8


def reference_birnn_gradient(w, vocab_embedding, dataset, loss_grad, weight_grads):
    """`gradient` of a `birnn` one direction at a time, as the package once
    computed it: each step gathers its tokens and copies its states, and the
    walk back masks dead slots and scatters them into token 0 as zeros."""
    ids, lengths = dataset.ids, dataset.lengths
    order = np.argsort(-lengths, kind="stable")
    live = np.count_nonzero(lengths[:, None] > np.arange(lengths.max()), axis=0).tolist()
    flat, first = ids.ravel(), order * ids.shape[1]
    final, sides = [], []
    for side, start, step in (("f", first, 1), ("b", first + lengths[order] - 1, -1)):
        table = vocab_embedding.T @ w[f"wx_{side}"].T + w[f"b_{side}"]
        wh = w[f"wh_{side}"]
        h = np.zeros((len(ids), len(wh)))
        tokens = np.zeros((len(live), len(ids)), dtype=ids.dtype)
        states = np.zeros((len(live) + 1, *h.shape))
        for k, n in enumerate(live):
            token = flat[start[:n] + step * k]
            state = h[:n] @ wh.T
            state += table.take(token, axis=0)
            np.tanh(state, out=h[:n])
            tokens[k, :n] = token
            states[k + 1, :n] = h[:n]
        final.append(h)
        sides.append((side, tokens, states))
    final = np.concatenate(final, axis=1)
    logits = np.empty((len(ids), len(w["b_out"])))
    logits[order] = final @ w["w_out"].T + w["b_out"]
    loss, dlogits = loss_grad(logits, dataset.labels)

    dlogits = dlogits[order]
    alive = (np.arange(len(order)) < np.array(live)[:, None])[:, :, None]
    vocab, dvocab, grads = vocab_embedding.shape[1], 0.0, {}
    for dh, (side, tokens, states) in zip(np.hsplit(dlogits @ w["w_out"], 2), sides):
        wh, hidden, dh = w[f"wh_{side}"], states.shape[2], dh.copy()
        da = np.square(states[1:])
        np.subtract(1.0, da, out=da)
        da *= alive
        for k, n in reversed(list(enumerate(live))):
            da[k, :n] *= dh[:n]
            np.matmul(da[k, :n], wh, out=dh[:n])
        slots = (tokens[:, :, None] * hidden + np.arange(hidden)).ravel()
        dtable = np.bincount(slots, weights=da.ravel(),
                             minlength=vocab * hidden).reshape(vocab, hidden)
        dvocab = dvocab + w[f"wx_{side}"].T @ dtable.T
        if weight_grads:
            grads[f"wx_{side}"] = dtable.T @ vocab_embedding.T
            grads[f"wh_{side}"] = np.tensordot(da, states[:-1], axes=([0, 1], [0, 1]))
            grads[f"b_{side}"] = dtable.sum(axis=0)
    if not weight_grads:
        return loss, dvocab, None
    return loss, dvocab, {**grads, "w_out": dlogits.T @ final, "b_out": dlogits.sum(axis=0)}


@st.composite
def birnn_batches(draw):
    """1-100 rows of 1 to `longest` tokens over V = 1-8 or 200 tokens, lengths
    tying whenever there are more than `longest` rows (at `longest` 1, every
    row is a single token); sometimes a batch cut from them by `take`."""
    n, longest = draw(st.integers(1, 100)), draw(st.integers(1, 9))
    vocab = draw(st.one_of(st.integers(1, 8), st.just(200)))
    lengths = draw(st.lists(st.integers(1, longest), min_size=n, max_size=n))
    total = sum(lengths)
    tokens = draw(st.lists(st.integers(0, vocab - 1), min_size=total, max_size=total))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    dataset = SequenceDataset.from_tokens(tokens, lengths, labels,
                                          Vocab.from_tokens(range(vocab)), (0, 1))
    rows = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    return dataset if rows is None else dataset.take(rows)


class TestKeptPass:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(dataset=birnn_batches(), seed=st.integers(0, 2**32 - 1))
    def test_gradient_equals_the_per_direction_reference(self, dataset, seed):
        # both directions stepped together give the same bits as one at a time
        rng = np.random.default_rng(seed)
        model = make_model(rng, vocab=len(dataset.vocab), architecture="birnn")
        args = model.params, model.embeddings, dataset, _cross_entropy_grad
        for weight_grads in (False, True):
            loss, dvocab, grads = gradient(*args, weight_grads=weight_grads)
            ref_loss, ref_dvocab, ref_grads = reference_birnn_gradient(
                model.params.weights, *args[1:], weight_grads)
            assert loss == ref_loss
            assert dvocab.tobytes() == ref_dvocab.tobytes()
            if weight_grads:
                assert list(grads) == list(ref_grads)
                for name, ref in ref_grads.items():
                    assert grads[name].tobytes() == ref.tobytes(), name
            else:
                assert grads is None


@pytest.fixture(scope="module")
def source_task():
    source, _ = synth_tasks(0, 1200, 10)
    return split(source, SplitSpec(0.8, 0.1, 0.1, seed=1))


class TestTrainSource:
    @pytest.mark.parametrize("architecture", ["bag_mlp", "birnn", "lstm"])
    def test_config_accepts_the_architectures_that_load(self, architecture):
        # TrainConfig and load_checkpoint check one list of architectures
        if architecture in _PASSES:
            assert TrainConfig(architecture=architecture).architecture == architecture
        else:
            with pytest.raises(ConfigError, match="^unknown architecture 'lstm'$"):
                TrainConfig(architecture=architecture)

    def test_learns_separable_task(self, source_task):
        train, valid, _ = source_task
        model, report = train_source(train, TrainConfig(epochs=25), seed=2, valid=valid)
        assert report["valid_accuracy"] >= 0.95
        assert "majority_class_accuracy" in report

    def test_same_seed_bitwise_identical(self, source_task):
        train, valid, _ = source_task
        cfg = TrainConfig(epochs=3)
        a, _ = train_source(train, cfg, seed=9, valid=valid)
        b, _ = train_source(train, cfg, seed=9, valid=valid)
        assert model_digest(a) == model_digest(b)

    def test_single_class_rejected(self, source_task):
        train, _, _ = source_task
        degenerate = train.take(np.flatnonzero(train.labels == 0))
        with pytest.raises(ConfigError):
            train_source(degenerate, TrainConfig(epochs=1), seed=0)

    def test_frozen_model_immutable(self, source_task):
        train, valid, _ = source_task
        model, _ = train_source(train, TrainConfig(epochs=2), seed=3, valid=valid)
        with pytest.raises(ValueError):
            model.embeddings[0, 0] = 1.0
        with pytest.raises(ValueError):
            model.params.weights["w1"][0, 0] = 1.0


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path, source_task):
        train, valid, _ = source_task
        model, _ = train_source(train, TrainConfig(epochs=2), seed=4, valid=valid)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert model_digest(loaded) == model_digest(model)
        assert loaded.params.architecture == model.params.architecture
        assert loaded.params.num_classes == model.params.num_classes
        assert evaluate_source(loaded, valid) == evaluate_source(model, valid)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ConfigError):
            load_checkpoint(path)
