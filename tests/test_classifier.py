import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reprogram.classifier import (
    ClassifierParams,
    TrainConfig,
    _cross_entropy_grad,
    evaluate_source,
    forward,
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


def token_logits(model, tokens):
    """Logits of one source-token sequence, a batch of one over the model's table."""
    ids, lengths = np.array([tokens]), np.array([len(tokens)])
    return forward(model.params, model.embeddings, ids, lengths)[0][0]


def one_sequence(embedded):
    """An embedded sequence (d x L) as a padded batch of one whose vocabulary
    embedding E is the sequence itself, so that dE is the input gradient."""
    return embedded, np.arange(embedded.shape[1])[None, :], np.array([embedded.shape[1]])


def sequence_logits(params, embedded):
    return forward(params, *one_sequence(embedded))[0][0]


def input_gradient(model, embedded, target):
    """`gradient` of the cross-entropy at `target` with respect to the embedded sequence."""
    return gradient(model.params, *one_sequence(embedded), np.array([target]),
                    _cross_entropy_grad)[1]


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
            gathered = model.embeddings[:, seq]
            assert np.array_equal(token_logits(model, seq),
                                  sequence_logits(model.params, gathered))

    def test_token_out_of_range(self):
        rng = np.random.default_rng(3)
        model = make_model(rng)
        with pytest.raises(IndexError):
            token_logits(model, [0, 99])

    def test_evaluate_source_rejects_empty_or_foreign_dataset(self):
        rng = np.random.default_rng(3)
        model = make_model(rng)
        with pytest.raises(ConfigError):
            evaluate_source(model, SequenceDataset((), (), Vocab.from_tokens(range(10)), ("x",)))
        dataset = SequenceDataset(((0, 4),), (1,), Vocab.from_tokens("ABCDE"), ("x", "y"))
        with pytest.raises(ShapeError):
            evaluate_source(model, dataset)

    def test_birnn_forward_order_sensitive(self):
        rng = np.random.default_rng(4)
        model = make_model(rng, architecture="birnn")
        seq = rng.normal(size=(6, 5))
        flipped = seq[:, ::-1].copy()
        assert not np.allclose(sequence_logits(model.params, seq),
                               sequence_logits(model.params, flipped))


def finite_difference(model, embedded, target, h=1e-6):
    grad = np.zeros_like(embedded)
    for i in range(embedded.shape[0]):
        for j in range(embedded.shape[1]):
            up = embedded.copy()
            up[i, j] += h
            down = embedded.copy()
            down[i, j] -= h
            lu, ld = (-np.log(softmax(sequence_logits(model.params, e)[None, :])[0, target])
                      for e in (up, down))
            grad[i, j] = (lu - ld) / (2 * h)
    return grad


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
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-5

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
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-5


def mixed_length_batch(rng, model, lengths=(3, 1, 5, 2, 4), pads=4):
    """Padded ids over E = [table | pads columns of large values]; padded slots
    select only the extra columns, which no live slot uses."""
    d, vocab = model.embeddings.shape
    extra = rng.normal(scale=1e3, size=(d, pads))
    vocab_embedding = np.hstack([model.embeddings, extra])
    lengths = np.array(lengths)
    ids = rng.integers(vocab, vocab + pads, size=(len(lengths), lengths.max()))
    for n, length in enumerate(lengths):
        ids[n, :length] = rng.integers(0, vocab, size=length)
    return vocab_embedding, ids, lengths


class TestPaddedBatch:
    @pytest.mark.parametrize("architecture", ["bag_mlp", "birnn"])
    def test_padding_invariance(self, architecture):
        rng = np.random.default_rng(11)
        model = make_model(rng, architecture=architecture)
        vocab_embedding, ids, lengths = mixed_length_batch(rng, model)
        logits, _ = forward(model.params, vocab_embedding, ids, lengths)
        for n, length in enumerate(lengths):
            single = sequence_logits(model.params, vocab_embedding[:, ids[n, :length]])
            assert np.max(np.abs(logits[n] - single)) <= 1e-12

    @pytest.mark.parametrize("architecture", ["bag_mlp", "birnn"])
    def test_weight_gradients_match_finite_differences(self, architecture):
        rng = np.random.default_rng(12)
        model = make_model(rng, architecture=architecture)
        vocab_embedding, ids, lengths = mixed_length_batch(rng, model)
        weights = {name: arr.copy() for name, arr in model.params.weights.items()}
        params = ClassifierParams(architecture, weights, model.params.num_classes)
        # loss = sum(cotangent * logits), so backward starts from a known dlogits
        cotangent = rng.normal(size=(len(lengths), model.params.num_classes))
        rows = np.arange(len(lengths))

        def linear(logits, picked):
            return float(np.sum(cotangent[picked] * logits)), cotangent[picked]

        def loss():
            return gradient(params, vocab_embedding, ids, lengths, rows, linear)[0]

        _, dvocab, grads = gradient(params, vocab_embedding, ids, lengths, rows, linear,
                                    weight_grads=True)
        vocab = model.embeddings.shape[1]
        assert np.array_equal(dvocab[:, vocab:], np.zeros_like(dvocab[:, vocab:]))
        h = 1e-6
        for name, arr in weights.items():
            fd = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                saved = arr[idx]
                arr[idx] = saved + h
                up = loss()
                arr[idx] = saved - h
                down = loss()
                arr[idx] = saved
                fd[idx] = (up - down) / (2 * h)
            rel = np.linalg.norm(grads[name] - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-5, name


@st.composite
def padded_batches(draw):
    """More than MAX_BATCH sequences of mixed lengths over V tokens, right-padded."""
    n = draw(st.integers(33, 80))
    lengths = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
    vocab = draw(st.integers(1, 8))
    width = int(lengths.max())
    tokens = st.lists(st.integers(0, vocab - 1), min_size=width, max_size=width)
    ids = np.array(draw(st.lists(tokens, min_size=n, max_size=n)))
    return vocab, ids, lengths


class TestPredict:
    @pytest.mark.parametrize("architecture", ["bag_mlp", "birnn"])
    @settings(derandomize=True, deadline=None)
    @given(batch=padded_batches())
    def test_matches_training_forward(self, architecture, batch):
        vocab, ids, lengths = batch
        rng = np.random.default_rng(13)
        model = make_model(rng, vocab=vocab, architecture=architecture)
        # padded slots select extra columns of large values, which no live slot uses
        vocab_embedding = np.hstack([model.embeddings,
                                     rng.normal(scale=1e3, size=(model.embeddings.shape[0], 4))])
        pads = np.arange(ids.shape[1]) >= lengths[:, None]
        ids = np.where(pads, vocab + np.arange(ids.size).reshape(ids.shape) % 4, ids)
        logits, _ = forward(model.params, vocab_embedding, ids, lengths)
        assert np.max(np.abs(predict(model.params, vocab_embedding, ids, lengths)
                             - logits)) <= 1e-12

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
        logits = predict(*args, ids, lengths)
        permuted = predict(*args, ids[perm], lengths[perm])
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
        tracemalloc.start()
        try:
            predict(model.params, model.embeddings, ids, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few N x h float64 arrays: never N x L x h, and a bag_mlp's N x V
        # token counts no larger than its N x h state
        assert peak <= 5 * n * hidden * 8


@pytest.fixture(scope="module")
def source_task():
    source, _ = synth_tasks(0, 1200, 10)
    return split(source, SplitSpec(0.8, 0.1, 0.1, seed=1))


class TestTrainSource:
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
        keep = [i for i, l in enumerate(train.labels) if l == 0]
        degenerate = train.take(keep)
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
