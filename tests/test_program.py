import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reprogram.classifier import ClassifierParams, _freeze, _init_weights, predict
from reprogram import program
from reprogram.data import SequenceDataset, Vocab
from reprogram.errors import ConfigError, NumericError, ShapeError
from reprogram.numerics import softmax
from reprogram.program import (
    AdversarialProgram,
    LabelMap,
    ReprogramConfig,
    evaluate,
    evaluate_program,
    initial_theta,
    load_program,
    loss_and_grad,
    map_output,
    reprogram_train,
    save_program,
    trace_to_csv,
)
from reprogram.sparse_coding import Dictionary, KsvdConfig, ksvd_run


def small_model(rng, d=5, vocab=12, hidden=4, classes=2, architecture="bag_mlp"):
    if architecture == "bag_mlp":
        weights = {
            "w1": rng.normal(size=(hidden, d)),
            "b1": rng.normal(size=hidden),
            "w2": rng.normal(size=(classes, hidden)),
            "b2": rng.normal(size=classes),
        }
    else:
        shapes = _init_weights(architecture, d, hidden, classes, rng)
        weights = {name: rng.normal(size=arr.shape) for name, arr in shapes.items()}
    table = rng.normal(size=(d, vocab))
    params = ClassifierParams(architecture, weights, classes)
    return _freeze(table, params, seed=0)


def constant_class_model(rng, winner=0, d=5, vocab=12):
    weights = {
        "w1": np.zeros((4, d)),
        "b1": np.zeros(4),
        "w2": np.zeros((2, 4)),
        "b2": np.array([40.0, 0.0]) if winner == 0 else np.array([0.0, 40.0]),
    }
    table = rng.normal(size=(d, vocab))
    return _freeze(table, ClassifierParams("bag_mlp", weights, 2), seed=0)


def target_dataset(rng, vocab_size=4, n=30, max_len=6):
    seqs = tuple(
        tuple(int(t) for t in rng.integers(0, vocab_size, size=rng.integers(1, max_len)))
        for _ in range(n)
    )
    labels = tuple(int(rng.integers(2)) for _ in range(n))
    return as_batch(zip(seqs, labels), vocab_size)


def as_batch(pairs, vocab_size=4):
    """A two-class target dataset of (tokens, label) pairs over vocab_size tokens."""
    pairs = list(pairs)
    vocab = Vocab.from_tokens([chr(65 + i) for i in range(vocab_size)])
    return SequenceDataset.from_sequences([seq for seq, _ in pairs],
                                          [label for _, label in pairs], vocab, ("neg", "pos"))


def program_for(theta, dataset, label_map=(0, 1)):
    """A program whose theta embeds `dataset`'s tokens, built for its class names."""
    return AdversarialProgram(theta=theta, config={}, target_tokens=dataset.vocab.index_to_token,
                              class_names=dataset.class_names, label_map=label_map)


def sequence_logits(model, embedded):
    """The 1 x C logits of an embedded sequence (d x L), a batch of one whose
    vocabulary embedding E is the sequence itself."""
    length = embedded.shape[1]
    row = SequenceDataset.from_tokens(np.arange(length), [length], [0],
                                      Vocab.from_tokens(range(length)), ("neg", "pos"))
    return predict(model.params, embedded, row)


def model_digest(model):
    h = hashlib.sha256()
    h.update(model.embeddings.tobytes())
    for name in sorted(model.params.weights):
        h.update(model.params.weights[name].tobytes())
    return h.hexdigest()


class TestLabelMap:
    def test_bijection_permutes(self):
        h = LabelMap((1, 0))
        assert np.allclose(map_output(h, [0.3, 0.7]), [0.7, 0.3])

    def test_identity(self):
        h = LabelMap((0, 1, 2))
        p = [0.2, 0.3, 0.5]
        assert np.allclose(map_output(h, p), p)

    def test_many_to_one_sums(self):
        h = LabelMap((0, 0, 1))
        assert np.allclose(map_output(h, [0.2, 0.3, 0.5]), [0.5, 0.5])

    def test_preserves_total_probability(self):
        rng = np.random.default_rng(4)
        h = LabelMap((0, 1, 0, 2))
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            assert abs(map_output(h, p).sum() - 1.0) <= 1e-12

    def test_non_surjective_rejected(self):
        with pytest.raises(ConfigError):
            LabelMap((0, 2))

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            map_output(LabelMap((0, 1)), [0.2, 0.3, 0.5])

    @pytest.mark.parametrize("entries", [("a", "b"), (0, 1.0), (0, -1, 1), (False, True)])
    def test_non_integer_or_negative_entries_rejected(self, entries):
        with pytest.raises(ConfigError, match="non-negative integers"):
            LabelMap(entries)


class TestLoss:
    def test_uniform_model_gives_log_classes(self):
        rng = np.random.default_rng(5)
        weights = {"w1": np.zeros((4, 5)), "b1": np.zeros(4),
                   "w2": np.zeros((2, 4)), "b2": np.zeros(2)}
        model = _freeze(rng.normal(size=(5, 12)),
                        ClassifierParams("bag_mlp", weights, 2), 0)
        theta = rng.normal(size=(12, 4))
        batch = as_batch([((0, 1), 0), ((2,), 1)])
        loss, _ = loss_and_grad(theta, model, LabelMap((0, 1)), batch)
        assert loss == pytest.approx(math.log(2))

    def test_confident_correct_model(self):
        rng = np.random.default_rng(6)
        model = constant_class_model(rng, winner=0)
        theta = rng.normal(size=(12, 4))
        batch = as_batch([((0, 1, 2), 0), ((3,), 0)])
        loss, _ = loss_and_grad(theta, model, LabelMap((0, 1)), batch)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_single_sample_hand_computed(self):
        rng = np.random.default_rng(7)
        model = small_model(rng)
        theta = rng.normal(size=(12, 4)) * 0.1
        tokens = (1, 3)
        embedded = (model.embeddings @ theta)[:, tokens]
        mapped = map_output(LabelMap((1, 0)), softmax(sequence_logits(model, embedded)))
        expected = -math.log(mapped[0, 1])
        loss, _ = loss_and_grad(theta, model, LabelMap((1, 0)), as_batch([(tokens, 1)]))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_zero_theta_embeds_every_token_as_zero(self):
        rng = np.random.default_rng(1)
        model = small_model(rng)
        probs = softmax(sequence_logits(model, np.zeros((5, 1))))
        mapped = map_output(LabelMap((0, 1)), probs)[0]
        expected = -(math.log(mapped[0]) + math.log(mapped[1])) / 2
        batch = as_batch([((0, 1, 2), 0), ((3,), 1)])
        loss, _ = loss_and_grad(np.zeros((12, 4)), model, LabelMap((0, 1)), batch)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_empty_batch_rejected(self):
        # loss_and_grad trusts its batch; reprogram_train rejects an empty
        # train split, whose batches would be empty, and an empty valid split
        rng = np.random.default_rng(8)
        model, data = small_model(rng), target_dataset(rng)
        for train, valid in ((as_batch([]), data), (data, as_batch([]))):
            with pytest.raises(ConfigError, match="^train and valid datasets must be non-empty$"):
                reprogram_train(model, LabelMap((0, 1)), train, valid, base_config())

    def test_token_out_of_range(self):
        # theta has one column per target token: a dataset over 5 tokens has
        # one with no embedding, and over 3 tokens its ids mean other tokens.
        # evaluate_program rejects data of other tokens than the program's,
        # and a program whose theta has another number of columns
        rng = np.random.default_rng(3)
        model = small_model(rng)
        built_for_four = program_for(np.zeros((12, 4)), as_batch([], 4))
        for vocab_size in (5, 3):
            dataset = as_batch([((0, vocab_size - 1), 1)], vocab_size)
            with pytest.raises(ConfigError, match="built for target vocabulary 'ABCD'"):
                evaluate_program(built_for_four, model, LabelMap((0, 1)), dataset)
            with pytest.raises(ShapeError, match="theta columns must match"):
                evaluate_program(program_for(np.zeros((12, 4)), dataset), model,
                                 LabelMap((0, 1)), dataset)

    def test_dataset_classes_beyond_label_map_rejected(self):
        # 3 classes in the data, a 2-class map: without the check numpy
        # raised "index 2 is out of bounds" from the loss and the confusion count
        rng = np.random.default_rng(11)
        model = small_model(rng)
        vocab = Vocab.from_tokens(["A", "B", "C", "D"])
        sequences = tuple((i % 4, (i + 1) % 4) for i in range(9))
        dataset = SequenceDataset.from_sequences(sequences, tuple(i % 3 for i in range(9)), vocab,
                                                 ("neg", "pos", "third"))
        theta, label_map = initial_theta(12, 4, 0), LabelMap((0, 1))
        cfg = ReprogramConfig(outer_iterations=2, batch_size=4,
                              ksvd=KsvdConfig(epsilon=0.1, max_atoms=2, update_dictionary=False))
        for call in (lambda: reprogram_train(model, label_map, dataset, dataset, cfg),
                     lambda: evaluate_program(program_for(theta, dataset), model, label_map,
                                              dataset)):
            with pytest.raises(ConfigError, match="maps onto 2 target classes, but the data has 3"):
                call()

    def test_built_datasets_are_not_padded_again(self, monkeypatch):
        rng = np.random.default_rng(3)
        model = small_model(rng)
        batch, dataset = target_dataset(rng, n=8), target_dataset(rng, n=40)

        def pad(cls, *args):
            raise AssertionError("a built dataset was padded again")

        for constructor in ("from_tokens", "from_sequences"):
            monkeypatch.setattr(SequenceDataset, constructor, classmethod(pad))
        theta = initial_theta(12, 4, 0)
        loss_and_grad(theta, model, LabelMap((0, 1)), batch)
        evaluate(theta, model, LabelMap((0, 1)), dataset)


def map_output_loss_dlogits(logits, label_map, labels):
    """The mapped loss and its gradient through the whole mapped distribution,
    as `map_output` sums it."""
    p = softmax(logits)
    target = map_output(label_map, p)[np.arange(len(labels)), labels]
    hits = np.array(label_map.source_to_target) == labels[:, None]
    dlogits = p - np.where(hits, p / target[:, None], 0.0)
    return float(-np.log(target).sum()), dlogits


@st.composite
def surjective_maps(draw):
    """Label maps of 1-12 source classes onto 1-4 target classes."""
    targets = draw(st.integers(1, 4))
    extra = draw(st.lists(st.integers(0, targets - 1), max_size=12 - targets))
    return LabelMap(tuple(draw(st.permutations(list(range(targets)) + extra))))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(label_map=surjective_maps(), scale=st.floats(0.1, 50), rows=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1))
def test_mapped_loss_matches_the_map_output_reference(label_map, scale, rows, seed):
    # each row's target probability sums its hit classes in source order, as
    # map_output does; numpy's own sum reorders a row of 8 or more terms
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=scale, size=(rows, label_map.num_source_classes))
    labels = rng.integers(label_map.num_target_classes, size=rows)
    loss, dlogits = label_map.loss_grad(logits, labels)
    want_loss, want_dlogits = map_output_loss_dlogits(logits, label_map, labels)
    assert repr(loss) == repr(want_loss)
    assert dlogits.tobytes() == want_dlogits.tobytes()


class TestGradTheta:
    def test_absent_token_has_zero_gradient(self):
        rng = np.random.default_rng(9)
        model = small_model(rng)
        theta = rng.normal(size=(12, 4)) * 0.1
        batch = as_batch([((0, 1), 0), ((1, 0, 0), 1)])  # token 2 and 3 never used
        _, grad = loss_and_grad(theta, model, LabelMap((0, 1)), batch)
        assert np.array_equal(grad[:, 2], np.zeros(12))
        assert np.array_equal(grad[:, 3], np.zeros(12))

    @pytest.mark.parametrize("architecture", ["bag_mlp", "birnn"])
    def test_finite_difference_random_entries(self, architecture):
        rng = np.random.default_rng(10)
        model = small_model(rng, architecture=architecture)
        h = LabelMap((1, 0))
        theta = rng.normal(size=(12, 4)) * 0.1
        batch = as_batch(
            (tuple(int(t) for t in rng.integers(0, 4, size=rng.integers(1, 5))),
             int(rng.integers(2)))
            for _ in range(6)
        )
        _, grad = loss_and_grad(theta, model, h, batch)
        step = 1e-6
        picks = [(int(rng.integers(12)), int(rng.integers(4))) for _ in range(20)]
        fd = np.zeros(len(picks))
        an = np.zeros(len(picks))
        for i, (r, c) in enumerate(picks):
            up = theta.copy()
            up[r, c] += step
            down = theta.copy()
            down[r, c] -= step
            fd[i] = (loss_and_grad(up, model, h, batch)[0]
                     - loss_and_grad(down, model, h, batch)[0]) / (2 * step)
            an[i] = grad[r, c]
        rel = np.linalg.norm(an - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-5

    def test_batch_duplication_invariant(self):
        rng = np.random.default_rng(11)
        model = small_model(rng)
        h = LabelMap((0, 1))
        theta = rng.normal(size=(12, 4)) * 0.1
        pairs = [((0, 1), 0), ((2, 3), 1)]
        _, g1 = loss_and_grad(theta, model, h, as_batch(pairs))
        _, g2 = loss_and_grad(theta, model, h, as_batch(pairs + pairs))
        assert np.allclose(g1, g2, atol=1e-15)


@pytest.fixture(scope="module")
def training_setup():
    rng = np.random.default_rng(12)
    model = small_model(rng, d=6, vocab=20, hidden=5)
    train = target_dataset(rng, vocab_size=4, n=40)
    valid = target_dataset(rng, vocab_size=4, n=20)
    return model, train, valid


def base_config(**overrides):
    defaults = dict(
        outer_iterations=5,
        ksvd=KsvdConfig(epsilon=1e-4, max_atoms=3, sweeps=2, update_dictionary=False),
        step_size=0.05,
        batch_size=8,
        seed=13,
    )
    defaults.update(overrides)
    return ReprogramConfig(**defaults)


def first_projection(model, train, cfg):
    """Iteration 0's projection: the k-SVD codes of the initial implied embeddings."""
    table = model.embeddings
    theta0 = initial_theta(table.shape[1], len(train.vocab), cfg.seed)
    dictionary = Dictionary.from_matrix(table)
    _, codes, _ = ksvd_run(table @ theta0, dictionary, cfg.ksvd)
    return dictionary.fold_codes(codes)


class TestReprogramTrain:
    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigError):
            base_config(outer_iterations=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns of the overflow
    def test_diverging_step_rejected(self, training_setup):
        # at step 1e308 theta overflows within 40 iterations; the NaN or Inf
        # it leaves stays in every later iterate, and the loop's end names it
        model, train, valid = training_setup
        cfg = base_config(step_size=1e308, outer_iterations=40)
        with pytest.raises(NumericError, match="^matrix contains NaN or Inf$"):
            reprogram_train(model, LabelMap((0, 1)), train, valid, cfg)

    def test_deterministic(self, training_setup):
        model, train, valid = training_setup
        h = LabelMap((0, 1))
        a_prog, a_trace = reprogram_train(model, h, train, valid, base_config())
        b_prog, b_trace = reprogram_train(model, h, train, valid, base_config())
        assert np.array_equal(a_prog.theta, b_prog.theta)
        assert a_trace == b_trace

    def test_frozen_model_untouched(self, training_setup):
        model, train, valid = training_setup
        before = model_digest(model)
        reprogram_train(model, LabelMap((0, 1)), train, valid, base_config())
        assert model_digest(model) == before

    def test_projection_respects_max_atoms(self, training_setup):
        # with zero step size the returned theta is exactly a projection output
        model, train, valid = training_setup
        cfg = base_config(step_size=0.0)
        prog, _ = reprogram_train(model, LabelMap((0, 1)), train, valid, cfg)
        assert np.all(np.count_nonzero(prog.theta, axis=0) <= cfg.ksvd.max_atoms)

    def test_default_run_steps_on_its_projection_support(self, training_setup):
        # a non-zero step must not leave the support of the one projection,
        # so the saved theta is as sparse as that projection
        model, train, valid = training_setup
        cfg = base_config(outer_iterations=10, step_size=0.5)
        prog, trace = reprogram_train(model, LabelMap((0, 1)), train, valid, cfg)
        projection = first_projection(model, train, cfg)
        projected = projection != 0
        assert np.all(np.count_nonzero(prog.theta, axis=0) <= cfg.ksvd.max_atoms)
        assert not np.any((prog.theta != 0) & ~projected)
        assert not np.array_equal(prog.theta[projected], projection[projected])
        assert all(entry["mean_support"] <= cfg.ksvd.max_atoms for entry in trace)

    def test_reduces_to_sparse_coding(self, training_setup):
        # zero step: theta equals the k-SVD codes of the initial implied
        # embeddings, bitwise
        model, train, valid = training_setup
        cfg = base_config(step_size=0.0)
        prog, _ = reprogram_train(model, LabelMap((0, 1)), train, valid, cfg)
        assert np.array_equal(prog.theta, first_projection(model, train, cfg))

    def test_returned_program_scores_its_best_validation(self, training_setup):
        # under dictionary update theta codes over a learned basis; the
        # program must carry it, so that the pair scores as it was validated
        model, train, valid = training_setup
        h = LabelMap((0, 1))
        cfg = base_config(
            outer_iterations=10,
            step_size=0.5,
            seed=21,
            ksvd=KsvdConfig(epsilon=1e-4, max_atoms=3, sweeps=2, update_dictionary=True),
        )
        prog, trace = reprogram_train(model, h, train, valid, cfg)
        accuracy, _ = evaluate_program(prog, model, h, valid)
        assert accuracy == max(entry["valid_accuracy"] for entry in trace)

    def test_fixed_dictionary_stores_no_basis(self, training_setup, tmp_path):
        # theta codes over the model's own table, so the program must not
        # carry a copy of it
        model, train, valid = training_setup
        prog, _ = reprogram_train(model, LabelMap((0, 1)), train, valid, base_config())
        assert prog.source_basis is None
        path = tmp_path / "program.json"
        save_program(prog, path)
        assert "source_basis" not in json.loads(path.read_text())

    def test_trace_fields(self, training_setup):
        model, train, valid = training_setup
        _, trace = reprogram_train(model, LabelMap((0, 1)), train, valid, base_config())
        assert len(trace) == 5
        for i, entry in enumerate(trace):
            assert entry["iteration"] == i
            assert entry["loss"] >= 0.0
            assert 0.0 <= entry["valid_accuracy"] <= 1.0
            assert entry["mean_support"] >= 0.0


# seeds under which validation accuracy moves and peaks after iteration 0
@pytest.fixture(scope="module", params=[("bag_mlp", 39), ("birnn", 32)],
                ids=["bag_mlp", "birnn"])
def scored_setup(request):
    architecture, seed = request.param
    rng = np.random.default_rng(seed)
    model = small_model(rng, d=6, vocab=20, hidden=5, architecture=architecture)
    return model, target_dataset(rng, n=60), target_dataset(rng, n=40)


class TestValidationWorker:
    """Validation of the training loop's iterates, scored in the caller.

    The class and test names are kept from when a forked worker scored the
    iterates; the checks now pin what stays: the caller's own scores."""

    @pytest.mark.parametrize("overrides", [
        {},
        {"ksvd": KsvdConfig(epsilon=1e-4, max_atoms=3, sweeps=2, update_dictionary=True)},
    ], ids=["fixed_dictionary", "update_dictionary"])
    @pytest.mark.parametrize("iterations, scored", [
        (200, range(9, 200, 10)),
        (45, range(0, 45, 2)),
        (39, range(39)),
        (20, range(20)),
        (1, [0]),
    ])
    def test_schedule_scores_evenly_spaced_iterates(self, scored_setup, overrides, iterations,
                                                    scored):
        # the last iterate and every stride-th one before it; the program
        # returned is the best of those, over its own basis
        model, train, valid = scored_setup
        h = LabelMap((0, 1))
        cfg = base_config(outer_iterations=iterations, step_size=0.5, **overrides)
        prog, trace = reprogram_train(model, h, train, valid, cfg)
        scores = {entry["iteration"]: entry["valid_accuracy"] for entry in trace
                  if entry["valid_accuracy"] is not None}
        assert list(scores) == list(scored)
        assert evaluate_program(prog, model, h, valid)[0] == max(scores.values())

    @pytest.mark.parametrize("overrides", [
        {},
        {"ksvd": KsvdConfig(epsilon=1e-4, max_atoms=3, sweeps=2, update_dictionary=True)},
    ], ids=["fixed_dictionary", "update_dictionary"])
    def test_worker_equals_in_process_bitwise(self, scored_setup, overrides, monkeypatch):
        # the loop's scores, its pick and the scoring model's table equal,
        # bitwise, scoring the same iterates again in the caller
        model, train, valid = scored_setup
        h = LabelMap((0, 1))
        cfg = base_config(outer_iterations=25, step_size=0.5, **overrides)
        assert cfg.outer_iterations < 2 * program.VALIDATIONS  # every iterate is scored
        real, scored = program.evaluate, []

        def evaluate(theta, scoring, label_map, dataset):
            scored.append((theta.copy(), scoring.embeddings.copy()))
            return real(theta, scoring, label_map, dataset)

        monkeypatch.setattr(program, "evaluate", evaluate)
        prog, trace = reprogram_train(model, h, train, valid, cfg)
        monkeypatch.undo()
        assert len(scored) == cfg.outer_iterations
        rescored = [real(theta, replace(model, embeddings=table), h, valid)[0]
                    for theta, table in scored]
        accuracies = [entry["valid_accuracy"] for entry in trace]
        assert repr(accuracies) == repr(rescored)
        best_theta, best_table = scored[int(np.argmax(accuracies))]  # ties: the earliest
        assert prog.theta.tobytes() == best_theta.tobytes()
        basis = prog.source_basis
        assert (basis is None) == ("ksvd" not in overrides)
        assert (model.embeddings if basis is None else basis).tobytes() == best_table.tobytes()
        again, again_trace = reprogram_train(model, h, train, valid, cfg)
        assert again.theta.tobytes() == prog.theta.tobytes()
        assert repr(again_trace) == repr(trace)
        assert len(set(accuracies)) > 1 and np.argmax(accuracies) > 0

    # one case; its id keeps the test's name from when a worker case ran beside it
    @pytest.mark.parametrize("where", ["in_process"])
    def test_scoring_error_raised_in_caller(self, training_setup, monkeypatch, where):
        model, train, valid = training_setup

        def predict(*args):
            raise NumericError("logits are not finite")

        monkeypatch.setattr(program, "predict", predict)
        with pytest.raises(NumericError, match="^logits are not finite$"):
            reprogram_train(model, LabelMap((0, 1)), train, valid, base_config())


@pytest.mark.parametrize("ksvd", [
    KsvdConfig(epsilon=1e-4, max_atoms=3, sweeps=2, update_dictionary=False),
    KsvdConfig(epsilon=1e-4, max_atoms=3, sweeps=2, update_dictionary=True),
], ids=["fixed_dictionary", "update_dictionary"])
def test_rounding_noise_on_initial_theta_does_not_move_the_result(scored_setup, ksvd,
                                                                    monkeypatch):
    # 1e-14 relative noise on theta0, about what another BLAS or thread
    # count could leave, at the CLI's default step and iteration count: the
    # support, every validation score and theta stay put
    model, train, valid = scored_setup
    h = LabelMap((0, 1))
    cfg = base_config(outer_iterations=200, step_size=0.01, ksvd=ksvd)
    prog, trace = reprogram_train(model, h, train, valid, cfg)
    real = program.initial_theta

    def noisy(*args):
        theta = real(*args)
        return theta * (1.0 + 1e-14 * np.random.default_rng(99).standard_normal(theta.shape))

    monkeypatch.setattr(program, "initial_theta", noisy)
    moved, moved_trace = reprogram_train(model, h, train, valid, cfg)
    assert np.array_equal(moved.theta != 0, prog.theta != 0)
    assert ([e["valid_accuracy"] for e in moved_trace]
            == [e["valid_accuracy"] for e in trace])
    assert 0.0 < np.abs(moved.theta - prog.theta).max() < 1e-12  # the noise reaches theta


class TestEvaluate:
    def test_single_correct_sample(self):
        rng = np.random.default_rng(14)
        model = constant_class_model(rng, winner=0)
        vocab = Vocab.from_tokens(["A", "B"])
        ds = SequenceDataset.from_sequences(((0, 1),), (0,), vocab, ("neg", "pos"))
        acc, confusion = evaluate(np.zeros((12, 2)), model, LabelMap((0, 1)), ds)
        assert acc == 1.0
        assert confusion.tolist() == [[1, 0], [0, 0]]

    def test_confusion_counts_sum_to_size(self, training_setup):
        model, train, _ = training_setup
        theta = initial_theta(20, 4, 1)
        _, confusion = evaluate(theta, model, LabelMap((0, 1)), train)
        assert confusion.sum() == len(train)

    def test_relabeling_invariance(self, training_setup):
        model, train, _ = training_setup
        theta = initial_theta(20, 4, 2)
        acc, _ = evaluate(theta, model, LabelMap((0, 1)), train)
        flipped = replace(train, labels=1 - train.labels, class_names=("pos", "neg"))
        acc_flipped, _ = evaluate(theta, model, LabelMap((1, 0)), flipped)
        assert acc == acc_flipped

    @pytest.mark.parametrize("architecture", ["bag_mlp", "birnn"])
    def test_matches_reference_from_forward_logits(self, architecture):
        # 3 source classes onto 2 targets, so mapping sums two probabilities
        rng = np.random.default_rng(17)
        model = small_model(rng, classes=3, architecture=architecture)
        label_map = LabelMap((1, 0, 1))
        dataset = target_dataset(rng, n=120, max_len=9)
        theta = rng.normal(size=(12, 4))
        embedding = model.embeddings @ theta
        logits = predict(model.params, embedding, dataset)
        predicted = map_output(label_map, softmax(logits)).argmax(axis=1)
        expected = np.zeros((2, 2), dtype=np.int64)
        np.add.at(expected, (dataset.labels, predicted), 1)
        acc, confusion = evaluate(theta, model, label_map, dataset)
        assert np.array_equal(confusion, expected)
        assert acc == np.trace(expected) / len(dataset)
        assert expected.sum(axis=0).min() > 0  # both target classes are predicted

    def test_label_map_missing_source_classes_rejected(self):
        rng = np.random.default_rng(18)
        model = small_model(rng)
        dataset, label_map = target_dataset(rng), LabelMap((0, 1, 0))
        for call in (lambda: evaluate_program(program_for(np.zeros((12, 4)), dataset,
                                                          label_map.source_to_target),
                                              model, label_map, dataset),
                     lambda: reprogram_train(model, label_map, dataset, dataset, base_config())):
            with pytest.raises(ConfigError, match="does not cover the source classes"):
                call()

    def test_empty_dataset_rejected(self):
        rng = np.random.default_rng(15)
        model = small_model(rng)
        vocab = Vocab.from_tokens(["A"])
        empty = SequenceDataset.from_sequences((), (), vocab, ("neg", "pos"))
        with pytest.raises(ConfigError, match="^cannot evaluate on an empty dataset$"):
            evaluate_program(program_for(np.zeros((12, 1)), empty), model, LabelMap((0, 1)),
                             empty)


@pytest.fixture(scope="module")
def learned_program(training_setup):
    """A program trained under dictionary update, so it carries a source_basis."""
    model, train, valid = training_setup
    ksvd = KsvdConfig(epsilon=1e-4, max_atoms=3, sweeps=2, update_dictionary=True)
    prog, _ = reprogram_train(model, LabelMap((0, 1)), train, valid, base_config(ksvd=ksvd))
    return prog


class TestProgramFit:
    """`evaluate_program` scores a program only on a model, data and label
    map that it fits; anything else is a ConfigError naming the mismatch."""

    @pytest.mark.parametrize("mismatch, message", [
        # the same alphabet size, so every token id is in range
        ("alphabet", "target vocabulary 'ABCD', the data has 'HIJK'"),
        ("class_names", "target classes ['neg', 'pos'], the data has ['pos', 'neg']"),
        ("source_vocabulary", "does not match the source model vocabulary"),
        ("basis_shape", "source_basis does not match the source model's d x vocab"),
    ])
    def test_mismatch_rejected(self, training_setup, learned_program, mismatch, message):
        model, _, valid = training_setup
        vocab, names, table = valid.vocab, valid.class_names, model.embeddings
        if mismatch == "alphabet":
            vocab = Vocab.from_tokens("HIJK")
        elif mismatch == "class_names":
            names = names[::-1]
        elif mismatch == "source_vocabulary":
            table = np.ones((table.shape[0], table.shape[1] + 1))
        else:
            table = np.ones((table.shape[0] + 1, table.shape[1]))
        data = replace(valid, vocab=vocab, class_names=names)
        with pytest.raises(ConfigError, match=re.escape(message)):
            evaluate_program(learned_program, replace(model, embeddings=table),
                             LabelMap((0, 1)), data)

    @pytest.mark.parametrize("mismatch", ["alphabet", "class_names"])
    def test_valid_split_of_another_target_rejected(self, training_setup, mismatch):
        model, train, valid = training_setup
        vocab, names = valid.vocab, valid.class_names
        if mismatch == "alphabet":
            vocab = Vocab.from_tokens("HIJK")
        else:
            names = names[::-1]
        other = replace(valid, vocab=vocab, class_names=names)
        with pytest.raises(ConfigError, match="differ in target tokens or class names"):
            reprogram_train(model, LabelMap((0, 1)), train, other, base_config())


class TestProgramSerialization:
    def test_round_trip(self, tmp_path, training_setup):
        model, train, valid = training_setup
        prog, trace = reprogram_train(model, LabelMap((0, 1)), train, valid, base_config())
        path = tmp_path / "program.json"
        save_program(prog, path)
        loaded = load_program(path)
        assert np.array_equal(loaded.theta, prog.theta)
        assert loaded.config == prog.config
        assert loaded.label_map == prog.label_map == (0, 1)

    def test_trace_csv_coding_error_empty_when_not_coded(self, tmp_path, training_setup):
        # theta is coded on iteration 0 only; 45 iterations score every
        # other iterate, so odd rows have no score
        model, train, valid = training_setup
        cfg = base_config(outer_iterations=45)
        _, trace = reprogram_train(model, LabelMap((0, 1)), train, valid, cfg)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        header, *lines = path.read_text().strip().splitlines()
        assert header == "iteration,loss,valid_accuracy,mean_support,coding_error"
        assert len(lines) == 45
        rows = [line.split(",") for line in lines]
        assert float(rows[0][-1]) == trace[0]["coding_error"]
        assert math.isfinite(trace[0]["coding_error"])
        assert all(row[-1] == "" for row in rows[1:])
        assert [row[2] for row in rows[1::2]] == [""] * 22
        assert [float(row[2]) for row in rows[::2]] == [
            entry["valid_accuracy"] for entry in trace[::2]]
