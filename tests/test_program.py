import hashlib
import json
import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from reprogram.classifier import ClassifierParams, _freeze, _init_weights, forward
from reprogram import data, program
from reprogram.data import SequenceDataset, Vocab
from reprogram.errors import ConfigError, NumericError, ShapeError, WorkerError
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
    return SequenceDataset(tuple(seq for seq, _ in pairs), tuple(label for _, label in pairs),
                           vocab, ("neg", "pos"))


def sequence_logits(model, embedded):
    """The 1 x C logits of an embedded sequence (d x L), a batch of one whose
    vocabulary embedding E is the sequence itself."""
    ids, lengths = np.arange(embedded.shape[1])[None, :], np.array([embedded.shape[1]])
    return forward(model.params, embedded, ids, lengths)[0]


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
        rng = np.random.default_rng(8)
        model = small_model(rng)
        with pytest.raises(ConfigError):
            loss_and_grad(np.zeros((12, 4)), model, LabelMap((0, 1)), as_batch([]))

    def test_token_out_of_range(self):
        # theta has one column per target token: a dataset over 5 tokens has
        # one with no embedding, and over 3 tokens its ids mean other tokens
        rng = np.random.default_rng(3)
        model = small_model(rng)
        for vocab_size in (5, 3):
            dataset = as_batch([((0, vocab_size - 1), 1)], vocab_size)
            with pytest.raises(ShapeError):
                loss_and_grad(np.zeros((12, 4)), model, LabelMap((0, 1)), dataset)
            with pytest.raises(ShapeError):
                evaluate(np.zeros((12, 4)), model, LabelMap((0, 1)), dataset)

    def test_dataset_classes_beyond_label_map_rejected(self):
        # 3 classes in the data, a 2-class map: without the check numpy
        # raised "index 2 is out of bounds" from the loss and the confusion count
        rng = np.random.default_rng(11)
        model = small_model(rng)
        vocab = Vocab.from_tokens(["A", "B", "C", "D"])
        sequences = tuple((i % 4, (i + 1) % 4) for i in range(9))
        dataset = SequenceDataset(sequences, tuple(i % 3 for i in range(9)), vocab,
                                  ("neg", "pos", "third"))
        theta, label_map = initial_theta(12, 4, 0), LabelMap((0, 1))
        cfg = ReprogramConfig(outer_iterations=2, batch_size=4,
                              ksvd=KsvdConfig(epsilon=0.1, max_atoms=2, update_dictionary=False))
        for call in (lambda: loss_and_grad(theta, model, label_map, dataset),
                     lambda: evaluate(theta, model, label_map, dataset),
                     lambda: reprogram_train(model, label_map, dataset, dataset, cfg)):
            with pytest.raises(ConfigError, match="maps onto 2 target classes, but the data has 3"):
                call()

    def test_built_datasets_are_not_padded_again(self, monkeypatch):
        rng = np.random.default_rng(3)
        model = small_model(rng)
        batch, dataset = target_dataset(rng, n=8), target_dataset(rng, n=40)

        def pad(sequences):
            raise AssertionError("a built dataset was padded again")

        monkeypatch.setattr(data, "pad", pad)
        theta = initial_theta(12, 4, 0)
        loss_and_grad(theta, model, LabelMap((0, 1)), batch)
        evaluate(theta, model, LabelMap((0, 1)), dataset)


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


class TestReprogramTrain:
    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigError):
            base_config(outer_iterations=0)

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

    def test_reduces_to_sparse_coding(self, training_setup):
        # encode_once + zero step: theta equals the k-SVD codes of the
        # initial implied embeddings, bitwise
        model, train, valid = training_setup
        cfg = base_config(step_size=0.0, projection_mode="encode_once")
        prog, _ = reprogram_train(model, LabelMap((0, 1)), train, valid, cfg)
        table = model.embeddings
        theta0 = initial_theta(table.shape[1], len(train.vocab), cfg.seed)
        dictionary = Dictionary.from_matrix(table)
        _, codes, _ = ksvd_run(table @ theta0, dictionary, cfg.ksvd)
        assert np.array_equal(prog.theta, dictionary.fold_codes(codes))

    def test_returned_program_scores_its_best_validation(self, training_setup):
        # under dictionary update theta codes over a learned basis that moves
        # every iteration; the program must carry the basis its best theta
        # was validated with, not the last one
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

    @pytest.mark.parametrize("mode", ["every_outer_iteration", "encode_once"])
    def test_fixed_dictionary_stores_no_basis(self, training_setup, tmp_path, mode):
        # theta codes over the model's own table, so the program must not
        # carry a copy of it
        model, train, valid = training_setup
        cfg = base_config(projection_mode=mode)
        prog, _ = reprogram_train(model, LabelMap((0, 1)), train, valid, cfg)
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


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the validation worker needs the fork start method")


def use_worker(monkeypatch, on):
    """Force reprogram_train's validation into a forked worker (on) or in-process."""
    monkeypatch.setattr(program, "_worker_available", lambda: on)


class TestValidationWorker:
    # seeds under which validation accuracy moves and peaks after iteration 0
    @pytest.fixture(scope="class", params=[("bag_mlp", 39), ("birnn", 32)],
                    ids=["bag_mlp", "birnn"])
    def setup(self, request):
        architecture, seed = request.param
        rng = np.random.default_rng(seed)
        model = small_model(rng, d=6, vocab=20, hidden=5, architecture=architecture)
        return model, target_dataset(rng, n=60), target_dataset(rng, n=40)

    @needs_fork
    @pytest.mark.parametrize("overrides", [
        {},
        {"ksvd": KsvdConfig(epsilon=1e-4, max_atoms=3, sweeps=2, update_dictionary=True)},
        {"projection_mode": "encode_once"},
    ], ids=["fixed_dictionary", "update_dictionary", "encode_once"])
    def test_worker_equals_in_process_bitwise(self, setup, overrides, monkeypatch):
        model, train, valid = setup
        cfg = base_config(outer_iterations=25, step_size=0.5, **overrides)
        caller, real, scored_here = os.getpid(), program._score, []

        def score(*args):
            if os.getpid() == caller:
                scored_here.append(args)
            else:
                time.sleep(0.002)  # the worker lags, so scores come back iterations late
            return real(*args)

        monkeypatch.setattr(program, "_score", score)
        runs = {}
        for on in (True, False):
            use_worker(monkeypatch, on)
            runs[on] = reprogram_train(model, LabelMap((0, 1)), train, valid, cfg)
        assert len(scored_here) == cfg.outer_iterations  # none while the worker scored
        (worker, worker_trace), (local, local_trace) = runs[True], runs[False]
        assert worker.theta.tobytes() == local.theta.tobytes()
        basis = worker.source_basis
        assert (basis is None) == (local.source_basis is None) == ("ksvd" not in overrides)
        assert basis is None or basis.tobytes() == local.source_basis.tobytes()
        assert repr(worker_trace) == repr(local_trace)
        accuracies = [entry["valid_accuracy"] for entry in local_trace]
        assert len(set(accuracies)) > 1 and np.argmax(accuracies) > 0

    @pytest.mark.parametrize("on", [pytest.param(True, marks=needs_fork), False],
                             ids=["worker", "in_process"])
    def test_scoring_error_raised_in_caller(self, training_setup, monkeypatch, on):
        model, train, valid = training_setup
        use_worker(monkeypatch, on)

        def predict(*args):
            raise NumericError("logits are not finite")

        monkeypatch.setattr(program, "predict", predict)
        with pytest.raises(NumericError, match="^logits are not finite$"):
            reprogram_train(model, LabelMap((0, 1)), train, valid, base_config())

    @needs_fork
    def test_worker_that_dies_is_a_worker_error(self, training_setup, monkeypatch):
        model, train, valid = training_setup
        use_worker(monkeypatch, True)
        exit_in_worker(monkeypatch)
        with pytest.raises(WorkerError, match="validation worker exited with code 1"):
            reprogram_train(model, LabelMap((0, 1)), train, valid, base_config())

    @needs_fork
    def test_worker_keeps_off_the_callers_cpu(self, monkeypatch):
        usable = os.sched_getaffinity(0)
        if len(usable) < 2 or not os.path.exists("/proc/self/stat"):
            pytest.skip("needs two usable CPUs and /proc")
        use_worker(monkeypatch, True)
        with program._overlapped(lambda x: os.sched_getaffinity(0)) as (submit, collect):
            for tag in range(3):
                submit(0, tag)
            results = collect(wait=True)
        assert [tag for tag, _ in results] == [0, 1, 2]
        assert all(cpus < usable and len(cpus) == len(usable) - 1 for _, cpus in results)

    @needs_fork
    def test_worker_ends_when_the_caller_is_gone(self):
        context = multiprocessing.get_context("fork")
        conn, child = context.Pipe()
        worker = context.Process(target=program._serve,
                                 args=(child, conn, float, program._other_cpus()))
        worker.start()
        child.close()
        conn.send(1)
        assert conn.recv() == 1.0
        conn.close()  # as a caller that was killed would
        worker.join(timeout=10)
        assert worker.exitcode == 0

    def test_other_cpus_never_empty(self, monkeypatch):
        monkeypatch.setattr(program.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert program._other_cpus() == {0}

    def test_worker_only_with_fork_and_two_cpus(self, monkeypatch):
        monkeypatch.setattr(program.multiprocessing, "get_all_start_methods", lambda: ["fork"])
        monkeypatch.setattr(program.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert program._worker_available()
        monkeypatch.setattr(program.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert not program._worker_available()
        monkeypatch.setattr(program.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(program.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert not program._worker_available()


def exit_in_worker(monkeypatch):
    """Make `predict` end any process but this one with exit code 1."""
    caller, real = os.getpid(), program.predict

    def predict(*args):
        if os.getpid() != caller:
            os._exit(1)
        return real(*args)

    monkeypatch.setattr(program, "predict", predict)


class TestEvaluate:
    def test_single_correct_sample(self):
        rng = np.random.default_rng(14)
        model = constant_class_model(rng, winner=0)
        vocab = Vocab.from_tokens(["A", "B"])
        ds = SequenceDataset(((0, 1),), (0,), vocab, ("neg", "pos"))
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
        flipped = SequenceDataset(
            train.sequences,
            tuple(1 - l for l in train.labels),
            train.vocab,
            ("pos", "neg"),
        )
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
        logits, _ = forward(model.params, embedding, dataset.ids, dataset.lengths)
        predicted = map_output(label_map, softmax(logits)).argmax(axis=1)
        expected = np.zeros((2, 2), dtype=np.int64)
        np.add.at(expected, (np.asarray(dataset.labels), predicted), 1)
        acc, confusion = evaluate(theta, model, label_map, dataset)
        assert np.array_equal(confusion, expected)
        assert acc == np.trace(expected) / len(dataset)
        assert expected.sum(axis=0).min() > 0  # both target classes are predicted

    def test_label_map_missing_source_classes_rejected(self):
        rng = np.random.default_rng(18)
        model = small_model(rng)
        with pytest.raises(ConfigError, match="does not cover the source classes"):
            evaluate(np.zeros((12, 4)), model, LabelMap((0, 1, 0)), target_dataset(rng))

    def test_empty_dataset_rejected(self):
        rng = np.random.default_rng(15)
        model = small_model(rng)
        vocab = Vocab.from_tokens(["A"])
        empty = SequenceDataset((), (), vocab, ("neg", "pos"))
        with pytest.raises(ConfigError):
            evaluate(np.zeros((12, 1)), model, LabelMap((0, 1)), empty)


class TestProgramSerialization:
    def test_round_trip(self, tmp_path, training_setup):
        model, train, valid = training_setup
        prog, trace = reprogram_train(model, LabelMap((0, 1)), train, valid, base_config())
        path = tmp_path / "program.json"
        save_program(prog, path)
        loaded = load_program(path)
        assert np.array_equal(loaded.theta, prog.theta)
        assert loaded.config == prog.config

    def test_trace_csv(self, tmp_path, training_setup):
        model, train, valid = training_setup
        _, trace = reprogram_train(model, LabelMap((0, 1)), train, valid, base_config())
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,loss,valid_accuracy,mean_support,coding_error"
        assert len(lines) == 6
        coding_errors = [float(line.split(",")[-1]) for line in lines[1:]]
        assert coding_errors == [entry["coding_error"] for entry in trace]

    def test_trace_csv_coding_error_empty_when_not_coded(self, tmp_path, training_setup):
        model, train, valid = training_setup
        cfg = base_config(projection_mode="encode_once")
        _, trace = reprogram_train(model, LabelMap((0, 1)), train, valid, cfg)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        rows = path.read_text().strip().splitlines()[1:]
        assert len(rows) == 5 and all(row.endswith(",") for row in rows)
