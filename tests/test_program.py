import hashlib
import json
import math

import numpy as np
import pytest

from reprogram.classifier import (
    ClassifierParams,
    EmbeddingTable,
    FrozenClassifier,
    _freeze,
    _init_weights,
)
from reprogram.data import SequenceDataset, Vocab
from reprogram.errors import ConfigError, ShapeError
from reprogram.program import (
    AdversarialProgram,
    LabelMap,
    ReprogramConfig,
    apply_program,
    evaluate,
    evaluate_program,
    grad_theta,
    initial_theta,
    load_program,
    map_output,
    reprogram_loss,
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
    vocab = Vocab.from_tokens([chr(65 + i) for i in range(vocab_size)])
    seqs = tuple(
        tuple(int(t) for t in rng.integers(0, vocab_size, size=rng.integers(1, max_len)))
        for _ in range(n)
    )
    labels = tuple(int(rng.integers(2)) for _ in range(n))
    return SequenceDataset(seqs, labels, vocab, ("neg", "pos"))


def model_digest(model):
    h = hashlib.sha256()
    h.update(model.embeddings.table.tobytes())
    for name in sorted(model.params.weights):
        h.update(model.params.weights[name].tobytes())
    return h.hexdigest()


class TestApplyProgram:
    def test_unit_column_selects_source_embedding(self):
        rng = np.random.default_rng(0)
        model = small_model(rng)
        theta = np.zeros((12, 4))
        theta[7, 2] = 1.0
        out = apply_program(theta, model, [2])
        assert np.array_equal(out[:, 0], model.embeddings.table[:, 7])

    def test_zero_theta(self):
        rng = np.random.default_rng(1)
        model = small_model(rng)
        out = apply_program(np.zeros((12, 4)), model, [0, 1, 2])
        assert np.array_equal(out, np.zeros((5, 3)))

    def test_linearity(self):
        rng = np.random.default_rng(2)
        model = small_model(rng)
        t1 = rng.normal(size=(12, 4))
        t2 = rng.normal(size=(12, 4))
        a, b = 1.7, -0.3
        tokens = [0, 3, 1]
        combined = apply_program(a * t1 + b * t2, model, tokens)
        separate = a * apply_program(t1, model, tokens) + b * apply_program(t2, model, tokens)
        assert np.allclose(combined, separate, atol=1e-12)

    def test_token_out_of_range(self):
        rng = np.random.default_rng(3)
        model = small_model(rng)
        with pytest.raises(IndexError):
            apply_program(np.zeros((12, 4)), model, [4])


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
        batch = [((0, 1), 0), ((2,), 1)]
        loss = reprogram_loss(theta, model, LabelMap((0, 1)), batch)
        assert loss == pytest.approx(math.log(2))

    def test_confident_correct_model(self):
        rng = np.random.default_rng(6)
        model = constant_class_model(rng, winner=0)
        theta = rng.normal(size=(12, 4))
        batch = [((0, 1, 2), 0), ((3,), 0)]
        loss = reprogram_loss(theta, model, LabelMap((0, 1)), batch)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_single_sample_hand_computed(self):
        rng = np.random.default_rng(7)
        model = small_model(rng)
        theta = rng.normal(size=(12, 4)) * 0.1
        tokens = (1, 3)
        from reprogram.classifier import forward_embedded
        from reprogram.numerics import softmax

        probs = softmax(forward_embedded(model, apply_program(theta, model, tokens)))
        mapped = map_output(LabelMap((1, 0)), probs)
        expected = -math.log(mapped[1])
        loss = reprogram_loss(theta, model, LabelMap((1, 0)), [(tokens, 1)])
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(8)
        model = small_model(rng)
        with pytest.raises(ConfigError):
            reprogram_loss(np.zeros((12, 4)), model, LabelMap((0, 1)), [])


class TestGradTheta:
    def test_absent_token_has_zero_gradient(self):
        rng = np.random.default_rng(9)
        model = small_model(rng)
        theta = rng.normal(size=(12, 4)) * 0.1
        batch = [((0, 1), 0), ((1, 0, 0), 1)]  # token 2 and 3 never used
        grad = grad_theta(theta, model, LabelMap((0, 1)), batch)
        assert np.array_equal(grad[:, 2], np.zeros(12))
        assert np.array_equal(grad[:, 3], np.zeros(12))

    @pytest.mark.parametrize("architecture", ["bag_mlp", "birnn"])
    def test_finite_difference_random_entries(self, architecture):
        rng = np.random.default_rng(10)
        model = small_model(rng, architecture=architecture)
        h = LabelMap((1, 0))
        theta = rng.normal(size=(12, 4)) * 0.1
        batch = [
            (tuple(int(t) for t in rng.integers(0, 4, size=rng.integers(1, 5))),
             int(rng.integers(2)))
            for _ in range(6)
        ]
        grad = grad_theta(theta, model, h, batch)
        step = 1e-6
        picks = [(int(rng.integers(12)), int(rng.integers(4))) for _ in range(20)]
        fd = np.zeros(len(picks))
        an = np.zeros(len(picks))
        for i, (r, c) in enumerate(picks):
            up = theta.copy()
            up[r, c] += step
            down = theta.copy()
            down[r, c] -= step
            fd[i] = (reprogram_loss(up, model, h, batch)
                     - reprogram_loss(down, model, h, batch)) / (2 * step)
            an[i] = grad[r, c]
        rel = np.linalg.norm(an - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-5

    def test_batch_duplication_invariant(self):
        rng = np.random.default_rng(11)
        model = small_model(rng)
        h = LabelMap((0, 1))
        theta = rng.normal(size=(12, 4)) * 0.1
        batch = [((0, 1), 0), ((2, 3), 1)]
        g1 = grad_theta(theta, model, h, batch)
        g2 = grad_theta(theta, model, h, batch + batch)
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
        assert np.all(prog.support_sizes <= cfg.ksvd.max_atoms)

    def test_reduces_to_sparse_coding(self, training_setup):
        # encode_once + zero step: theta equals the k-SVD codes of the
        # initial implied embeddings, bitwise
        model, train, valid = training_setup
        cfg = base_config(step_size=0.0, projection_mode="encode_once")
        prog, _ = reprogram_train(model, LabelMap((0, 1)), train, valid, cfg)
        table = model.embeddings.table
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

    def test_unfrozen_model_rejected(self, training_setup):
        model, train, valid = training_setup
        from dataclasses import replace

        thawed = replace(model, frozen=False)
        with pytest.raises(ConfigError):
            reprogram_train(thawed, LabelMap((0, 1)), train, valid, base_config())

    def test_trace_fields(self, training_setup):
        model, train, valid = training_setup
        _, trace = reprogram_train(model, LabelMap((0, 1)), train, valid, base_config())
        assert len(trace) == 5
        for i, entry in enumerate(trace):
            assert entry["iteration"] == i
            assert entry["loss"] >= 0.0
            assert 0.0 <= entry["valid_accuracy"] <= 1.0
            assert entry["mean_support"] >= 0.0


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
