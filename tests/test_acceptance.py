"""Acceptance criteria, one test per criterion, printing one line each.

Run with `pytest tests/test_acceptance.py -v`. The end-to-end criteria train
a synthetic source model once (module-scoped fixture) and reuse it.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from reprogram.classifier import (
    ClassifierParams,
    TrainConfig,
    _cross_entropy_grad,
    _freeze,
    _init_weights,
    forward,
    gradient,
    train_source,
)
from reprogram.cli import main as cli_main
from reprogram.data import SequenceDataset, SplitSpec, Vocab, split, subsample, synth_tasks
from reprogram.numerics import softmax
from reprogram.program import (
    LabelMap,
    ReprogramConfig,
    evaluate,
    evaluate_program,
    initial_theta,
    loss_and_grad,
    reprogram_train,
)
from reprogram.sparse_coding import (
    Dictionary,
    KsvdConfig,
    batch_encode,
    ksvd_dictionary_update,
    ksvd_run,
)


def report(number, name, passed):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status}")
    assert passed, f"acceptance criterion {number} ({name}) failed"


def orthonormal_dictionary(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return Dictionary.from_matrix(q)


def random_bag_model(rng, d=5, vocab=12, hidden=4, classes=2):
    table = rng.uniform(-0.5, 0.5, size=(d, vocab))
    weights = _init_weights("bag_mlp", d, hidden, classes, rng)
    return _freeze(table, ClassifierParams("bag_mlp", weights, classes), seed=0)


def one_sequence(embedded):
    """An embedded sequence (d x L) as a padded batch of one whose vocabulary
    embedding E is the sequence itself, so that dE is the input gradient."""
    return embedded, np.arange(embedded.shape[1])[None, :], np.array([embedded.shape[1]])


@pytest.fixture(scope="module")
def pipeline():
    """Frozen synthetic source model plus target-task splits."""
    source, target = synth_tasks(0, 2000, 6500)
    s_train, s_valid, _ = split(source, SplitSpec(0.8, 0.1, 0.1, seed=1))
    model, rep = train_source(s_train, TrainConfig(), seed=2, valid=s_valid)
    assert rep["valid_accuracy"] >= 0.95
    t_train, t_valid, t_test = split(target, SplitSpec(0.78, 0.06, 0.16, seed=1))
    return model, LabelMap((0, 1)), t_train, t_valid, t_test


def test_criterion_1_omp_exact_recovery():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    cfg = KsvdConfig(epsilon=1e-10, max_atoms=3)
    ok = True
    for _ in range(200):
        d = int(rng.integers(4, 16))
        dic = orthonormal_dictionary(rng, d)
        s = int(rng.integers(1, 4))
        support = rng.choice(d, size=s, replace=False)
        coefs = rng.uniform(0.5, 2.0, size=s) * rng.choice([-1, 1], size=s)
        signal = dic.atoms[:, support] @ coefs
        code = batch_encode(dic, signal[:, None], cfg)[:, 0]
        residual = signal - dic.atoms @ code
        ok &= np.flatnonzero(code).tolist() == sorted(support)
        ok &= np.linalg.norm(residual) <= 1e-8
    ok &= time.monotonic() - start < 5.0
    report(1, "OMP exact recovery on orthonormal dictionaries", ok)


def test_criterion_2_ksvd_monotonicity():
    rng = np.random.default_rng(43)
    ok = True
    # dictionary-update stage never increases Frobenius error
    for _ in range(50):
        dic = Dictionary.from_matrix(rng.normal(size=(8, 10)))
        codes = rng.normal(size=(10, 15)) * (rng.random(size=(10, 15)) < 0.4)
        signals = rng.normal(size=(8, 15))
        before = np.linalg.norm(signals - dic.atoms @ codes)
        new_dic, new_codes = ksvd_dictionary_update(dic, signals, codes)
        after = np.linalg.norm(signals - new_dic.atoms @ new_codes)
        ok &= after <= before + 1e-10
    # full-sweep error trace non-increasing in >= 95% of sweeps on planted
    # sparse instances
    total = good = 0
    for _ in range(50):
        dic = Dictionary.from_matrix(rng.normal(size=(16, 20)))
        codes = np.zeros((20, 40))
        for j in range(40):
            support = rng.choice(20, size=3, replace=False)
            codes[support, j] = rng.normal(size=3)
        signals = dic.atoms @ codes
        cfg = KsvdConfig(epsilon=1e-6, max_atoms=5, sweeps=10)
        _, _, trace = ksvd_run(signals, dic, cfg)
        for a, b in zip(trace, trace[1:]):
            total += 1
            good += b <= a + 1e-10
    ok &= good / total >= 0.95
    report(2, "k-SVD monotonicity", ok)


def test_criterion_3_gradient_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(44)
    ok = True
    # input gradients vs central differences
    for _ in range(50):
        model = random_bag_model(rng)
        embedded = rng.normal(size=(5, int(rng.integers(1, 6))))
        target = int(rng.integers(2))
        batch = one_sequence(embedded)
        analytic = gradient(model.params, *batch, np.array([target]), _cross_entropy_grad)[1]
        h = 1e-6
        fd = np.zeros_like(embedded)
        for i in range(embedded.shape[0]):
            for j in range(embedded.shape[1]):
                up, down = embedded.copy(), embedded.copy()
                up[i, j] += h
                down[i, j] -= h
                lu, ld = (-np.log(softmax(forward(model.params, *one_sequence(e))[0])[0, target])
                          for e in (up, down))
                fd[i, j] = (lu - ld) / (2 * h)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
        ok &= rel <= 1e-5
    # program gradients vs central differences on sampled entries
    label_map = LabelMap((1, 0))
    for _ in range(50):
        model = random_bag_model(rng)
        theta = rng.normal(size=(12, 4)) * 0.1
        pairs = [
            (tuple(int(t) for t in rng.integers(0, 4, size=rng.integers(1, 5))),
             int(rng.integers(2)))
            for _ in range(4)
        ]
        batch = SequenceDataset(tuple(seq for seq, _ in pairs),
                                tuple(label for _, label in pairs),
                                Vocab.from_tokens("ABCD"), ("neg", "pos"))
        _, grad = loss_and_grad(theta, model, label_map, batch)
        h = 1e-6
        an, fd = [], []
        for _ in range(10):
            r, c = int(rng.integers(12)), int(rng.integers(4))
            up, down = theta.copy(), theta.copy()
            up[r, c] += h
            down[r, c] -= h
            fd.append((loss_and_grad(up, model, label_map, batch)[0]
                       - loss_and_grad(down, model, label_map, batch)[0]) / (2 * h))
            an.append(grad[r, c])
        rel = np.linalg.norm(np.array(an) - np.array(fd)) / max(np.linalg.norm(fd), 1e-12)
        ok &= rel <= 1e-5
    ok &= time.monotonic() - start < 30.0
    report(3, "gradient fidelity vs finite differences", ok)


def test_criterion_4_end_to_end(pipeline):
    start = time.monotonic()
    model, label_map, t_train, t_valid, t_test = pipeline
    theta0 = initial_theta(model.embeddings.shape[1], len(t_train.vocab), seed=3)
    random_acc, _ = evaluate(theta0, model, label_map, t_test)
    cfg = ReprogramConfig(
        outer_iterations=200,
        ksvd=KsvdConfig(epsilon=0.045, max_atoms=16, sweeps=5, update_dictionary=False),
        step_size=0.01,
        batch_size=64,
        seed=3,
    )
    program, _ = reprogram_train(model, label_map, t_train, t_valid, cfg)
    acc, _ = evaluate(program.theta, model, label_map, t_test)
    elapsed = time.monotonic() - start
    print(f"\n  reprogrammed test accuracy {acc:.4f}, random theta {random_acc:.4f}, "
          f"{elapsed:.0f}s")
    report(4, "end-to-end reprogramming beats a random program",
           acc >= 0.85 and random_acc <= 0.60 and elapsed < 300)


def test_criterion_5_restricted_data_trend(pipeline):
    start = time.monotonic()
    model, label_map, t_train, t_valid, t_test = pipeline
    accs = []
    for n in (500, 1000, 2000, 4000):
        subset = subsample(t_train, n, seed=7)
        cfg = ReprogramConfig(
            outer_iterations=300,
            ksvd=KsvdConfig(epsilon=0.045, max_atoms=16, sweeps=5,
                            update_dictionary=False),
            step_size=0.01,
            decay=0.995,
            batch_size=64,
            seed=3,
        )
        program, _ = reprogram_train(model, label_map, subset, t_valid, cfg)
        acc, _ = evaluate(program.theta, model, label_map, t_test)
        accs.append(acc)
    inversions = sum(b < a for a, b in zip(accs, accs[1:]))
    elapsed = time.monotonic() - start
    print(f"\n  accuracies {[round(a, 4) for a in accs]}, "
          f"{inversions} inversion(s), {elapsed:.0f}s")
    report(5, "restricted-data trend (non-decreasing, <=1 inversion)",
           inversions <= 1 and elapsed < 900)


def test_criterion_6_ksvd_iteration_stagnation(pipeline):
    start = time.monotonic()
    model, label_map, t_train, t_valid, t_test = pipeline
    accs = {}
    for sweeps in (10, 30):
        cfg = ReprogramConfig(
            outer_iterations=200,
            ksvd=KsvdConfig(epsilon=0.045, max_atoms=16, sweeps=sweeps,
                            update_dictionary=True),
            step_size=0.01,
            batch_size=64,
            seed=3,
        )
        program, _ = reprogram_train(model, label_map, t_train, t_valid, cfg)
        accs[sweeps], _ = evaluate_program(program, model, label_map, t_test)
    gap = abs(accs[30] - accs[10])
    elapsed = time.monotonic() - start
    print(f"\n  T2=10: {accs[10]:.4f}, T2=30: {accs[30]:.4f}, gap {gap:.4f}, "
          f"{elapsed:.0f}s")
    report(6, "k-SVD iteration stagnation (gap <= 5 points)",
           gap <= 0.05 and elapsed < 600)


TINY_CONFIG = {
    "seed": 0,
    "data": {"mode": "synthetic", "source_size": 800, "target_size": 500},
    "train": {"epochs": 12},
    "reprogram": {
        "outer_iterations": 8,
        "batch_size": 16,
        "ksvd": {"epsilon": 0.045, "max_atoms": 8, "sweeps": 2},
    },
}


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_7_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    args = ["--config", str(config)]
    ok = True

    out_a, out_b = tmp_path / "src_a", tmp_path / "src_b"
    for out in (out_a, out_b):
        ok &= cli_main(["train-source", *args, "--out", str(out)]) == 0
    ok &= digest(out_a / "train_source_report.json") == digest(out_b / "train_source_report.json")
    ok &= digest(out_a / "source_checkpoint.json") == digest(out_b / "source_checkpoint.json")

    ckpt = out_a / "source_checkpoint.json"
    before = digest(ckpt)
    rp_a, rp_b = tmp_path / "rp_a", tmp_path / "rp_b"
    for out in (rp_a, rp_b):
        ok &= cli_main(["reprogram", *args, "--source-checkpoint", str(ckpt),
                        "--out", str(out)]) == 0
    ok &= digest(ckpt) == before  # frozen checkpoint untouched
    for name in ("summary.json", "trace.csv", "program.json"):
        ok &= digest(rp_a / name) == digest(rp_b / name)

    sw_a, sw_b = tmp_path / "sw_a", tmp_path / "sw_b"
    for out in (sw_a, sw_b):
        ok &= cli_main(["sweep-data", *args, "--source-checkpoint", str(ckpt),
                        "--grid", "50,100", "--out", str(out)]) == 0
    ok &= digest(sw_a / "sweep_data.csv") == digest(sw_b / "sweep_data.csv")

    sk_a, sk_b = tmp_path / "sk_a", tmp_path / "sk_b"
    for out in (sk_a, sk_b):
        ok &= cli_main(["sweep-ksvd", *args, "--source-checkpoint", str(ckpt),
                        "--grid", "1,2", "--out", str(out)]) == 0
    ok &= digest(sk_a / "sweep_ksvd.csv") == digest(sk_b / "sweep_ksvd.csv")

    ev_a, ev_b = tmp_path / "ev_a", tmp_path / "ev_b"
    for out in (ev_a, ev_b):
        ok &= cli_main(["eval", *args, "--source-checkpoint", str(ckpt),
                        "--program", str(rp_a / "program.json"), "--out", str(out)]) == 0
    ok &= digest(ev_a / "eval_summary.json") == digest(ev_b / "eval_summary.json")

    report(7, "determinism: byte-identical metrics, checkpoint untouched", ok)


def test_criterion_8_reduction_consistency(pipeline):
    model, label_map, t_train, t_valid, _ = pipeline
    ksvd_cfg = KsvdConfig(epsilon=0.045, max_atoms=8, sweeps=3, update_dictionary=False)
    cfg = ReprogramConfig(
        outer_iterations=3,
        ksvd=ksvd_cfg,
        step_size=0.0,
        batch_size=16,
        projection_mode="encode_once",
        seed=5,
    )
    program, _ = reprogram_train(model, label_map, t_train, t_valid, cfg)
    table = model.embeddings
    theta0 = initial_theta(table.shape[1], len(t_train.vocab), cfg.seed)
    dictionary = Dictionary.from_matrix(table)
    _, codes, _ = ksvd_run(table @ theta0, dictionary, ksvd_cfg)
    expected = dictionary.fold_codes(codes)
    report(8, "zero-step encode_once run equals pure sparse coding",
           np.array_equal(program.theta, expected))
