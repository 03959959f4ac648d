from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reprogram import sparse_coding
from reprogram.errors import ConfigError, NumericError, ShapeError
from reprogram.sparse_coding import (
    Dictionary,
    KsvdConfig,
    batch_encode,
    ksvd_dictionary_update,
    ksvd_run,
)


def random_dictionary(rng, d, k):
    return Dictionary.from_matrix(rng.normal(size=(d, k)))


def orthonormal_dictionary(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return Dictionary.from_matrix(q)


class TestDictionary:
    def test_columns_unit_norm(self):
        rng = np.random.default_rng(0)
        dic = random_dictionary(rng, 8, 12)
        assert np.allclose(np.linalg.norm(dic.atoms, axis=0), 1.0, atol=1e-10)

    def test_zero_column_rejected(self):
        cols = np.eye(3)
        cols[:, 1] = 0.0
        with pytest.raises(NumericError):
            Dictionary.from_matrix(cols)

    def test_fold_codes_recovers_raw_combination(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(6, 9)) * 3.0
        dic = Dictionary.from_matrix(raw)
        codes = rng.normal(size=(9, 4))
        assert np.allclose(raw @ dic.fold_codes(codes), dic.atoms @ codes)


class TestGram:
    @staticmethod
    def count_gram(monkeypatch):
        """Count how often any Dictionary forms its Gram matrix."""
        formed = []
        real = Dictionary.__dict__["gram"].func

        def counted(self):
            formed.append(self)
            return real(self)

        spy = cached_property(counted)
        spy.__set_name__(Dictionary, "gram")
        monkeypatch.setattr(Dictionary, "gram", spy)
        return formed

    def test_equals_atoms_product_and_is_read_only(self):
        dic = random_dictionary(np.random.default_rng(40), 8, 12)
        assert dic.gram.tobytes() == (dic.atoms.T @ dic.atoms).tobytes()
        with pytest.raises(ValueError):
            dic.gram[0, 0] = 2.0

    def test_is_exactly_symmetric(self):
        # batch_encode fills each Gram block's new column from its new row
        rng = np.random.default_rng(44)
        shapes = ((1, 4), (7, 3), (8, 12), (32, 200))
        dictionaries = [random_dictionary(rng, d, k) for d, k in shapes]
        signals = rng.normal(size=(8, 6))
        codes = batch_encode(dictionaries[2], signals, KsvdConfig(epsilon=0.05, max_atoms=4))
        dictionaries.append(ksvd_dictionary_update(dictionaries[2], signals, codes)[0])
        for dic in dictionaries:
            assert dic.gram.tobytes() == np.ascontiguousarray(dic.gram.T).tobytes()

    def test_formed_once_per_dictionary(self, monkeypatch):
        rng = np.random.default_rng(41)
        dic = random_dictionary(rng, 8, 10)
        signals = rng.normal(size=(8, 6))
        formed = self.count_gram(monkeypatch)
        cfg = KsvdConfig(epsilon=0.05, max_atoms=4, sweeps=3, update_dictionary=False)
        for _ in range(3):
            batch_encode(dic, signals, cfg)
            ksvd_run(signals, dic, cfg)
        assert len(formed) == 1 and formed[0] is dic

    def test_updated_dictionary_forms_its_own(self, monkeypatch):
        rng = np.random.default_rng(42)
        dic = random_dictionary(rng, 8, 10)
        signals = rng.normal(size=(8, 6))
        formed = self.count_gram(monkeypatch)
        cfg = KsvdConfig(epsilon=0.05, max_atoms=4, sweeps=3)
        updated, _, _ = ksvd_run(signals, dic, cfg)
        # each sweep codes against a new dictionary; the last update's is never coded against
        assert len(formed) == 3 and formed[0] is dic
        assert len({id(d) for d in formed + [updated]}) == 4
        new, _ = ksvd_dictionary_update(dic, signals, batch_encode(dic, signals, cfg))
        assert new.gram.tobytes() == (new.atoms.T @ new.atoms).tobytes()
        assert not np.array_equal(new.gram, dic.gram)


@pytest.mark.parametrize("axis", [0, 1])
def test_residual_norm_is_bitwise_numpys(axis):
    # the coding loop's stop and gain tests must see the values of np.sum
    # and np.linalg.norm, which the per-column reference below uses
    residual = np.random.default_rng(43).normal(size=(33, 17)) * 10.0 ** np.arange(-8, 9)
    l1 = sparse_coding._residual_norm(residual, "l1", axis)
    l2 = sparse_coding._residual_norm(residual, "l2", axis)
    assert l1.tobytes() == np.sum(np.abs(residual), axis=axis).tobytes()
    assert l2.tobytes() == np.linalg.norm(residual, axis=axis).tobytes()


def encode_one(dic, signal, cfg):
    """One signal coded as a one-column batch: its dense code and (sorted) support."""
    code = batch_encode(dic, np.asarray(signal)[:, None], cfg)[:, 0]
    return code, np.flatnonzero(code)


def residual_l1(dic, signal, code):
    return float(np.sum(np.abs(signal - dic.atoms @ code)))


class TestOmpEncode:
    """Error-constrained OMP of single signals, each a one-column batch."""

    def test_single_atom_signal(self):
        rng = np.random.default_rng(2)
        dic = orthonormal_dictionary(rng, 6)
        cfg = KsvdConfig(epsilon=1e-6, max_atoms=3)
        signal = 2.0 * dic.atoms[:, 3]
        code, support = encode_one(dic, signal, cfg)
        assert support.tolist() == [3]
        assert code[3] == pytest.approx(2.0)
        assert residual_l1(dic, signal, code) <= 1e-10

    def test_epsilon_dominates(self):
        rng = np.random.default_rng(3)
        dic = random_dictionary(rng, 5, 7)
        signal = np.full(5, 1e-4)
        cfg = KsvdConfig(epsilon=1.0, max_atoms=3)
        code, support = encode_one(dic, signal, cfg)
        assert support.size == 0
        assert not np.any(code)

    def test_exact_recovery_on_orthonormal(self):
        rng = np.random.default_rng(4)
        dic = orthonormal_dictionary(rng, 6)
        signal = 1.5 * dic.atoms[:, 1] - 0.5 * dic.atoms[:, 4]
        cfg = KsvdConfig(epsilon=1e-8, max_atoms=4)
        code, support = encode_one(dic, signal, cfg)
        assert support.tolist() == [1, 4]
        assert code[1] == pytest.approx(1.5, abs=1e-10)
        assert code[4] == pytest.approx(-0.5, abs=1e-10)
        assert residual_l1(dic, signal, code) <= 1e-8

    def test_planted_sparse_recovery_many(self):
        rng = np.random.default_rng(5)
        cfg = KsvdConfig(epsilon=1e-8, max_atoms=3)
        for _ in range(50):
            d = int(rng.integers(5, 12))
            dic = orthonormal_dictionary(rng, d)
            s = int(rng.integers(1, 4))
            support = rng.choice(d, size=s, replace=False)
            coefs = rng.uniform(0.5, 2.0, size=s) * rng.choice([-1, 1], size=s)
            signal = dic.atoms[:, support] @ coefs
            code, found = encode_one(dic, signal, cfg)
            assert found.tolist() == sorted(support)
            assert residual_l1(dic, signal, code) <= 1e-8

    def test_residual_strictly_decreases(self):
        # each accepted atom strictly shrinks the least-squares (l2) residual
        rng = np.random.default_rng(6)
        dic = random_dictionary(rng, 10, 20)
        signal = rng.normal(size=10)
        norms = []
        for k in range(1, 6):
            cfg = KsvdConfig(epsilon=0.0, max_atoms=k)
            code, _ = encode_one(dic, signal, cfg)
            norms.append(np.linalg.norm(signal - dic.atoms @ code))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_stops_at_max_atoms_or_epsilon(self):
        rng = np.random.default_rng(7)
        dic = random_dictionary(rng, 8, 14)
        cfg = KsvdConfig(epsilon=0.05, max_atoms=4)
        for _ in range(20):
            signal = rng.normal(size=8)
            code, support = encode_one(dic, signal, cfg)
            assert residual_l1(dic, signal, code) <= 0.05 or support.size == 4

    def test_signal_length_mismatch(self):
        rng = np.random.default_rng(8)
        dic = random_dictionary(rng, 6, 6)
        with pytest.raises(ShapeError):
            encode_one(dic, np.ones(5), KsvdConfig(epsilon=0.1, max_atoms=2))

    def test_nonfinite_signal_rejected(self):
        rng = np.random.default_rng(9)
        dic = random_dictionary(rng, 4, 4)
        with pytest.raises(NumericError):
            encode_one(dic, np.array([np.nan, 0, 0, 0]), KsvdConfig(epsilon=0.1, max_atoms=2))

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        dic = random_dictionary(rng, 9, 15)
        signal = rng.normal(size=9)
        cfg = KsvdConfig(epsilon=0.01, max_atoms=5)
        a, _ = encode_one(dic, signal, cfg)
        b, _ = encode_one(dic, signal, cfg)
        assert np.array_equal(a, b)


class TestBatchEncode:
    def test_single_column_matches_wider_batch(self):
        # a column's code does not depend on the other columns of its batch
        rng = np.random.default_rng(11)
        dic = random_dictionary(rng, 7, 10)
        signals = rng.normal(size=(7, 6))
        cfg = KsvdConfig(epsilon=0.02, max_atoms=4)
        dense = batch_encode(dic, signals, cfg)
        for j in range(6):
            assert np.array_equal(dense[:, j], encode_one(dic, signals[:, j], cfg)[0])

    def test_atoms_encode_to_identity_pattern(self):
        rng = np.random.default_rng(12)
        dic = random_dictionary(rng, 6, 8)
        cfg = KsvdConfig(epsilon=1e-8, max_atoms=3)
        codes = batch_encode(dic, dic.atoms, cfg)
        assert np.allclose(codes, np.eye(8), atol=1e-10)

    def test_columns_match_per_column_oracle(self):
        rng = np.random.default_rng(13)
        dic = random_dictionary(rng, 8, 12)
        signals = rng.normal(size=(8, 10))
        cfg = KsvdConfig(epsilon=0.05, max_atoms=4)
        codes = batch_encode(dic, signals, cfg)
        for j in range(10):
            code, support = encode_one(dic, signals[:, j], cfg)
            assert np.array_equal(codes[:, j], code)
            assert residual_l1(dic, signals[:, j], code) <= 0.05 or support.size == 4


def reference_omp(atoms, signal, cfg):
    """Per-signal OMP with an lstsq refit: (support, coefficients, stop reason).

    The coding rule written plainly, one signal at a time. A trial support
    of deficient rank counts as no gain, like a refit that fails to shrink
    the l2 residual.
    """
    if cfg.residual_norm == "l1":
        norm = lambda r: np.sum(np.abs(r))
    else:
        norm = np.linalg.norm
    support, coefs, residual = [], np.zeros(0), signal.copy()
    while True:
        if norm(residual) <= cfg.epsilon:
            return support, coefs, "epsilon"
        if len(support) == cfg.max_atoms:
            return support, coefs, "max_atoms"
        correlations = np.abs(atoms.T @ residual)
        correlations[support] = -1.0
        pick = int(np.argmax(correlations))
        if correlations[pick] <= 0.0:
            return support, coefs, "zero_correlation"
        trial = atoms[:, support + [pick]]
        trial_coefs = np.linalg.lstsq(trial, signal, rcond=None)[0]
        trial_residual = signal - trial @ trial_coefs
        if (np.linalg.matrix_rank(trial) <= len(support)
                or np.linalg.norm(trial_residual) >= np.linalg.norm(residual)):
            return support, coefs, "no_gain"
        support, coefs, residual = support + [pick], trial_coefs, trial_residual


def assert_matches_reference(dic, signals, cfg):
    """batch_encode, whole and one column at a time, against reference_omp.

    Returns the stop reasons.
    """
    codes = batch_encode(dic, signals, cfg)
    reasons = []
    for j in range(signals.shape[1]):
        support, coefs, reason = reference_omp(dic.atoms, signals[:, j], cfg)
        code, found = encode_one(dic, signals[:, j], cfg)
        assert found.tolist() == sorted(support)
        assert np.abs(code[support] - coefs).max(initial=0.0) <= (
            1e-12 * np.abs(coefs).max(initial=0.0)
        )
        assert np.array_equal(codes[:, j], code)
        reasons.append(reason)
    return reasons


class TestLockstepEquivalence:
    """The lockstep Gram-solve path against the per-signal lstsq reference."""

    @pytest.mark.parametrize("residual_norm", ["l1", "l2"])
    def test_random_dictionaries(self, residual_norm):
        rng = np.random.default_rng(30)
        reasons = set()
        for _ in range(40):
            d = int(rng.integers(4, 33))
            k = int(rng.integers(d, 3 * d))
            dic = random_dictionary(rng, d, k)
            signals = rng.normal(size=(d, int(rng.integers(1, 12))))
            # supports of at most d/2 atoms keep the Gram sub-matrices well
            # conditioned, so 1e-12 is a fair bound for normal equations
            cfg = KsvdConfig(epsilon=float(rng.uniform(0.05, 1.0)),
                             max_atoms=int(rng.integers(1, d // 2 + 1)),
                             residual_norm=residual_norm)
            reasons.update(assert_matches_reference(dic, signals, cfg))
        assert reasons == {"epsilon", "max_atoms"}

    def test_zero_correlation_stop(self):
        # after e0 the residual (0, 0, 3, 0) is orthogonal to e1 and e3
        dic = Dictionary.from_matrix(np.eye(4)[:, [0, 1, 3]])
        signals = np.array([[1.0], [0.0], [3.0], [0.0]])
        cfg = KsvdConfig(epsilon=0.0, max_atoms=3)
        assert assert_matches_reference(dic, signals, cfg) == ["zero_correlation"]
        assert batch_encode(dic, signals, cfg)[:, 0].tolist() == [1.0, 0.0, 0.0]

    def test_no_gain_stop_when_the_refit_cannot_shrink_the_residual(self):
        # after e0 the residual (0, 0, 3, 0) meets w = (0, 0, 1e-9, 1) with
        # correlation 3e-9: w is independent, but refitting on it moves the
        # l2 residual by 1e-18 relative, below rounding, so w is rejected
        cols = np.eye(4)[:, [0, 1, 3]]
        cols[2, 2] = 1e-9
        dic = Dictionary.from_matrix(cols)
        signals = np.array([[1.0], [0.0], [3.0], [0.0]])
        cfg = KsvdConfig(epsilon=0.0, max_atoms=3)
        assert assert_matches_reference(dic, signals, cfg) == ["no_gain"]
        assert encode_one(dic, signals[:, 0], cfg)[1].tolist() == [0]

    def test_no_gain_stop_on_a_dependent_atom(self):
        # any two of the three atoms span the plane, so a third adds nothing;
        # whether rounding gives it a positive correlation or not, the code
        # keeps two atoms
        rng = np.random.default_rng(31)
        dic = Dictionary.from_matrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]))
        signals = rng.normal(size=(2, 40))
        for residual_norm in ("l1", "l2"):
            cfg = KsvdConfig(epsilon=0.0, max_atoms=3, residual_norm=residual_norm)
            reasons = assert_matches_reference(dic, signals, cfg)
            assert "no_gain" in reasons
            assert np.all(np.count_nonzero(batch_encode(dic, signals, cfg), axis=0) == 2)

    def test_zero_signal(self):
        rng = np.random.default_rng(32)
        dic = random_dictionary(rng, 6, 9)
        signals = np.column_stack([np.zeros(6), rng.normal(size=6)])
        for eps in (0.0, 0.1):
            cfg = KsvdConfig(epsilon=eps, max_atoms=3)
            assert assert_matches_reference(dic, signals, cfg)[0] == "epsilon"
            assert not np.any(batch_encode(dic, signals, cfg)[:, 0])

    def test_max_atoms_zero(self):
        rng = np.random.default_rng(33)
        dic = random_dictionary(rng, 5, 7)
        signals = rng.normal(size=(5, 4))
        cfg = KsvdConfig(epsilon=0.0, max_atoms=0)
        assert assert_matches_reference(dic, signals, cfg) == ["max_atoms"] * 4
        assert np.array_equal(batch_encode(dic, signals, cfg), np.zeros((7, 4)))

    def test_single_column(self):
        rng = np.random.default_rng(34)
        dic = random_dictionary(rng, 12, 30)
        signal = rng.normal(size=(12, 1))
        cfg = KsvdConfig(epsilon=0.01, max_atoms=5)
        assert assert_matches_reference(dic, signal, cfg) == ["max_atoms"]

    def test_repeat_calls_bitwise(self):
        rng = np.random.default_rng(35)
        dic = random_dictionary(rng, 32, 200)
        signals = rng.normal(size=(32, 7))
        cfg = KsvdConfig(epsilon=0.045, max_atoms=16)
        first = batch_encode(dic, signals, cfg)
        assert np.array_equal(first, batch_encode(dic, signals, cfg))
        # a column's code does not depend on the other columns of its batch
        assert np.array_equal(first[:, 2:5], batch_encode(dic, signals[:, 2:5], cfg))


class TestDependentAtoms:
    def test_duplicated_atom(self):
        # eps 0 and a budget above d: past d atoms every trial atom is in the
        # span, and atom 3's copy is in the span whenever atom 3 is used
        rng = np.random.default_rng(36)
        raw = rng.normal(size=(6, 10))
        dic = Dictionary.from_matrix(np.column_stack([raw, raw[:, 3]]))
        signals = rng.normal(size=(6, 20))
        cfg = KsvdConfig(epsilon=0.0, max_atoms=9)
        codes = batch_encode(dic, signals, cfg)
        assert not np.any((codes[3] != 0) & (codes[10] != 0))
        assert np.all(np.count_nonzero(codes, axis=0) <= 6)
        assert np.abs(signals - dic.atoms @ codes).max() <= 1e-10
        for j in range(20):
            assert np.array_equal(codes[:, j], batch_encode(dic, signals[:, [j]], cfg)[:, 0])

    @pytest.mark.parametrize("delta", [1e-9, 1e-5])
    def test_numerically_dependent_atom_stops_only_its_column(self, delta):
        # atoms e0 and (e0 + delta e2)/|.|: at delta 1e-9 their Gram block is
        # exactly singular, at 1e-5 the Schur complement is about 1e-10
        cols = np.zeros((3, 3))
        cols[:, 0] = [1.0, 0.0, 0.0]
        cols[:, 1] = [1.0, 0.0, delta]
        cols[:, 2] = [0.0, 1.0, 0.0]
        dic = Dictionary.from_matrix(cols)
        signals = np.array([[1.0, 2.0], [0.0, 3.0], [1.0, 0.0]])
        cfg = KsvdConfig(epsilon=0.0, max_atoms=3)
        codes = batch_encode(dic, signals, cfg)
        # column 0 takes atom 1, then atom 0 is rejected and its code kept
        code, support = encode_one(dic, signals[:, 0], cfg)
        assert support.tolist() == [1]
        assert code[1] == pytest.approx(dic.atoms[:, 1] @ signals[:, 0])
        assert np.array_equal(codes[:, 0], code)
        # column 1 is untouched by column 0's singular system
        assert np.array_equal(codes[:, 1], batch_encode(dic, signals[:, [1]], cfg)[:, 0])
        assert np.abs(signals[:, 1] - dic.atoms @ codes[:, 1]).max() <= 1e-9


def lockstep_reference(dic, signals, cfg):
    """The lockstep loop written with no live-only state: (codes, stops).

    Every step gathers each live column's residual, Gram block and
    right-hand side afresh and scatters every live code again. The
    arithmetic is batch_encode's, operand for operand, so the codes must
    match byte for byte. `stops[j]` is (reason, step) for column j: the step
    at which it stopped, or max_atoms when it used its whole budget.
    """
    atoms = dic.atoms
    signals = np.ascontiguousarray(np.asarray(signals, dtype=float).T)
    m = signals.shape[0]
    codes = np.zeros((dic.num_atoms, m))
    stops = [("max_atoms", cfg.max_atoms)] * m
    support = np.zeros((m, cfg.max_atoms), dtype=np.intp)
    residual = signals.copy()
    stop_norm = sparse_coding._residual_norm(residual, cfg.residual_norm, axis=1)
    l2 = sparse_coding._residual_norm(residual, "l2", axis=1)
    gram = dic.gram
    alpha = np.matmul(signals[:, None, :], atoms)[:, 0, :]
    live = np.arange(m)

    def note(stopped, reason, t):
        for j in stopped:
            stops[j] = (reason, t)

    for t in range(cfg.max_atoms):
        note(live[stop_norm[live] <= cfg.epsilon], "epsilon", t)
        live = live[stop_norm[live] > cfg.epsilon]
        if live.size == 0:
            break
        correlations = np.abs(np.matmul(residual[live, None, :], atoms)[:, 0, :])
        rows = np.arange(live.size)
        correlations[rows[:, None], support[live, :t]] = -1.0
        pick = np.argmax(correlations, axis=1)
        positive = correlations[rows, pick] > 0.0
        note(live[~positive], "zero_correlation", t)
        live = live[positive]
        support[live, t] = pick[positive]
        trial = support[live, : t + 1]

        rhs = np.zeros((live.size, t + 1, 2))
        rhs[:, :, 0] = alpha[live[:, None], trial]
        rhs[:, t, 1] = 1.0
        solution = sparse_coding._solve(gram[trial[:, :, None], trial[:, None, :]], rhs)
        inverse_schur = solution[:, t, 1]
        independent = (inverse_schur > 0.0) & (inverse_schur < 1.0 / sparse_coding._SCHUR_FLOOR)
        singular = np.isnan(inverse_schur)
        note(live[singular], "singular", t)
        note(live[~independent & ~singular], "schur_floor", t)
        live, trial = live[independent], trial[independent]
        trial_coefs = solution[independent, :, 0]

        fitted = np.matmul(trial_coefs[:, None, :], atoms.T[trial])[:, 0, :]
        trial_residual = signals[live] - fitted
        trial_l2 = sparse_coding._residual_norm(trial_residual, "l2", axis=1)
        gain = trial_l2 < l2[live]
        note(live[~gain], "no_gain", t)
        live = live[gain]
        codes[trial[gain], live[:, None]] = trial_coefs[gain]
        accepted = trial_residual[gain]
        residual[live] = accepted
        l2[live] = trial_l2[gain]
        stop_norm[live] = sparse_coding._residual_norm(accepted, cfg.residual_norm, axis=1)

    return codes, stops


def assert_matches_lockstep_reference(dic, signals, cfg):
    """batch_encode against lockstep_reference, byte for byte; returns the stops."""
    codes = batch_encode(dic, signals, cfg)
    expected, stops = lockstep_reference(dic, signals, cfg)
    assert codes.tobytes() == expected.tobytes()
    return stops


@st.composite
def coding_problems(draw):
    """A dictionary, signal columns of several kinds and a coding config.

    Signals are noise, zero, a scaled atom or a planted combination of
    atoms, so columns stop at different steps and for different reasons; a
    repeated atom puts trial atoms exactly in the support's span.
    """
    d, k, m = (draw(st.integers(1, 12)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.normal(size=(d, k))
    if k > 1 and draw(st.booleans()):
        raw[:, k - 1] = -2.0 * raw[:, 0]
    dic = Dictionary.from_matrix(raw)
    signals = np.empty((d, m))
    for j, kind in enumerate(draw(st.lists(st.sampled_from(["noise", "zero", "atom", "planted"]),
                                           min_size=m, max_size=m))):
        if kind == "noise":
            signals[:, j] = rng.normal(size=d)
        elif kind == "zero":
            signals[:, j] = 0.0
        else:
            used = rng.choice(k, size=1 if kind == "atom" else int(rng.integers(1, k + 1)),
                              replace=False)
            signals[:, j] = dic.atoms[:, used] @ rng.normal(size=used.size)
    cfg = KsvdConfig(epsilon=draw(st.sampled_from([0.0, 1e-12, 0.05, 0.5]) | st.floats(0.0, 4.0)),
                     max_atoms=draw(st.integers(0, k)),
                     residual_norm=draw(st.sampled_from(["l1", "l2"])))
    return dic, signals, cfg


def mixed_batches():
    """(dictionary, signals, cfg) params: the stop constructions of the tests
    above, each batched with columns that stop at other steps."""
    rng = np.random.default_rng(37)
    cases = []
    # zero correlation after e0; an exact one-atom signal stops on epsilon at
    # step 1, the zero signal at step 0, noise on the budget
    dic = Dictionary.from_matrix(np.eye(4)[:, [0, 1, 3]])
    signals = np.column_stack([[1.0, 0.0, 3.0, 0.0], [0.0, 2.0, 0.0, 0.0], np.zeros(4),
                               [1.0, -2.0, 0.0, 0.5], rng.normal(size=4)])
    cases.append(("zero_correlation", dic, signals, 0.0, 3))
    # a refit on w = (0, 0, 1e-9, 1) cannot shrink the residual (0, 0, 3, 0)
    cols = np.eye(4)[:, [0, 1, 3]]
    cols[2, 2] = 1e-9
    signals = np.column_stack([[1.0, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, 2.0], np.zeros(4),
                               rng.normal(size=(4, 3))])
    cases.append(("no_gain", Dictionary.from_matrix(cols), signals, 0.0, 3))
    # any two of three atoms span the plane
    dic = Dictionary.from_matrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]))
    signals = np.column_stack([rng.normal(size=(2, 12)), [1.0, 2.0], np.zeros(2)])
    cases.append(("dependent", dic, signals, 0.0, 3))
    # e0 against (e0 + delta e2)/|.|: singular at 1e-9, below the Schur floor at 1e-5
    for delta in (1e-9, 1e-5):
        cols = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, delta, 0.0]])
        signals = np.column_stack([[[1.0, 2.0], [0.0, 3.0], [1.0, 0.0]], np.zeros(3),
                                   [0.0, 5.0, 0.0], rng.normal(size=(3, 3))])
        cases.append((f"delta_{delta:g}", Dictionary.from_matrix(cols), signals, 0.0, 3))
    # a duplicated atom and a budget above d
    raw = rng.normal(size=(6, 10))
    dic = Dictionary.from_matrix(np.column_stack([raw, raw[:, 3]]))
    signals = np.column_stack([rng.normal(size=(6, 12)), dic.atoms[:, [3, 7]] @ [1.0, -0.5],
                               np.zeros(6)])
    cases.append(("duplicated_atom", dic, signals, 0.0, 9))
    # epsilon against the budget on a random dictionary
    dic = random_dictionary(rng, 8, 12)
    signals = rng.normal(size=(8, 12)) * np.geomspace(0.01, 1.0, 12)
    cases.append(("epsilon", dic, signals, 0.1, 4))
    return [pytest.param(dic, signals,
                         KsvdConfig(epsilon=eps, max_atoms=budget, residual_norm=norm),
                         id=f"{name}-{norm}")
            for name, dic, signals, eps, budget in cases for norm in ("l1", "l2")]


MIXED_BATCHES = mixed_batches()


class TestLiveOnlyLockstep:
    """batch_encode's live-only state, grown Gram blocks and codes written
    once, against the lockstep loop that gathers and scatters every step."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(problem=coding_problems())
    def test_matches_reference_bytes(self, problem):
        assert_matches_lockstep_reference(*problem)

    @pytest.mark.parametrize("dic, signals, cfg", MIXED_BATCHES)
    def test_columns_stopping_at_different_steps(self, dic, signals, cfg):
        stops = assert_matches_lockstep_reference(dic, signals, cfg)
        assert len({step for _, step in stops}) > 1
        codes = batch_encode(dic, signals, cfg)
        for j in range(signals.shape[1]):
            assert codes[:, j].tobytes() == batch_encode(dic, signals[:, [j]], cfg).tobytes()

    def test_batches_cover_every_stop_reason(self):
        reasons = set()
        for case in MIXED_BATCHES:
            reasons.update(reason for reason, _ in lockstep_reference(*case.values)[1])
        assert reasons == {"epsilon", "max_atoms", "zero_correlation", "singular",
                           "schur_floor", "no_gain"}

    @pytest.mark.parametrize("residual_norm", ["l1", "l2"])
    def test_acceptance_shape(self, residual_norm):
        # a 32 x 200 embedding table coding a 7-token program, epsilon 0.045
        # and 16 atoms, at scales where columns stop on epsilon and on the budget
        rng = np.random.default_rng(38)
        table = rng.uniform(-0.1, 0.1, size=(32, 200))
        dic = Dictionary.from_matrix(table)
        cfg = KsvdConfig(epsilon=0.045, max_atoms=16, residual_norm=residual_norm)
        steps = set()
        for scale in (0.003, 0.01, 0.03, 1.0):
            theta = rng.uniform(-scale, scale, size=(200, 7))
            stops = assert_matches_lockstep_reference(dic, table @ theta, cfg)
            steps.update(step for _, step in stops)
        assert len(steps) > 3


def frob(signals, dic, codes):
    return np.linalg.norm(signals - dic.atoms @ codes)


def reference_dictionary_update(dictionary, signals, codes, policy, epsilon, residual_norm):
    """The k-SVD sweep as a plain per-atom loop: each atom's support found by
    np.nonzero, every signal's residual norm recomputed for each unused atom."""
    atoms, codes = dictionary.atoms.copy(), codes.copy()
    residual = signals - atoms @ codes
    taken = np.zeros(signals.shape[1], dtype=bool)
    for k in range(atoms.shape[1]):
        used = np.nonzero(codes[k, :])[0]
        if used.size == 0:
            if policy == "keep":
                continue
            errors = sparse_coding._residual_norm(residual, residual_norm, axis=0)
            errors[taken] = -np.inf
            worst = int(np.argmax(errors))
            if not errors[worst] > epsilon:
                continue
            taken[worst] = True
            column = signals[:, worst]
            norm = np.linalg.norm(column)
            if norm > 0:
                atoms[:, k] = column / norm
            continue
        restricted = residual[:, used] + np.outer(atoms[:, k], codes[k, used])
        u, s, vt = np.linalg.svd(restricted, full_matrices=False)
        atom, row = sparse_coding._fix_sign(u[:, 0], s[0] * vt[0])
        atoms[:, k] = atom
        codes[k, used] = row
        residual[:, used] = restricted - np.outer(atom, row)
    return atoms, codes


class TestKsvdDictionaryUpdate:
    @pytest.mark.parametrize("residual_norm", ["l1", "l2"])
    @pytest.mark.parametrize("policy", ["keep", "replace_with_worst_residual"])
    def test_matches_per_atom_reference_bitwise(self, policy, residual_norm):
        rng = np.random.default_rng(26)
        replaced = 0
        for _ in range(60):
            k, n = 12, int(rng.integers(3, 10))
            dic = random_dictionary(rng, 6, k)
            codes = rng.normal(size=(k, n)) * (rng.random(size=(k, n)) < 0.4)
            codes[rng.random(k) < 0.4] = 0.0  # unused atoms between used ones
            signals = rng.normal(size=(6, n))
            # a tolerance that some, but not all, signals' residuals exceed
            residual = signals - dic.atoms @ codes
            norms = sparse_coding._residual_norm(residual, residual_norm, axis=0)
            epsilon = float(np.quantile(norms, rng.random()))
            new_dic, new_codes = ksvd_dictionary_update(dic, signals, codes, policy, epsilon,
                                                        residual_norm)
            atoms, ref_codes = reference_dictionary_update(dic, signals, codes, policy, epsilon,
                                                           residual_norm)
            assert new_dic.atoms.tobytes() == atoms.tobytes()
            assert new_codes.tobytes() == ref_codes.tobytes()
            unused = ~codes.any(axis=1)
            replaced += np.count_nonzero(np.any(atoms[:, unused] != dic.atoms[:, unused], axis=0))
        assert (replaced > 0) == (policy != "keep")

    def test_exact_reconstruction_unchanged(self):
        rng = np.random.default_rng(14)
        dic = random_dictionary(rng, 8, 5)
        codes = rng.normal(size=(5, 12)) * (rng.random(size=(5, 12)) < 0.4)
        signals = dic.atoms @ codes
        new_dic, new_codes = ksvd_dictionary_update(dic, signals, codes)
        assert frob(signals, new_dic, new_codes) <= 1e-10
        # atoms unchanged up to sign
        dots = np.abs(np.sum(new_dic.atoms * dic.atoms, axis=0))
        used = np.count_nonzero(codes, axis=1) > 0
        assert np.allclose(dots[used], 1.0, atol=1e-8)

    def test_error_never_increases(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            dic = random_dictionary(rng, 8, 5)
            codes = rng.normal(size=(5, 10)) * (rng.random(size=(5, 10)) < 0.5)
            signals = rng.normal(size=(8, 10))
            before = frob(signals, dic, codes)
            new_dic, new_codes = ksvd_dictionary_update(dic, signals, codes)
            after = frob(signals, new_dic, new_codes)
            assert after <= before + 1e-10

    def test_unused_atom_keep_is_bitwise(self):
        rng = np.random.default_rng(16)
        dic = random_dictionary(rng, 6, 4)
        codes = rng.normal(size=(4, 8))
        codes[2, :] = 0.0
        signals = rng.normal(size=(6, 8))
        new_dic, _ = ksvd_dictionary_update(dic, signals, codes, policy="keep")
        assert np.array_equal(new_dic.atoms[:, 2], dic.atoms[:, 2])

    def test_unused_atom_replacement_unit_norm(self):
        rng = np.random.default_rng(17)
        dic = random_dictionary(rng, 6, 4)
        codes = rng.normal(size=(4, 8))
        codes[1, :] = 0.0
        signals = rng.normal(size=(6, 8))
        new_dic, _ = ksvd_dictionary_update(dic, signals, codes)
        assert np.linalg.norm(new_dic.atoms[:, 1]) == pytest.approx(1.0, abs=1e-10)

    def test_unused_atom_kept_when_signals_within_epsilon(self):
        # residuals of rounding size are no reason to replace an atom
        rng = np.random.default_rng(24)
        dic = random_dictionary(rng, 6, 5)
        codes = rng.normal(size=(5, 8))
        codes[3, :] = 0.0
        signals = dic.atoms @ codes
        new_dic, _ = ksvd_dictionary_update(dic, signals, codes, epsilon=1e-9)
        assert np.array_equal(new_dic.atoms[:, 3], dic.atoms[:, 3])

    def test_unused_atoms_take_distinct_signals(self):
        rng = np.random.default_rng(25)
        dic = random_dictionary(rng, 6, 5)
        codes = rng.normal(size=(5, 8))
        codes[[3, 4], :] = 0.0
        signals = rng.normal(size=(6, 8))
        new_dic, _ = ksvd_dictionary_update(dic, signals, codes)
        unit = signals / np.linalg.norm(signals, axis=0)
        picks = [
            int(np.argmax(np.abs(unit.T @ new_dic.atoms[:, k]))) for k in (3, 4)
        ]
        for k, j in zip((3, 4), picks):
            assert np.allclose(new_dic.atoms[:, k], unit[:, j], atol=1e-12)
        assert picks[0] != picks[1]

    def test_many_unused_atoms_few_signals(self):
        # more unused atoms than signals: each signal fills at most one atom,
        # and every other unused atom is left bitwise as it was
        rng = np.random.default_rng(26)
        dic = random_dictionary(rng, 32, 200)
        signals = rng.normal(size=(32, 7))
        codes = batch_encode(dic, signals, KsvdConfig(epsilon=0.045, max_atoms=16))
        unused = np.count_nonzero(codes, axis=1) == 0
        kept, _ = ksvd_dictionary_update(dic, signals, codes, policy="keep")
        assert np.array_equal(kept.atoms[:, unused], dic.atoms[:, unused])
        new_dic, _ = ksvd_dictionary_update(dic, signals, codes, epsilon=0.045,
                                            residual_norm="l1")
        changed = unused & np.any(new_dic.atoms != dic.atoms, axis=0)
        assert changed.sum() == 7
        unit = signals / np.linalg.norm(signals, axis=0)
        picks = {int(np.argmax(unit.T @ new_dic.atoms[:, k])) for k in np.flatnonzero(changed)}
        assert len(picks) == 7

    def test_shape_mismatch(self):
        rng = np.random.default_rng(18)
        dic = random_dictionary(rng, 6, 4)
        with pytest.raises(ShapeError):
            ksvd_dictionary_update(dic, np.ones((6, 8)), np.ones((3, 8)))

    def test_sign_convention(self):
        rng = np.random.default_rng(19)
        dic = random_dictionary(rng, 7, 4)
        codes = rng.normal(size=(4, 9)) * (rng.random(size=(4, 9)) < 0.5)
        signals = rng.normal(size=(7, 9))
        new_dic, _ = ksvd_dictionary_update(dic, signals, codes)
        for k in range(4):
            atom = new_dic.atoms[:, k]
            assert atom[np.argmax(np.abs(atom))] >= 0


class TestKsvdRun:
    def test_single_sweep_no_update_equals_batch_encode(self):
        rng = np.random.default_rng(20)
        dic = random_dictionary(rng, 8, 10)
        signals = rng.normal(size=(8, 6))
        cfg = KsvdConfig(epsilon=0.05, max_atoms=4, sweeps=1, update_dictionary=False)
        out_dic, codes, trace = ksvd_run(signals, dic, cfg)
        assert np.array_equal(codes, batch_encode(dic, signals, cfg))
        assert np.array_equal(out_dic.atoms, dic.atoms)
        assert len(trace) == 1

    @staticmethod
    def count_batch_encode(monkeypatch):
        calls = []
        real = sparse_coding.batch_encode

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(sparse_coding, "batch_encode", counted)
        return calls

    def test_fixed_dictionary_codes_once(self, monkeypatch):
        rng = np.random.default_rng(27)
        dic = random_dictionary(rng, 8, 10)
        signals = rng.normal(size=(8, 6))
        cfg = KsvdConfig(epsilon=0.05, max_atoms=4, sweeps=5, update_dictionary=False)
        calls = self.count_batch_encode(monkeypatch)
        out_dic, codes, trace = ksvd_run(signals, dic, cfg)
        assert len(calls) == 1
        assert out_dic is dic
        assert len(trace) == 5 and len(set(trace)) == 1
        assert trace[0] == np.linalg.norm(signals - dic.atoms @ codes)

    def test_dictionary_update_codes_every_sweep(self, monkeypatch):
        rng = np.random.default_rng(28)
        dic = random_dictionary(rng, 8, 10)
        signals = rng.normal(size=(8, 6))
        cfg = KsvdConfig(epsilon=0.05, max_atoms=4, sweeps=4)
        calls = self.count_batch_encode(monkeypatch)
        _, _, trace = ksvd_run(signals, dic, cfg)
        assert len(calls) == 4 and len(trace) == 4

    def test_planted_signals_converge(self):
        rng = np.random.default_rng(21)
        dic = random_dictionary(rng, 12, 16)
        codes = np.zeros((16, 20))
        for j in range(20):
            support = rng.choice(16, size=3, replace=False)
            codes[support, j] = rng.normal(size=3)
        signals = dic.atoms @ codes
        # atom budget above the planted sparsity gives OMP slack on a
        # coherent random dictionary
        cfg = KsvdConfig(epsilon=1e-9, max_atoms=5, sweeps=5)
        _, _, trace = ksvd_run(signals, dic, cfg)
        assert trace[-1] <= 1e-6

    def test_exactly_coded_signals_are_a_fixed_point(self):
        # the planted instance of test_planted_signals_converge: the first
        # sweep codes every signal exactly, and rounding noise must not lead
        # a later sweep to replace an atom
        rng = np.random.default_rng(21)
        dic = random_dictionary(rng, 12, 16)
        codes = np.zeros((16, 20))
        for j in range(20):
            support = rng.choice(16, size=3, replace=False)
            codes[support, j] = rng.normal(size=3)
        signals = dic.atoms @ codes
        cfg = KsvdConfig(epsilon=1e-9, max_atoms=5, sweeps=5)
        _, _, trace = ksvd_run(signals, dic, cfg)
        assert max(trace) <= 1e-12

    def test_update_stage_never_increases_error(self):
        rng = np.random.default_rng(22)
        dic = random_dictionary(rng, 8, 10)
        signals = rng.normal(size=(8, 15))
        cfg = KsvdConfig(epsilon=1e-6, max_atoms=4, sweeps=1)
        for _ in range(10):
            codes = batch_encode(dic, signals, cfg)
            before = frob(signals, dic, codes)
            dic, codes = ksvd_dictionary_update(dic, signals, codes)
            assert frob(signals, dic, codes) <= before + 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        dic = random_dictionary(rng, 8, 10)
        signals = rng.normal(size=(8, 12))
        cfg = KsvdConfig(epsilon=1e-4, max_atoms=4, sweeps=4)
        a = ksvd_run(signals, dic, cfg)
        b = ksvd_run(signals, dic, cfg)
        assert np.array_equal(a[0].atoms, b[0].atoms)
        assert np.array_equal(a[1], b[1])
        assert a[2] == b[2]


class TestKsvdConfig:
    def test_zero_sweeps_rejected(self):
        with pytest.raises(ConfigError):
            KsvdConfig(epsilon=0.1, max_atoms=2, sweeps=0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            KsvdConfig(epsilon=-0.1, max_atoms=2)

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError):
            KsvdConfig(epsilon=0.1, max_atoms=2, unused_atom_policy="drop")
