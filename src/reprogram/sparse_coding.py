"""Error-constrained sparse coding (OMP) and k-SVD dictionary learning.

Signals are coded greedily against a unit-norm dictionary until either the
residual's l1 norm drops to epsilon or the atom budget is exhausted; the
dictionary-update stage replaces each atom and its coefficient row with the
leading singular pair of the atom's restricted residual.

Each signal is coded on its own; a refit solves over its support's block
of the Gram matrix G = atoms^T atoms, formed once per call.

Update mode (`KsvdConfig.update_dictionary`) decides whether the dictionary
itself is learned: off, the signals are coded once against the fixed
initial atoms, since every further sweep would repeat that coding exactly;
on, each sweep codes and then runs one k-SVD update, so the
returned atoms may drift away from the initial ones and the codes are only
meaningful over the returned dictionary. An atom that no signal uses is,
as in K-SVD (Aharon, Elad & Bruckstein, 2006), replaced by the normalised
least-represented signal: only signals whose l1 residual exceeds epsilon
qualify, the worst goes first, and no signal fills two atoms. When no
qualifying signal is left the atom is kept, so a dictionary that already
codes every signal within epsilon is a fixed point of the update.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .numerics import as_matrix


@dataclass(frozen=True)
class Dictionary:
    """Unit-norm atom columns (d x K) plus the pre-normalization column norms.

    Codes produced against the normalized atoms can be mapped back to
    coefficients over the original columns with `fold_codes`.
    """

    atoms: np.ndarray
    column_norms: np.ndarray

    @classmethod
    def from_matrix(cls, columns) -> "Dictionary":
        cols = as_matrix(columns)
        if cols.shape[0] < 1 or cols.shape[1] < 1:
            raise ShapeError("dictionary needs at least one row and one column")
        norms = np.linalg.norm(cols, axis=0)
        if np.any(norms == 0.0):
            raise NumericError("dictionary has a zero column")
        atoms = cols / norms
        atoms.flags.writeable = False
        norms.flags.writeable = False
        return cls(atoms=atoms, column_norms=norms)

    @property
    def dim(self) -> int:
        return self.atoms.shape[0]

    @property
    def num_atoms(self) -> int:
        return self.atoms.shape[1]

    def fold_codes(self, codes: np.ndarray) -> np.ndarray:
        """Rescale codes over unit atoms into codes over the original columns."""
        return codes / self.column_norms[:, None]


@dataclass(frozen=True)
class KsvdConfig:
    """Sparse-coding and k-SVD loop parameters.

    `epsilon` bounds the l1 residual: it stops OMP and also decides which
    signals count as unrepresented when an unused atom is replaced.
    `update_dictionary` turns the k-SVD update on (learned atoms) or off (the
    initial atoms stay fixed). `sweeps` counts k-SVD sweeps, so it means
    nothing over a fixed dictionary: `ksvd_run` codes once and repeats that
    coding error for each sweep.
    """

    epsilon: float
    max_atoms: int
    sweeps: int = 1
    update_dictionary: bool = True

    def __post_init__(self):
        if self.epsilon < 0:
            raise ConfigError("epsilon must be non-negative")
        if self.max_atoms < 0:
            raise ConfigError("max_atoms must be non-negative")
        if self.sweeps < 1:
            raise ConfigError("sweeps must be at least 1")


# A trial atom whose Schur complement s (its squared sine to the support's
# span) is at most sqrt(eps) counts as in that span: a Gram-matrix refit
# loses about eps / s relative accuracy, half the digits at that floor.
_SCHUR_FLOOR = float(np.sqrt(np.finfo(float).eps))


def _l2(residual: np.ndarray) -> float:
    """l2 norm by numpy's pairwise sum, as `np.linalg.norm` rounds a matrix's
    row norms; of a single vector it takes a BLAS dot, which rounds otherwise."""
    return np.sqrt(np.sum(residual * residual))


def _omp(atoms, gram, signal, cfg: KsvdConfig):
    """Error-constrained OMP of one signal: its support in pick order and coefficients."""
    alpha = signal @ atoms
    support, coefs = np.zeros(0, dtype=np.intp), np.zeros(0)
    residual, l2 = signal, _l2(signal)
    while np.sum(np.abs(residual)) > cfg.epsilon and support.size < cfg.max_atoms:
        # the first residual is the signal, so alpha is the first step's product
        correlations = np.abs(residual @ atoms if support.size else alpha)
        correlations[support] = -1.0
        pick = correlations.argmax()
        trial = np.append(support, pick)
        rhs = np.zeros((trial.size, 2))
        rhs[:, 0] = alpha[trial]
        rhs[-1, 1] = 1.0
        try:
            solution = np.linalg.solve(gram[np.ix_(trial, trial)], rhs)
        except np.linalg.LinAlgError:  # an exactly singular block: the atom is in the span
            break
        # the second right-hand side e_t gives 1 / the trial atom's Schur complement
        inverse_schur = solution[-1, 1]
        # contiguous: numpy's matmul takes a strided vector through its own
        # loop, which rounds differently from BLAS
        trial_coefs = np.ascontiguousarray(solution[:, 0])
        trial_residual = signal - trial_coefs @ atoms.T[trial]
        trial_l2 = _l2(trial_residual)
        # a least-squares refit cannot increase the l2 residual; failing to
        # shrink it means the remaining atoms add nothing
        if not (correlations[pick] > 0.0 and 0.0 < inverse_schur < 1.0 / _SCHUR_FLOOR
                and trial_l2 < l2):
            break
        support, coefs, residual, l2 = trial, trial_coefs, trial_residual, trial_l2
    return support, coefs


def batch_encode(dictionary: Dictionary, signals, cfg: KsvdConfig) -> np.ndarray:
    """Error-constrained OMP of every signal column; returns dense K x M codes.

    Each column is coded on its own, so its code does not depend on the
    other columns of the call. A step takes the atom maximizing
    |<atom, residual>| (ties to the lowest index) and refits the signal
    over the trial support by one solve with the support's block of the
    Gram matrix G = atoms^T atoms and the right-hand side alpha = atoms^T x;
    G is formed once per call, alpha once per signal. The trial atom is
    accepted only if its correlation is positive, it is numerically outside
    the support's span (Schur complement above sqrt(eps), and a non-singular
    Gram block), and the refit shrinks the l2 residual. A column stops when
    the l1 norm of its residual is within cfg.epsilon, when cfg.max_atoms
    atoms are active, or when it rejects its trial atom and keeps its code.
    """
    atoms = dictionary.atoms
    signals = as_matrix(signals)
    if signals.shape[0] != dictionary.dim:
        raise ShapeError(
            f"signal length {signals.shape[0]} != dictionary dim {dictionary.dim}"
        )
    if cfg.max_atoms > dictionary.num_atoms:
        raise ConfigError(f"max_atoms {cfg.max_atoms} exceeds the dictionary's "
                          f"{dictionary.num_atoms} atoms")

    gram = atoms.T @ atoms
    codes = np.zeros((dictionary.num_atoms, signals.shape[1]))
    # one contiguous row per signal, as BLAS takes a vector
    for j, signal in enumerate(np.ascontiguousarray(signals.T)):
        support, coefs = _omp(atoms, gram, signal, cfg)
        codes[support, j] = coefs
    return codes


def _fix_sign(atom: np.ndarray, row: np.ndarray):
    """Force the largest-magnitude atom entry non-negative (sign is arbitrary)."""
    peak = int(np.argmax(np.abs(atom)))
    if atom[peak] < 0:
        return -atom, -row
    return atom, row


def ksvd_dictionary_update(dictionary: Dictionary, signals, codes, epsilon: float = 0.0):
    """One k-SVD sweep over all atoms; returns the new dictionary and codes.

    Each used atom and its coefficient row are jointly replaced by the leading
    singular pair of the residual restricted to the atom's support, so the
    Frobenius reconstruction error cannot increase. Each atom with empty
    support is set to the normalised signal with the largest l1 residual
    among those whose residual exceeds `epsilon` and that no earlier atom of
    this sweep took. An unused atom with no such signal left is kept. The
    default tolerance of 0 lets any imperfectly coded signal qualify;
    `ksvd_run` passes the coding epsilon, so signals already coded within it
    are never used as replacements.
    """
    signals = as_matrix(signals)
    codes = as_matrix(codes)
    atoms = dictionary.atoms.copy()
    if signals.shape[0] != atoms.shape[0]:
        raise ShapeError("signals and dictionary disagree on dimension")
    if codes.shape != (atoms.shape[1], signals.shape[1]):
        raise ShapeError("codes shape inconsistent with dictionary and signals")
    codes = codes.copy()

    # Kept current as atoms change; replacing an unused atom leaves it as is
    # because its row of codes is zero. Only atom k's update writes row k.
    residual = signals - atoms @ codes
    supports = codes != 0
    in_use = supports.any(axis=1)
    taken = np.zeros(signals.shape[1], dtype=bool)
    # The residual norms (taken signals at -inf), and whether none of them
    # qualifies, hold until a used atom's update moves the residual.
    errors, exhausted = None, False
    for k in range(atoms.shape[1]):
        if not in_use[k]:
            if exhausted:
                continue
            if errors is None:
                errors = np.sum(np.abs(residual), axis=0)
                errors[taken] = -np.inf
            worst = int(np.argmax(errors))
            if not errors[worst] > epsilon:
                exhausted = True
                continue
            taken[worst] = True
            errors[worst] = -np.inf
            column = signals[:, worst]
            norm = np.linalg.norm(column)
            if norm > 0:
                atoms[:, k] = column / norm
            continue
        used = np.flatnonzero(supports[k])
        # Residual with atom k removed, restricted to the signals that use it.
        restricted = residual[:, used] + np.outer(atoms[:, k], codes[k, used])
        u, s, vt = np.linalg.svd(restricted, full_matrices=False)
        atom, row = _fix_sign(u[:, 0], s[0] * vt[0])
        atoms[:, k] = atom
        codes[k, used] = row
        residual[:, used] = restricted - np.outer(atom, row)
        errors, exhausted = None, False

    # Every column is unit-norm already; normalising again would move kept
    # atoms in their last bits.
    atoms.flags.writeable = False
    norms = np.ones(atoms.shape[1])
    norms.flags.writeable = False
    return Dictionary(atoms=atoms, column_norms=norms), codes


def ksvd_run(signals, init_dict: Dictionary, cfg: KsvdConfig):
    """Alternate coding and (optionally) dictionary update for cfg.sweeps sweeps.

    Returns the final dictionary, the final dense codes, and the Frobenius
    reconstruction error recorded after each sweep. With a fixed dictionary
    every sweep would code the same signals against the same atoms, so the
    signals are coded once and that error stands for all cfg.sweeps sweeps.
    """
    signals = as_matrix(signals)
    dictionary = init_dict
    error_trace: list[float] = []
    for _ in range(cfg.sweeps if cfg.update_dictionary else 1):
        codes = batch_encode(dictionary, signals, cfg)
        if cfg.update_dictionary:
            dictionary, codes = ksvd_dictionary_update(dictionary, signals, codes,
                                                       epsilon=cfg.epsilon)
        error = float(np.linalg.norm(signals - dictionary.atoms @ codes))
        error_trace.append(error)
    error_trace += error_trace[-1:] * (cfg.sweeps - len(error_trace))
    return dictionary, codes, error_trace
