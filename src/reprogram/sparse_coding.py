"""Error-constrained sparse coding (OMP) and k-SVD dictionary learning.

Signals are coded greedily against a unit-norm dictionary until either the
residual's l1 norm drops to epsilon or the atom budget is exhausted; the
dictionary-update stage replaces each used atom and its coefficient row with
the leading singular pair of the atom's restricted residual, and each unused
atom with a poorly coded signal (K-SVD: Aharon, Elad & Bruckstein, 2006).

Inputs are checked once, at the module's entry: `Dictionary.from_matrix`
checks the atoms and `ksvd_run` the signals and the atom budget. The steps
it runs each sweep, `batch_encode` and `ksvd_dictionary_update`, trust it.

Update mode (`KsvdConfig.update_dictionary`) decides whether the dictionary
itself is learned: off, the signals are coded once against the fixed
initial atoms, since every further sweep would repeat that coding exactly;
on, each sweep codes and then runs one k-SVD update, so the returned atoms
may drift away from the initial ones and the codes are only meaningful over
the returned dictionary.
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
        """Normalize the columns of a finite matrix; a column whose norm is 0 or overflows
        is a NumericError."""
        cols = as_matrix(columns)
        if cols.shape[0] < 1 or cols.shape[1] < 1:
            raise ShapeError("dictionary needs at least one row and one column")
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(cols, axis=0)
        if not np.all((norms > 0.0) & np.isfinite(norms)):
            raise NumericError("dictionary has a column whose norm is 0 or overflows")
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
    nothing over a fixed dictionary: `ksvd_run` codes once and records that
    one coding error (`codings`). These defaults (1 sweep, learned atoms) are the
    library's; the CLI's config sets its own (5 sweeps, fixed atoms) until the
    learned-dictionary path is kept or dropped.
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

    @property
    def codings(self) -> int:
        """How many times `ksvd_run` codes the signals: once per sweep when the
        dictionary is learned, once in all over a fixed one."""
        return self.sweeps if self.update_dictionary else 1


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

    Trusts `ksvd_run`, its one caller, to have checked `signals` and cfg.
    """
    atoms = dictionary.atoms
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

    Trusts `ksvd_run`, its one caller, for `signals` and the `codes` it built.
    """
    atoms = dictionary.atoms.copy()
    codes = codes.copy()

    # Kept current as atoms change; replacing an unused atom leaves it as is
    # because its row of codes is zero. Only atom k's update writes row k.
    residual = signals - atoms @ codes
    supports = codes != 0
    in_use = supports.any(axis=1)
    taken = np.zeros(signals.shape[1], dtype=bool)
    for k in range(atoms.shape[1]):
        if not in_use[k]:
            errors = np.sum(np.abs(residual), axis=0)
            errors[taken] = -np.inf
            worst = int(np.argmax(errors))
            if errors[worst] > epsilon:
                taken[worst] = True
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
    signals are coded once and the trace holds that one coding's error.

    Signals that are not a finite matrix of the dictionary's dim are a
    ShapeError or NumericError, and cfg.max_atoms above the atom count is a
    ConfigError; the per-sweep steps check nothing again.
    """
    signals = as_matrix(signals)
    if signals.shape[0] != init_dict.dim:
        raise ShapeError(f"signal length {signals.shape[0]} != dictionary dim {init_dict.dim}")
    if cfg.max_atoms > init_dict.num_atoms:
        raise ConfigError(f"max_atoms {cfg.max_atoms} exceeds the dictionary's "
                          f"{init_dict.num_atoms} atoms")
    dictionary, error_trace = init_dict, []
    for _ in range(cfg.codings):
        codes = batch_encode(dictionary, signals, cfg)
        if cfg.update_dictionary:
            dictionary, codes = ksvd_dictionary_update(dictionary, signals, codes,
                                                       epsilon=cfg.epsilon)
        error_trace.append(float(np.linalg.norm(signals - dictionary.atoms @ codes)))
    return dictionary, codes, error_trace
