"""Error-constrained sparse coding (OMP) and k-SVD dictionary learning.

Signals are coded greedily against a unit-norm dictionary until either the
residual norm drops below epsilon or the atom budget is exhausted; the
dictionary-update stage replaces each atom and its coefficient row with the
leading singular pair of the atom's restricted residual.

Coding is Batch-OMP (Rubinstein, Zibulevsky & Elad, 2008) run in lockstep:
all signals of a call advance together, one atom per step, with one product
for every live signal's correlations and one stacked solve that refits each
over its support's block of the Gram matrix G = atoms^T atoms, formed once
per call. `omp_encode` is the same path with a single signal.

Update mode (`KsvdConfig.update_dictionary`) decides whether the dictionary
itself is learned: off, the signals are coded once against the fixed
initial atoms, since every further sweep would repeat that coding exactly;
on, each sweep codes and then runs one k-SVD update, so the
returned atoms may drift away from the initial ones and the codes are only
meaningful over the returned dictionary. An atom that no signal uses is
either kept or, as in K-SVD (Aharon, Elad & Bruckstein, 2006), replaced by
the normalised least-represented signal: only signals whose residual exceeds
epsilon qualify, the worst goes first, and no signal fills two atoms. When
no qualifying signal is left the atom is kept, so a dictionary that already
codes every signal within epsilon is a fixed point of the update.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .numerics import as_matrix, as_vector


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
class SparseCode:
    """Support indices, aligned coefficients, and the final l1 residual norm."""

    support: tuple
    coefficients: np.ndarray
    residual_l1: float

    def densify(self, num_atoms: int) -> np.ndarray:
        dense = np.zeros(num_atoms)
        dense[list(self.support)] = self.coefficients
        return dense


@dataclass(frozen=True)
class KsvdConfig:
    """Sparse-coding and k-SVD loop parameters.

    `epsilon` and `residual_norm` set the OMP stopping rule and also which
    signals count as unrepresented when an unused atom is replaced.
    `update_dictionary` turns the k-SVD update on (learned atoms) or off (the
    initial atoms stay fixed). `unused_atom_policy` is "keep" or
    "replace_with_worst_residual"; see the module docstring for the rule.
    """

    epsilon: float
    max_atoms: int
    sweeps: int = 1
    update_dictionary: bool = True
    unused_atom_policy: str = "replace_with_worst_residual"
    residual_norm: str = "l1"

    def __post_init__(self):
        if self.epsilon < 0:
            raise ConfigError("epsilon must be non-negative")
        if self.max_atoms < 0:
            raise ConfigError("max_atoms must be non-negative")
        if self.sweeps < 1:
            raise ConfigError("sweeps must be at least 1")
        if self.unused_atom_policy not in ("keep", "replace_with_worst_residual"):
            raise ConfigError(f"unknown unused_atom_policy {self.unused_atom_policy!r}")
        if self.residual_norm not in ("l1", "l2"):
            raise ConfigError(f"unknown residual_norm {self.residual_norm!r}")


def _residual_norm(residual: np.ndarray, kind: str, axis: int):
    """l1 or l2 norm of each residual along `axis` (columns: 0, rows: 1)."""
    if kind == "l1":
        return np.sum(np.abs(residual), axis=axis)
    return np.linalg.norm(residual, axis=axis)


def omp_encode(dictionary: Dictionary, signal, cfg: KsvdConfig) -> SparseCode:
    """Code one signal by the rules of `batch_encode`, through the same path."""
    signal = as_vector(signal)
    support, coefficients, sizes, residual = _lockstep_omp(
        dictionary, signal[None, :], cfg
    )
    size = sizes[0]
    return SparseCode(
        support=tuple(support[0, :size].tolist()),
        coefficients=coefficients[0, :size],
        residual_l1=float(np.sum(np.abs(residual[0]))),
    )


def batch_encode(dictionary: Dictionary, signals, cfg: KsvdConfig) -> np.ndarray:
    """Error-constrained OMP of every signal column; returns dense K x M codes.

    All columns advance in lockstep, one atom per step. A live column takes
    the atom maximizing |<atom, residual>| (ties to the lowest index), from
    one product atoms^T R over every live residual, and is refit over its
    trial support by one stacked solve with the support's Gram sub-matrix
    and right-hand side alpha = atoms^T x; G and alpha are formed once per
    call. A column stops for good when its residual norm (cfg.residual_norm)
    is within cfg.epsilon, when cfg.max_atoms atoms are active, when its best
    correlation is not positive, or when the trial atom brings no gain: the
    atom is numerically in the span of the support (Schur complement at most
    sqrt(eps), or a singular Gram sub-matrix), or the refit fails to shrink
    the l2 residual. The trial atom is then rejected and the previous code
    kept. Every product and solve is taken per column, so a column's code is
    bitwise the same whatever else shares its batch.
    """
    signals = as_matrix(signals)
    support, coefficients, sizes, _ = _lockstep_omp(dictionary, signals.T, cfg)
    codes = np.zeros((dictionary.num_atoms, signals.shape[1]))
    filled = np.arange(cfg.max_atoms) < sizes[:, None]
    codes[support[filled], np.nonzero(filled)[0]] = coefficients[filled]
    return codes


# A trial atom whose Schur complement s (its squared sine to the support's
# span) is at most sqrt(eps) counts as in that span: a Gram-matrix refit
# loses about eps / s relative accuracy, half the digits at that floor.
_SCHUR_FLOOR = float(np.sqrt(np.finfo(float).eps))


def _solve(gram, rhs):
    """Stacked `np.linalg.solve`; a singular system gives NaN, not an error.

    numpy solves each system of the stack on its own but raises for the
    whole stack when one is singular; the fallback solves them one by one,
    which reproduces every other system bitwise.
    """
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for i in range(len(gram)):
            try:
                out[i] = np.linalg.solve(gram[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _lockstep_omp(dictionary: Dictionary, signals: np.ndarray, cfg: KsvdConfig):
    """The lockstep loop of `batch_encode`, over the rows of `signals` (M x d).

    Returns supports and coefficients (M x cfg.max_atoms; row j holds its
    first sizes[j] atoms in pick order), sizes, and residuals (M x d).
    """
    atoms = dictionary.atoms
    if signals.shape[1] != dictionary.dim:
        raise ShapeError(
            f"signal length {signals.shape[1]} != dictionary dim {dictionary.dim}"
        )
    if cfg.max_atoms > dictionary.num_atoms:
        raise ConfigError("max_atoms exceeds the number of atoms")

    signals = np.ascontiguousarray(signals)  # each row a contiguous BLAS vector
    m = signals.shape[0]
    support = np.zeros((m, cfg.max_atoms), dtype=np.intp)
    coefficients = np.zeros((m, cfg.max_atoms))
    sizes = np.zeros(m, dtype=np.intp)
    residual = signals.copy()
    stop_norm = _residual_norm(residual, cfg.residual_norm, axis=1)
    gram = atoms.T @ atoms
    # (M, 1, d) @ (d, K) is one matrix-vector product per signal, so no
    # signal's arithmetic depends on the others in the batch.
    alpha = np.matmul(signals[:, None, :], atoms)[:, 0, :]
    live = np.arange(m)

    for t in range(cfg.max_atoms):
        live = live[stop_norm[live] > cfg.epsilon]
        if live.size == 0:
            break
        correlations = np.abs(np.matmul(residual[live, None, :], atoms)[:, 0, :])
        chosen = support[live, :t]
        np.put_along_axis(correlations, chosen, -1.0, axis=1)
        pick = np.argmax(correlations, axis=1)
        positive = correlations.max(axis=1) > 0.0
        live = live[positive]
        trial = np.column_stack([chosen[positive], pick[positive]])

        rhs = np.zeros((live.size, t + 1, 2))
        rhs[:, :, 0] = alpha[live[:, None], trial]
        rhs[:, t, 1] = 1.0
        solution = _solve(gram[trial[:, :, None], trial[:, None, :]], rhs)
        # the second right-hand side e_t gives 1 / the trial atom's Schur complement
        inverse_schur = solution[:, t, 1]
        independent = (inverse_schur > 0.0) & (inverse_schur < 1.0 / _SCHUR_FLOOR)
        live, trial = live[independent], trial[independent]
        trial_coefs = solution[independent, :, 0]

        fitted = np.matmul(trial_coefs[:, None, :], atoms.T[trial])[:, 0, :]
        trial_residual = signals[live] - fitted
        trial_l2 = np.linalg.norm(trial_residual, axis=1)
        # a least-squares refit cannot increase the l2 residual; failing to
        # shrink it means the remaining atoms add nothing
        gain = trial_l2 < np.linalg.norm(residual[live], axis=1)
        live = live[gain]
        support[live, : t + 1] = trial[gain]
        coefficients[live, : t + 1] = trial_coefs[gain]
        sizes[live] = t + 1
        residual[live] = trial_residual[gain]
        stop_norm[live] = _residual_norm(residual[live], cfg.residual_norm, axis=1)

    return support, coefficients, sizes, residual


def _fix_sign(atom: np.ndarray, row: np.ndarray):
    """Force the largest-magnitude atom entry non-negative (sign is arbitrary)."""
    peak = int(np.argmax(np.abs(atom)))
    if atom[peak] < 0:
        return -atom, -row
    return atom, row


def ksvd_dictionary_update(
    dictionary: Dictionary,
    signals,
    codes,
    policy: str = "replace_with_worst_residual",
    epsilon: float = 0.0,
    residual_norm: str = "l2",
):
    """One k-SVD sweep over all atoms; returns the new dictionary and codes.

    Each used atom and its coefficient row are jointly replaced by the leading
    singular pair of the residual restricted to the atom's support, so the
    Frobenius reconstruction error cannot increase. Atoms with empty support
    follow `policy`: "keep" leaves them bitwise unchanged, while
    "replace_with_worst_residual" sets each to the normalised signal with the
    largest residual (in `residual_norm`) among those whose residual exceeds
    `epsilon` and that no earlier atom of this sweep took. An unused atom
    with no such signal left is kept. The default tolerance of 0 lets any
    imperfectly coded signal qualify; `ksvd_run` passes the coding epsilon,
    so signals already coded within it are never used as replacements.
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
    # because that atom's coefficient row is zero.
    residual = signals - atoms @ codes
    taken = np.zeros(signals.shape[1], dtype=bool)
    for k in range(atoms.shape[1]):
        used = np.nonzero(codes[k, :])[0]
        if used.size == 0:
            if policy == "keep":
                continue
            errors = _residual_norm(residual, residual_norm, axis=0)
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
    signals are coded once and that error stands for all cfg.sweeps sweeps.
    """
    signals = as_matrix(signals)
    dictionary = init_dict
    error_trace: list[float] = []
    for _ in range(cfg.sweeps if cfg.update_dictionary else 1):
        codes = batch_encode(dictionary, signals, cfg)
        if cfg.update_dictionary:
            dictionary, codes = ksvd_dictionary_update(
                dictionary,
                signals,
                codes,
                policy=cfg.unused_atom_policy,
                epsilon=cfg.epsilon,
                residual_norm=cfg.residual_norm,
            )
        error = float(np.linalg.norm(signals - dictionary.atoms @ codes))
        error_trace.append(error)
    error_trace += error_trace[-1:] * (cfg.sweeps - len(error_trace))
    return dictionary, codes, error_trace
