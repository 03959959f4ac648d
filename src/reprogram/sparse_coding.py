"""Error-constrained sparse coding (OMP) and k-SVD dictionary learning.

Signals are coded greedily against a unit-norm dictionary until either the
residual norm drops below epsilon or the atom budget is exhausted; the
dictionary-update stage replaces each atom and its coefficient row with the
leading singular pair of the atom's restricted residual.

Update mode (`KsvdConfig.update_dictionary`) decides whether the dictionary
itself is learned: off, every sweep codes the signals against the fixed
initial atoms; on, each sweep codes and then runs one k-SVD update, so the
returned atoms may drift away from the initial ones and the codes are only
meaningful over the returned dictionary. An atom that no signal uses is
either kept or, as in K-SVD (Aharon, Elad & Bruckstein, 2006), replaced by
the normalised least-represented signal: only signals whose residual exceeds
epsilon qualify, the worst goes first, and no signal fills two atoms. When
no qualifying signal is left the atom is kept, so a dictionary that already
codes every signal within epsilon is a fixed point of the update.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .numerics import as_matrix, as_vector, thin_svd


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


def _residual_norm(residual: np.ndarray, kind: str, axis=None):
    """l1 or l2 norm of a residual vector, or of each column with axis=0."""
    if kind == "l1":
        return np.sum(np.abs(residual), axis=axis)
    return np.linalg.norm(residual, axis=axis)


def omp_encode(dictionary: Dictionary, signal, cfg: KsvdConfig) -> SparseCode:
    """Greedy atom selection with least-squares refit on the chosen support.

    Stops as soon as the residual norm is within cfg.epsilon or cfg.max_atoms
    atoms are active. Atom selection maximizes |<atom, residual>|, ties going
    to the lowest index; an atom that fails to shrink the residual is rejected
    and coding stops.
    """
    signal = as_vector(signal)
    if signal.size != dictionary.dim:
        raise ShapeError(
            f"signal length {signal.size} != dictionary dim {dictionary.dim}"
        )
    if cfg.max_atoms > dictionary.num_atoms:
        raise ConfigError("max_atoms exceeds the number of atoms")

    atoms = dictionary.atoms
    residual = signal.copy()
    support: list[int] = []
    coefficients = np.zeros(0)
    stop_norm = _residual_norm(residual, cfg.residual_norm)
    l2 = float(np.linalg.norm(residual))

    while stop_norm > cfg.epsilon and len(support) < cfg.max_atoms:
        correlations = np.abs(atoms.T @ residual)
        correlations[support] = -1.0
        pick = int(np.argmax(correlations))
        if correlations[pick] <= 0.0:
            break
        trial = support + [pick]
        coefs, *_ = np.linalg.lstsq(atoms[:, trial], signal, rcond=None)
        new_residual = signal - atoms[:, trial] @ coefs
        new_l2 = float(np.linalg.norm(new_residual))
        # least-squares refit cannot increase the l2 residual; a failure to
        # shrink it means the remaining atoms add nothing
        if new_l2 >= l2:
            break
        support = trial
        coefficients = coefs
        residual = new_residual
        l2 = new_l2
        stop_norm = _residual_norm(residual, cfg.residual_norm)

    return SparseCode(
        support=tuple(support),
        coefficients=coefficients,
        residual_l1=float(np.sum(np.abs(residual))),
    )


def batch_encode(dictionary: Dictionary, signals, cfg: KsvdConfig) -> np.ndarray:
    """Code every signal column independently; returns dense K x M codes."""
    signals = as_matrix(signals)
    codes = np.zeros((dictionary.num_atoms, signals.shape[1]))
    for j in range(signals.shape[1]):
        code = omp_encode(dictionary, signals[:, j], cfg)
        codes[:, j] = code.densify(dictionary.num_atoms)
    return codes


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
        svd = thin_svd(restricted)
        atom = svd.u[:, 0]
        row = svd.singular_values[0] * svd.vt[0, :]
        atom, row = _fix_sign(atom, row)
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
    reconstruction error recorded after each sweep.
    """
    signals = as_matrix(signals)
    dictionary = init_dict
    codes = np.zeros((dictionary.num_atoms, signals.shape[1]))
    error_trace: list[float] = []
    for _ in range(cfg.sweeps):
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
    return dictionary, codes, error_trace
