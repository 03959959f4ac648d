"""Error-constrained sparse coding (OMP) and k-SVD dictionary learning.

Signals are coded greedily against a unit-norm dictionary until either the
residual's l1 norm drops to epsilon or the atom budget is exhausted; the
dictionary-update stage replaces each atom and its coefficient row with the
leading singular pair of the atom's restricted residual.

Coding is Batch-OMP (Rubinstein, Zibulevsky & Elad, 2008) run in lockstep:
all signals of a call advance together, one atom per step, with one product
for every live signal's correlations and one stacked solve that refits each
over its support's block of the Gram matrix G = atoms^T atoms, formed once
per call. A single signal is a batch of one column.
As in Batch-OMP, a step extends what the last one built: state is kept for
live columns only, Gram blocks grow by one row and column, and a code is
written once, when its column stops. The refit is still an LU solve per
step, so the codes are the plain lockstep loop's, bit for bit.

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


def _residual_norm(residual: np.ndarray, kind: str, axis: int):
    """l1 or l2 norm of each residual along `axis` (columns: 0, rows: 1).

    The same reductions as `np.sum` and `np.linalg.norm`, bitwise, without
    their per-call Python overhead, which the coding loop pays every step.
    """
    if kind == "l1":
        return np.add.reduce(np.abs(residual), axis=axis)
    return np.sqrt(np.add.reduce(residual * residual, axis=axis))


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


class _LiveColumns:
    """`batch_encode`'s state, one row per column still coding.

    `column` is the row's signal column, `support` its atoms in pick order,
    `coefs` its refit over the accepted ones, and `block` and `rhs` the
    support's Gram block and the refit's two right-hand sides.
    """

    __slots__ = ("column", "signal", "alpha", "residual", "l2", "stop_norm",
                 "support", "coefs", "block", "rhs")

    def __init__(self, **arrays):
        for name, value in arrays.items():
            setattr(self, name, value)

    def stop(self, keep, codes, atoms):
        """Write the code of each row outside `keep` into `codes`, then drop the row.

        A stopped column's code is its first `atoms` atoms with their
        accepted coefficients; the trial atom past them, if any, was
        rejected. Returns the index of the rows kept.
        """
        done = ~keep
        codes[self.support[done, :atoms], self.column[done, None]] = self.coefs[done]
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[keep])
        return np.arange(self.column.size)


def batch_encode(dictionary: Dictionary, signals, cfg: KsvdConfig) -> np.ndarray:
    """Error-constrained OMP of every signal column; returns dense K x M codes.

    All columns advance in lockstep, one atom per step. A live column takes
    the atom maximizing |<atom, residual>| (ties to the lowest index), from
    one product atoms^T R over every live residual, and is refit over its
    trial support by one stacked solve with the support's Gram sub-matrix
    and right-hand side alpha = atoms^T x; G and alpha are formed once per
    call and, the first residual being the signal, alpha is also the first
    step's product. A column stops for good when the l1 norm of its
    residual is within cfg.epsilon, when cfg.max_atoms atoms are active, or
    when it rejects its trial atom and keeps its previous code.
    One acceptance test, after the trial refit, takes the atom only if its
    correlation is positive, it is numerically outside the support's span
    (Schur complement above sqrt(eps), and a non-singular Gram sub-matrix),
    and the refit shrinks the l2 residual.

    A step touches only what it changes. The state is held for live columns
    alone and compacted when one stops, which happens once per column, so a
    step with no stop gathers nothing. Each column's Gram sub-matrix and
    right-hand sides grow by one row and column per step, in buffers
    allocated once per call, and its code is written once, when it stops.
    Every product and solve is taken per column, on the operands a fresh
    gather would give, so a column's code is bitwise the same whatever else
    shares its batch.
    """
    atoms = dictionary.atoms
    signals = as_matrix(signals)
    if signals.shape[0] != dictionary.dim:
        raise ShapeError(
            f"signal length {signals.shape[0]} != dictionary dim {dictionary.dim}"
        )
    if cfg.max_atoms > dictionary.num_atoms:
        raise ConfigError("max_atoms exceeds the number of atoms")

    signals = np.ascontiguousarray(signals.T)  # one row per signal, a contiguous BLAS vector
    m, width = signals.shape[0], cfg.max_atoms
    codes = np.zeros((dictionary.num_atoms, m))
    # exactly symmetric, which the Gram blocks below rely on: numpy forms a
    # matrix times its own transpose as one triangle and mirrors it
    gram = atoms.T @ atoms
    live = _LiveColumns(
        column=np.arange(m),
        signal=signals,
        # (M, 1, d) @ (d, K) is one matrix-vector product per signal, so no
        # signal's arithmetic depends on the others in the batch.
        alpha=np.matmul(signals[:, None, :], atoms)[:, 0, :],
        residual=signals,
        l2=_residual_norm(signals, "l2", axis=1),
        stop_norm=_residual_norm(signals, "l1", axis=1),
        support=np.zeros((m, width), dtype=np.intp),
        coefs=np.zeros((m, 0)),
        block=np.zeros((m, width, width)),
        rhs=np.zeros((m, width, 2)),
    )
    rows = np.arange(m)

    for t in range(width):
        keep = live.stop_norm > cfg.epsilon
        if not keep.all():
            rows = live.stop(keep, codes, t)
        if not rows.size:
            return codes
        if t:
            correlations = np.abs(np.matmul(live.residual[:, None, :], atoms)[:, 0, :])
            correlations[rows[:, None], live.support[:, :t]] = -1.0
        else:
            correlations = np.abs(live.alpha)
        pick = correlations.argmax(axis=1)
        # a column that rejects its trial atom stops for good, so the support
        # row can hold the trial support before the atom is accepted
        live.support[:, t] = pick
        positive = correlations[rows, pick] > 0.0
        trial = live.support[:, : t + 1]

        # the trial atom's row of the Gram block and, G being symmetric, its
        # column; its entry of each right-hand side: alpha, and e_t for e_(t-1)
        live.block[:, t, : t + 1] = gram[pick[:, None], trial]
        live.block[:, :t, t] = live.block[:, t, :t]
        live.rhs[:, t, 0] = live.alpha[rows, pick]
        live.rhs[:, t, 1] = 1.0
        if t:
            live.rhs[:, t - 1, 1] = 0.0
        solution = _solve(live.block[:, : t + 1, : t + 1], live.rhs[:, : t + 1])
        # the second right-hand side e_t gives 1 / the trial atom's Schur complement
        inverse_schur = solution[:, t, 1]
        independent = (inverse_schur > 0.0) & (inverse_schur < 1.0 / _SCHUR_FLOOR)
        # contiguous, as a fresh gather gives it: numpy's matmul takes a strided
        # vector through its own loop, which rounds differently from BLAS
        trial_coefs = np.ascontiguousarray(solution[:, :, 0])

        fitted = np.matmul(trial_coefs[:, None, :], atoms.T[trial])[:, 0, :]
        trial_residual = live.signal - fitted
        trial_l2 = _residual_norm(trial_residual, "l2", axis=1)
        # a least-squares refit cannot increase the l2 residual; failing to
        # shrink it means the remaining atoms add nothing
        gain = trial_l2 < live.l2
        # a column that fails any of the three rejects its trial atom; every
        # product and solve above is its own, so the others' bits are unchanged
        accept = positive & independent & gain
        if not accept.all():
            rows = live.stop(accept, codes, t)
            trial_coefs, trial_residual, trial_l2 = (
                trial_coefs[accept], trial_residual[accept], trial_l2[accept])
        live.coefs, live.residual, live.l2 = trial_coefs, trial_residual, trial_l2
        live.stop_norm = _residual_norm(trial_residual, "l1", axis=1)

    codes[live.support, live.column[:, None]] = live.coefs
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
                errors = _residual_norm(residual, "l1", axis=0)
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
