"""Float64 input checks and differentiable-loss primitives.

All public operations work on 64-bit float numpy arrays, validate their
inputs, and are deterministic (sequential numpy reductions, no threading
assumptions beyond BLAS determinism for fixed shapes).
"""

import numpy as np

from .errors import NumericError, ShapeError


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise NumericError("matrix contains NaN or Inf")
    return m


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting non-finite entries."""
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise NumericError("vector contains NaN or Inf")
    return x


def softmax(logits) -> np.ndarray:
    """Shift-invariant softmax over a logit vector, or over each row of a matrix."""
    z = np.asarray(logits, dtype=np.float64)
    z = as_vector(z) if z.ndim < 2 else as_matrix(z)
    if z.shape[-1] == 0:
        raise ShapeError("softmax of an empty vector")
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def cross_entropy(probs, label: int) -> float:
    """Negative log-probability of the given class index."""
    p = as_vector(probs)
    if not 0 <= label < p.size:
        raise IndexError(f"label {label} out of range for {p.size} classes")
    return float(-np.log(p[label]))
