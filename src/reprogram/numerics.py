"""Float64 matrix checks and the row-wise softmax.

Both work on 64-bit float numpy matrices, validate their inputs, and are
deterministic (sequential numpy reductions, no threading assumptions).
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


def softmax(logits) -> np.ndarray:
    """Shift-invariant softmax over each row of a logit matrix."""
    z = as_matrix(logits)
    if z.shape[1] == 0:
        raise ShapeError("softmax of an empty row")
    z = z - np.max(z, axis=1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=1, keepdims=True)
