"""Float64 matrix checks and the row-wise softmax.

Both work on 64-bit float numpy matrices and are deterministic (sequential
numpy reductions, no threading assumptions). `as_matrix` checks finiteness at
the boundaries; `softmax` checks only shapes.
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
    """Shift-invariant softmax over each row of a logit matrix.

    Logits come from checked inputs, so they are not scanned for finiteness.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ShapeError(f"softmax needs a 2-D matrix with non-empty rows, got shape {z.shape}")
    e = z - z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e
