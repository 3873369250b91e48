"""Two overflow-safe float64 kernels: the sigmoid, the tests' reference for
the LSTM's tanh-form gates, and the log-sum-exp of the CRF's log partition.
Both cast their input to float64; the other modules do their own arithmetic.
"""
from __future__ import annotations

import numpy as np


def sigmoid(x, out=None):
    """Elementwise 1 / (1 + e^-x). With e = e^-|x| this is 1 / (1 + e) for
    x >= 0 and e / (1 + e) below, so exp never overflows. The numerator is
    max(e, [x >= 0]): e lies in [0, 1], so max(e, 1) = 1 and max(e, 0) = e,
    which is bitwise the two-branch form (a NaN stays NaN) without a
    branchy select over the mask. `out` (float64, x's shape, may be x
    itself) receives the result."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    res = np.maximum(e, x >= 0, out=out)
    e += 1.0
    res /= e
    return res if res.ndim else float(res)


def logsumexp(scores: np.ndarray) -> float:
    """log sum exp of a 1-d score vector, max-subtracted for stability."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={s.ndim}")
    if s.size == 0:
        raise ValueError("logsumexp of an empty vector")
    m = np.max(s)
    if not np.isfinite(m):
        raise ValueError("logsumexp of non-finite scores")
    return float(m + np.log(np.sum(np.exp(s - m))))
