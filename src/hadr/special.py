"""Special-function kernels with validated domains.

Thin wrappers over scipy.special that pin down the domains the risk
formulas rely on. Accuracy contracts (checked against an arbitrary
precision oracle in the test suite):

* log_gamma: relative error <= 1e-12 on (0, 1e6]
* norm_cdf: absolute error <= 1e-12
* inv_norm_cdf: absolute error <= 1e-9 for p in [1e-15, 1 - 1e-15]
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

__all__ = ["log_gamma", "inv_norm_cdf", "norm_cdf"]


def _ret(x, out):
    return float(out) if np.ndim(x) == 0 and not isinstance(x, np.ndarray) else out


def log_gamma(x):
    """Natural log of the Gamma function, defined here for x > 0 only."""
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(arr > 0):
        raise ValueError("log_gamma requires x > 0")
    return _ret(x, _sp.gammaln(arr))


def inv_norm_cdf(p):
    """Standard normal quantile; requires 0 < p < 1."""
    arr = np.asarray(p, dtype=float)
    if arr.size and not np.all((arr > 0) & (arr < 1)):
        raise ValueError("inv_norm_cdf requires 0 < p < 1")
    return _ret(p, _sp.ndtri(arr))


def norm_cdf(x):
    """Standard normal CDF (via scipy's ndtr, accurate in both tails)."""
    return _ret(x, _sp.ndtr(np.asarray(x, dtype=float)))
