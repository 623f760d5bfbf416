"""Special-function kernels with validated domains.

Thin wrappers over scipy.special that pin down the domains the risk
formulas rely on. Accuracy contracts (checked against an arbitrary
precision oracle in the test suite):

* log_gamma: relative error <= 1e-12 on (0, 1e6]
* norm_cdf: absolute error <= 1e-12
* inv_norm_cdf: absolute error <= 1e-9 for p in [1e-15, 1 - 1e-15]

scipy.special is imported by the first call of a kernel, here and in the
size-model kernels of ``hadr.estimation``, not at module import: it is most
of the start-up cost of ``import hadr`` (through array_api_compat it pulls
in numpy.f2py, numpy.testing and numpy.ma), and tabulation and Laplace
noise never need it. Later calls find it in ``sys.modules``; the import
lock makes a first call from several threads at once safe.
"""

from __future__ import annotations

import numpy as np

__all__ = ["log_gamma", "inv_norm_cdf", "norm_cdf"]


def _ret(x, out):
    return float(out) if np.ndim(x) == 0 and not isinstance(x, np.ndarray) else out


def log_gamma(x):
    """Natural log of the Gamma function, defined here for x > 0 only."""
    from scipy import special

    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(arr > 0):
        raise ValueError("log_gamma requires x > 0")
    return _ret(x, special.gammaln(arr))


def inv_norm_cdf(p):
    """Standard normal quantile; requires 0 < p < 1."""
    from scipy import special

    arr = np.asarray(p, dtype=float)
    if arr.size and not np.all((arr > 0) & (arr < 1)):
        raise ValueError("inv_norm_cdf requires 0 < p < 1")
    return _ret(p, special.ndtri(arr))


def norm_cdf(x):
    """Standard normal CDF (via scipy's ndtr, accurate in both tails)."""
    from scipy import special

    return _ret(x, special.ndtr(np.asarray(x, dtype=float)))
