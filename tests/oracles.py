"""Independent closed forms and classifications that the library is checked against.

The paper prints the expected, shrinkage and global measures for two
categories, with Beta-function ratios where the general forms have
Gamma-ratio moment sums; and on an all-homogeneous table the expected
measure reduces to the mean over cells of cdf(0.5)^(K-1) * sf(0.5 - n).
Each form here is written straight from its formula and calls no
function of hadr.risk (it reads only the TAIL_MASS constant), so
agreement checks the library's size-profile kernel instead of restating
it.
"""

import numpy as np
from scipy import special

from hadr import RiskValue
from hadr.risk import TAIL_MASS

# The error function, a route to the normal cdf that does not pass through
# the scipy.special.ndtr that PrivacyParams.cdf calls.
erf = special.erf


def log_beta(a, b):
    """log B(a, b) for a, b > 0, whose ratios the printed two-category forms use."""
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    if (aa.size and not np.all(aa > 0)) or (bb.size and not np.all(bb > 0)):
        raise ValueError("log_beta requires a > 0 and b > 0")
    return special.betaln(aa, bb)


def _risk_from_cells(t1, t2) -> RiskValue:
    c1 = float(np.mean(t1))
    c2 = float(np.mean(t2))
    return RiskValue(value=float(np.mean(t1 + t2)), scenario1=c1, scenario8=c2)


def homogeneous_risk(table, params) -> RiskValue:
    """Exact average risk for an all-homogeneous table.

    Every cell's value is the probability that its single occupied
    category stays present while the other K - 1 stay absent; the average
    lies strictly between 2**-K and 1.
    """
    for key, counts in zip(table.keys(), table.counts):
        if np.count_nonzero(counts) != 1:
            raise ValueError(f"cell {key!r} is heterogeneous")
    n = table.sizes().astype(float)
    t1 = params.cdf(0.5) ** (table.n_categories - 1) * params.sf(0.5 - n)
    return _risk_from_cells(t1, np.zeros_like(t1))


def expected_risk_k2(table, params) -> RiskValue:
    """Printed two-category form of the expected measure."""
    if table.n_categories != 2:
        raise ValueError("expected_risk_k2 requires exactly 2 categories")
    counts = table.counts.astype(float)
    n = table.sizes().astype(float)
    p = counts[:, 0] / n
    q = counts[:, 1] / n
    t1 = (p**n + q**n) * params.cdf(0.5) * params.sf(0.5 - n)
    t2 = np.where(
        n >= 2,
        (p ** (n - 1) * q + q ** (n - 1) * p) * params.sf(1.5 - n) * params.cdf(-0.5),
        0.0,
    )
    return _risk_from_cells(t1, t2)


def _beta_terms_k2(n: np.ndarray, alpha, params):
    """Per-size terms of the printed two-category forms via Beta-function ratios."""
    if len(alpha) != 2:
        raise ValueError("the two-category forms require exactly 2 categories")
    a1, a2 = float(alpha[0]), float(alpha[1])
    log_b0 = log_beta(a1, a2)
    b1 = np.exp(log_beta(n + a1, a2) - log_b0) + np.exp(log_beta(a1, n + a2) - log_b0)
    t1 = b1 * params.cdf(0.5) * params.sf(0.5 - n)
    b2 = np.exp(log_beta(a1 + n - 1, a2 + 1) - log_b0) + np.exp(
        log_beta(a1 + 1, n + a2 - 1) - log_b0
    )
    t2 = np.where(n >= 2, b2 * params.sf(1.5 - n) * params.cdf(-0.5), 0.0)
    return t1, t2


def shrinkage_risk_k2(sizes, alpha, params) -> RiskValue:
    """Printed two-category shrinkage form: the cell average of the Beta terms."""
    return _risk_from_cells(*_beta_terms_k2(np.asarray(sizes, dtype=float), alpha, params))


def global_risk_k2(alpha, size_model, params) -> RiskValue:
    """Printed two-category global form: the Beta terms weighted by the raw
    size pmf over n = 1 .. the size model's (1 - TAIL_MASS) quantile."""
    n = np.arange(1, size_model.tail_quantile(TAIL_MASS) + 1)
    w = size_model.pmf(n)
    t1, t2 = _beta_terms_k2(n.astype(float), alpha, params)
    c1 = float(np.sum(w * t1))
    c2 = float(np.sum(w * t2))
    return RiskValue(value=c1 + c2, scenario1=c1, scenario8=c2, truncated_at=int(n[-1]))


def classify_scenario(counts, support) -> int:
    """Scenario code (1-8) for original counts and a sanitized support set,
    written case by case from the taxonomy in hadr.mc."""
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.size < 2:
        raise ValueError("counts must be a vector with at least 2 categories")
    if counts.sum() < 1:
        raise ValueError("the original cell must be non-empty")
    support = sorted(set(int(k) for k in support))
    if support and not (0 <= support[0] and support[-1] < counts.size):
        raise ValueError("support indices out of range")
    occupied = np.nonzero(counts >= 1)[0]
    homog = occupied.size == 1
    if len(support) == 0:
        return 4 if homog else 6
    if len(support) >= 2:
        return 3 if homog else 5
    hit = counts[support[0]] >= 1
    if homog:
        return 1 if hit else 2
    return 8 if hit else 7
