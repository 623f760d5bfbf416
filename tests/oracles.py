"""Independent closed forms and classifications that the library is checked against.

The paper prints the expected, shrinkage and global measures for two
categories, with Beta-function ratios where the general forms have
Gamma-ratio moment sums; the expected measure's two-term value is also
written cell by cell for any K; and on an all-homogeneous table the expected
measure reduces to the mean over cells of cdf(0.5)^(K-1) * sf(0.5 - n).
The local measure, with the counts held fixed, is a sum over which
occupied category the noise keeps alone, with tails taken straight from
the noise densities. The paper also prints side results that check the
measures rather than form them: the epsilon at which the scenario-8 noise
factor peaks, and the k-way marginals whose total variation distance
measures utility. Each form here is written straight from its formula and
calls no function of hadr (it imports only RiskValue and the TAIL_MASS
constant), so agreement checks the library's kernels instead of restating
them.
"""

import math

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


def _noise_cdf(t, params):
    """Pr(E < t) integrated from the mechanism's density at ``params.scale``:
    exponential tails for Laplace, erf for the Gaussian mechanisms."""
    t = np.asarray(t, dtype=float)
    if params.mechanism == "laplace":
        half_tail = 0.5 * np.exp(-np.abs(t) / params.scale)
        return np.where(t < 0, half_tail, 1.0 - half_tail)
    return 0.5 * (1.0 + erf(t / (params.scale * math.sqrt(2.0))))


def local_risk_direct(counts, params) -> float:
    """sum over occupied k of sf(0.5 - n_k) * prod_{t != k} cdf(0.5 - n_t): count
    k stays present and every other count stays absent, for disjoint k.

    The tails come from ``_noise_cdf``, never from PrivacyParams.cdf or sf;
    the Gaussian lower tail 0.5 * (1 + erf(x)) loses relative accuracy once
    it is far below 1e-4, so check it at scales that keep it above that.
    """
    counts = np.asarray(counts)
    t = 0.5 - counts.astype(float)
    stay, gone = _noise_cdf(-t, params), _noise_cdf(t, params)
    terms = [stay[k] * np.prod(np.delete(gone, k)) for k in range(counts.size) if counts[k] >= 1]
    return float(sum(terms))


def expected_risk_cells_direct(counts, params) -> np.ndarray:
    """Per-cell two-term expected values for any number of categories K.

    With p_k = n_k / n: sum_k p_k^n * cdf(0.5)^(K-1) * sf(0.5 - n), the chance
    that the redraw is homogeneous and stays so, plus, for n >= 2,
    sum_k p_k^(n-1) (1 - p_k) * sf(1.5 - n) * cdf(-0.5) * cdf(0.5)^(K-2), the
    extreme configuration {n-1, 1, 0, ...} collapsing onto its majority. The
    tails come from ``_noise_cdf``, with sf(t) = cdf(-t).
    """
    counts = np.asarray(counts, dtype=float)
    k = counts.shape[1]
    n = counts.sum(axis=1)
    p = counts / n[:, None]
    absent = _noise_cdf(0.5, params)
    first = np.sum(p ** n[:, None], axis=1) * absent ** (k - 1) * _noise_cdf(n - 0.5, params)
    mixed = np.sum(p ** (n[:, None] - 1) * (1.0 - p), axis=1)
    second = mixed * _noise_cdf(n - 1.5, params) * _noise_cdf(-0.5, params) * absent ** (k - 2)
    return first + np.where(n >= 2, second, 0.0)


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


def scenario8_peak_epsilon(n) -> float:
    """Epsilon maximizing the printed become-homogeneous Laplace factor
    (1 - 0.5 e^{eps (1.5 - n)}) e^{-0.5 eps} of size n.

    Its derivative vanishes where (n - 1) e^{eps (1.5 - n)} = 1, that is at
    eps = ln(n - 1) / (n - 1.5), an interior maximum for n > 2; at n = 2 the
    factor falls as eps grows.
    """
    if n <= 2:
        raise ValueError("the factor has no interior maximum for n <= 2")
    return math.log(n - 1.0) / (n - 1.5)


def tuple_marginal(table, spec, counts) -> np.ndarray:
    """The k-way marginal over the QIDs in ``spec`` of per-cell ``counts``, by
    projecting each key tuple in Python: levels are the sorted distinct
    projected tuples."""
    proj = [tuple(key[j] for j in spec) for key in table.keys()]
    index = {lvl: i for i, lvl in enumerate(sorted(set(proj)))}
    sums = np.zeros(len(index))
    for p, total in zip(proj, np.asarray(counts).sum(axis=1)):
        sums[index[p]] += total
    return sums / sums.sum()


def tvd(p, q) -> float:
    """Total variation distance: half the L1 distance of two probability vectors."""
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q, strict=True))


def tvd_quartiles(report, k) -> tuple:
    """Quartiles of the per-marginal mean TVDs at size k: the box of the
    paper's utility figure."""
    means = [row.mean for row in report.rows if row.k == k]
    return tuple(float(x) for x in np.quantile(means, [0.25, 0.5, 0.75]))
