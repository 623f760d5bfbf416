"""Closed forms written from the paper's formulas, for the output checks.

Nothing here imports the program: these are independent numpy versions
of the noise tails and of the measures the checks compare against.

With cdf(t) = Pr(E < t) and sf(t) = Pr(E >= t) for the noise E, a cell of
size n over K categories has component-1 factor
f1(n) = cdf(0.5)^(K-1) * sf(0.5 - n) and component-2 factor
f2(n) = [n >= 2] * sf(1.5 - n) * cdf(-0.5) * cdf(0.5)^(K-2).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_erfc = np.vectorize(math.erfc, otypes=[float])


def noise_scale(mechanism: str, epsilon: float, delta: float | None) -> float:
    if mechanism == "laplace":
        return 1.0 / epsilon
    if mechanism == "gaussian_adp":
        return math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon
    z = NormalDist().inv_cdf(delta / 2.0) if delta < 1 else 0.0
    return (math.sqrt(z * z + 2.0 * epsilon) - z) / (2.0 * epsilon)


def tails(mechanism: str, scale: float, t):
    """(cdf(t), sf(t)) of the noise, each computed on its accurate side."""
    t = np.asarray(t, dtype=float)
    if mechanism == "laplace":
        half = 0.5 * np.exp(-np.abs(t) / scale)
        return np.where(t >= 0, 1.0 - half, half), np.where(t >= 0, half, 1.0 - half)
    x = t / (scale * math.sqrt(2.0))
    return 0.5 * _erfc(-x), 0.5 * _erfc(x)


def factors(mechanism, scale, n, k):
    """Component factors f1(n), f2(n) for integer sizes n."""
    n = np.asarray(n, dtype=float)
    absent, _ = tails(mechanism, scale, 0.5)
    drop_one, _ = tails(mechanism, scale, -0.5)
    _, present = tails(mechanism, scale, 0.5 - n)
    _, keep = tails(mechanism, scale, 1.5 - n)
    f1 = absent ** (k - 1) * present
    f2 = np.where(n >= 2, keep * drop_one * absent ** (k - 2), 0.0)
    return f1, f2


def expected_curve(counts: np.ndarray, mechanism, eps_values, delta) -> np.ndarray:
    """Cell-averaged two-term expected measure at each epsilon, shape (len, 3).

    Columns are value, component 1 and component 2. The moment sums use
    plug-in proportions: M1 = sum_k p_k^n and M2 = sum_k p_k^(n-1) (1 - p_k).
    """
    n = counts.sum(axis=1)
    p = counts / n[:, None]
    m1 = (p ** n[:, None]).sum(axis=1)
    m2 = (p ** (n[:, None] - 1) * (1.0 - p)).sum(axis=1)
    sizes, inv = np.unique(n, return_inverse=True)
    out = []
    for eps in eps_values:
        f1, f2 = factors(mechanism, noise_scale(mechanism, eps, delta), sizes, counts.shape[1])
        c1 = float(np.mean(m1 * f1[inv]))
        c2 = float(np.mean(m2 * f2[inv]))
        out.append((c1 + c2, c1, c2))
    return np.array(out)


def negbin_weights(r: float, p: float, tail: float = 1e-15):
    """Sizes 1..N and zero-truncated NB(r, p) weights, N leaving < tail mass.

    Past the mode the pmf falls at least geometrically with ratio close to
    1 - p, so the mass beyond a term t is below about t / p.
    """
    log_pmf0 = r * math.log(p)
    mode = max(0.0, (r - 1.0) * (1.0 - p) / p)
    terms, n = [], 0
    while n < 10**6:
        n += 1
        lp = math.lgamma(n + r) - math.lgamma(r) - math.lgamma(n + 1) + log_pmf0 + n * math.log1p(-p)
        terms.append(math.exp(lp))
        if n > mode and terms[-1] / p < tail:
            break
    w = np.array(terms) / (1.0 - math.exp(log_pmf0))
    return np.arange(1, n + 1), w


def dirichlet_moments(n, alpha):
    """Dirichlet(alpha)-averaged moment sums m1(n), m2(n) via log-Gamma."""
    alpha = np.asarray(alpha, dtype=float)
    a0 = float(alpha.sum())
    lg = np.vectorize(math.lgamma, otypes=[float])
    n = np.asarray(n, dtype=float)[:, None]
    base = lg(a0) - lg(a0 + n) - lg(alpha)[None, :]
    m1 = np.exp(base + lg(alpha[None, :] + n)).sum(axis=1)
    m2 = ((a0 - alpha[None, :]) * np.exp(base + lg(n + alpha[None, :] - 1.0))).sum(axis=1)
    return m1, m2


def global_measure(alpha, r, p, mechanism, eps, delta):
    """Zero-truncated global measure: (value, component 1, component 2)."""
    n, w = negbin_weights(r, p)
    m1, m2 = dirichlet_moments(n, alpha)
    f1, f2 = factors(mechanism, noise_scale(mechanism, eps, delta), n, len(alpha))
    c1, c2 = float(np.sum(w * m1 * f1)), float(np.sum(w * m2 * f2))
    return c1 + c2, c1, c2


def global_variant_curve(r, p, k, mechanism, eps_values, delta) -> np.ndarray:
    """Zero-truncated always-homogeneous global measure at each epsilon."""
    n, w = negbin_weights(r, p)
    return np.array([
        float(np.sum(w * factors(mechanism, noise_scale(mechanism, e, delta), n, k)[0]))
        for e in eps_values
    ])


def local_event(counts, mechanism, eps, delta) -> float:
    """Exact probability that the support collapses onto one occupied category."""
    counts = np.asarray(counts, dtype=float)
    gone, stay = tails(mechanism, noise_scale(mechanism, eps, delta), 0.5 - counts)
    return float(sum(
        stay[j] * np.prod(np.delete(gone, j)) for j in np.nonzero(counts >= 1)[0]
    ))


def scenario1_single(n, p, mechanism, eps, delta) -> float:
    """Component 1 for a size-n cell redrawn from Multinomial(n, p)."""
    p = np.asarray(p, dtype=float)
    f1, _ = factors(mechanism, noise_scale(mechanism, eps, delta), [n], p.size)
    return float(np.sum(p**n) * f1[0])


def scenario1_shrinkage(n, alpha, mechanism, eps, delta) -> float:
    m1, _ = dirichlet_moments([n], alpha)
    f1, _ = factors(mechanism, noise_scale(mechanism, eps, delta), [n], len(alpha))
    return float(m1[0] * f1[0])


def dirichlet_mom(counts: np.ndarray) -> np.ndarray:
    """Per-category method-of-moments Dirichlet concentration vector."""
    n = counts.sum(axis=1).astype(float)
    total, q = n.sum(), float((n**2).sum())
    p = counts.sum(axis=0) / total
    s2 = ((counts - n[:, None] * p[None, :]) ** 2).sum(axis=0)
    pq = p * (1.0 - p)
    return p * (pq * q - s2) / (s2 - pq * total)
