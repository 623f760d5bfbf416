"""Closed-form disclosure-risk measures for sanitized frequency tables.

The attack event on a cell with size n, counts (n_1, ..., n_K), and noisy
release (n_1 + E_1, ..., n_K + E_K) is that the presence support
{k : n_k + E_k >= 0.5} collapses to a single category that actually occurs
in the cell. Two disjoint routes contribute:

* component 1 ("stays homogeneous"): the cell is homogeneous at k and the
  noise keeps exactly {k} present;
* component 2 ("becomes homogeneous"): the cell is heterogeneous and the
  noise suppresses every occupied category but one.

With cdf(t) = Pr(E < t) and sf(t) = 1 - cdf(t), the per-cell probability
that a count n stays present is sf(0.5 - n), that a zero count stays
absent is cdf(0.5), and that a count of 1 disappears is cdf(-0.5).

Several measures differ only in what is averaged over:

* local: the observed counts are held fixed; the formula
  sum_{k in support} sf(0.5 - n_k) prod_{t != k} cdf(0.5 - n_t)
  is exact for the event probability.
* expected: counts are redrawn from Multinomial(n, p) with p the plug-in
  cell proportions; evaluated by the two-term expression whose first term
  is exact and whose second term covers only the extreme heterogeneous
  configuration {n-1, 1, 0, ...} at single-sequence probability. The
  second term is NOT a proven bound over all heterogeneous
  configurations; see mc.upper_bound_findings for the empirical check.
* shrinkage: p is additionally integrated over a Dirichlet(alpha) prior,
  turning the moment sums into Gamma-function ratios.
* global: the cell size is integrated over a size model (Poisson or
  negative binomial), summing the shrinkage integrand over n >= 1.
* global variant: like global but with the degenerate prior that makes
  every draw homogeneous, leaving only component 1.

Every measure but local is one weighted sum over cell sizes,
sum_n w1(n) f1(n, eps) + w2(n) f2(n, eps), and only the noise factors f1
and f2 depend on eps. A profile holds the distinct sizes n with the
moment weights w1 and w2, so work that does not depend on eps is done
once and each eps point costs O(distinct sizes); the local profile keeps
the distinct count vectors instead, so each eps point costs O(distinct
vectors) before the per-cell values are gathered back.
``evaluate_measure`` is the public route to one point, and ``risk_curve``
and ``invert_epsilon`` build one profile for all of their points.

All Gamma and Beta ratios are evaluated in log space and exponentiated
last. Series over cell sizes are truncated once the remaining size mass
drops below TAIL_MASS, with a hard cap of MAX_SERIES_TERMS terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._rng import check_alpha, check_counts
from .estimation import CellSizeModel
from .mechanisms import PrivacyParams
from .tabulation import FrequencyTable

TAIL_MASS = 1e-12
MAX_SERIES_TERMS = 10**6

MEASURES = ("local", "expected", "shrinkage", "global", "global_variant")


class RiskValue(NamedTuple):
    """Total risk and its two scenario components (value = sum of both)."""

    value: float
    scenario1: float
    scenario8: float
    truncated_at: int | None = None


class LocalRisk(NamedTuple):
    """Single-cell local risk; exact is True on the homogeneous branch."""

    value: float
    scenario1: float
    scenario8: float
    exact: bool


def _tail_factors(params: PrivacyParams, n_categories: int, n: np.ndarray):
    """Noise factors shared by every measure.

    Returns (t1_factor, t2_factor) where t1_factor[i] multiplies the
    component-1 moment of size n[i] and t2_factor[i] (already masked to
    n >= 2) multiplies the component-2 moment.
    """
    stay_absent = params.cdf(0.5)
    drop_one = params.cdf(-0.5)
    stay_present = params.sf(0.5 - n)
    keep_majority = params.sf(1.5 - n)
    t1 = stay_absent ** (n_categories - 1) * stay_present
    t2 = np.where(n >= 2, keep_majority * drop_one * stay_absent ** (n_categories - 2), 0.0)
    return t1, t2


def _plugin_moments(counts: np.ndarray, n: np.ndarray):
    phat = counts / n[:, None]
    m1 = (phat ** n[:, None]).sum(axis=1)
    m2 = (phat ** (n[:, None] - 1) * (1.0 - phat)).sum(axis=1)
    return m1, m2


def _dirichlet_moments(n: np.ndarray, alpha: np.ndarray):
    """Dirichlet-averaged moment sums as Gamma ratios, in log space.

    m1(n) = sum_k Gamma(a0) Gamma(alpha_k + n) / (Gamma(a0 + n) Gamma(alpha_k))
    m2(n) = Gamma(a0) sum_k Gamma(n + alpha_k - 1) (a0 - alpha_k)
            / (Gamma(alpha_k) Gamma(n + a0))
    """
    from scipy import special

    a0 = float(alpha.sum())
    nf = n.astype(float)
    base = special.gammaln(a0) - special.gammaln(a0 + nf)
    lg_alpha = special.gammaln(alpha)
    m1 = np.exp(
        base[:, None] + special.gammaln(alpha[None, :] + nf[:, None]) - lg_alpha[None, :]
    ).sum(axis=1)
    m2 = (
        (a0 - alpha[None, :])
        * np.exp(
            base[:, None] + special.gammaln(nf[:, None] + alpha[None, :] - 1.0) - lg_alpha[None, :]
        )
    ).sum(axis=1)
    return m1, m2


def _series_weights(size_model: CellSizeModel, zero_truncated: bool):
    """Sizes 1..N covering all but TAIL_MASS of the model's mass."""
    n_max = size_model.tail_quantile(TAIL_MASS)
    if n_max > MAX_SERIES_TERMS:
        raise ValueError(
            f"size-model series needs {n_max} terms, exceeding the cap of {MAX_SERIES_TERMS}"
        )
    n = np.arange(1, n_max + 1, dtype=np.int64)
    w = size_model.pmf(n)
    if zero_truncated:
        w = w / (1.0 - size_model.zero_mass())
    return n, w


class _SizeProfile(NamedTuple):
    """The eps-independent part of a measure: weights w1, w2 on distinct sizes n."""

    n: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    n_categories: int
    truncated_at: int | None = None

    def at(self, params: PrivacyParams) -> RiskValue:
        f1, f2 = _tail_factors(params, self.n_categories, self.n)
        c1 = float(np.sum(self.w1 * f1))
        c2 = float(np.sum(self.w2 * f2))
        return RiskValue(value=c1 + c2, scenario1=c1, scenario8=c2, truncated_at=self.truncated_at)


def _expected_profile(table: FrequencyTable) -> _SizeProfile:
    """Cell average of the plug-in moment sums, grouped by cell size."""
    sizes = table.sizes()
    m1, m2 = _plugin_moments(table.counts.astype(float), sizes.astype(float))
    n, inv = np.unique(sizes, return_inverse=True)
    w1 = np.bincount(inv, weights=m1) / sizes.size
    w2 = np.bincount(inv, weights=m2) / sizes.size
    return _SizeProfile(n.astype(float), w1, w2, table.n_categories)


def _shrinkage_profile(table: FrequencyTable, alpha) -> _SizeProfile:
    """Cell share of each size times the Dirichlet(alpha) moment sums."""
    alpha = check_alpha(alpha)
    if alpha.size != table.n_categories:
        raise ValueError(
            f"alpha has {alpha.size} entries but the table has {table.n_categories} categories"
        )
    n, cells = np.unique(table.sizes(), return_counts=True)
    m1, m2 = _dirichlet_moments(n, alpha)
    share = cells / cells.sum()
    return _SizeProfile(n.astype(float), share * m1, share * m2, alpha.size)


def _global_profile(alpha, size_model: CellSizeModel, zero_truncated: bool, n_categories=None):
    """Size-model series; alpha None is the always-homogeneous prior (M1 = 1, M2 = 0)."""
    if alpha is not None:
        alpha = check_alpha(alpha)
        n_categories = alpha.size
    elif n_categories < 2:
        raise ValueError("n_categories must be at least 2")
    n, w = _series_weights(size_model, zero_truncated)
    m1, m2 = (1.0, 0.0) if alpha is None else _dirichlet_moments(n, alpha)
    return _SizeProfile(n.astype(float), w * m1, w * m2, n_categories, int(n[-1]))


def _collapse_probs(stay: np.ndarray, gone: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Per-row probability that exactly one occupied entry stays present."""
    vals = np.zeros(stay.shape[0])
    for j in range(stay.shape[1]):
        others = np.prod(np.delete(gone, j, axis=1), axis=1)
        vals += np.where(present[:, j], stay[:, j] * others, 0.0)
    return vals


class _LocalProfile:
    """Distinct count vectors of a table, each cell's row among them, and the
    distinct count values with each entry's index into them."""

    def __init__(self, table: FrequencyTable):
        rows, inv = np.unique(table.counts, axis=0, return_inverse=True)
        self.row = inv.ravel()
        self.values, index = np.unique(rows.astype(float), return_inverse=True)
        self.index = index.reshape(rows.shape)
        self.present = rows >= 1
        self.homogeneous = (self.present.sum(axis=1) == 1)[self.row]

    def at(self, params: PrivacyParams) -> RiskValue:
        stay = params.sf(0.5 - self.values)[self.index]
        gone = params.cdf(0.5 - self.values)[self.index]
        vals = _collapse_probs(stay, gone, self.present)[self.row]
        c1 = np.where(self.homogeneous, vals, 0.0)
        return RiskValue(float(np.mean(vals)), float(np.mean(c1)), float(np.mean(vals - c1)))


def local_risk(counts, params: PrivacyParams) -> LocalRisk:
    """Event probability for one cell with fixed observed counts.

    ``counts`` is an integer vector; float or bool counts are refused
    rather than truncated. The value is the exact probability (over the
    noise alone) that the sanitized support collapses onto a single
    occupied category: the disjoint union over occupied k of
    "count k stays present, every other count drops below threshold". On a
    homogeneous cell that IS the disclosure probability (exact=True); on a
    heterogeneous cell it upper-bounds the fraction of records actually
    disclosed, since only the collapsed-to category's records leak.
    """
    arr = check_counts(counts)[None, :]
    t = 0.5 - arr.astype(float)
    total = float(_collapse_probs(params.sf(t), params.cdf(t), arr >= 1)[0])
    if np.count_nonzero(arr) == 1:
        return LocalRisk(value=total, scenario1=total, scenario8=0.0, exact=True)
    return LocalRisk(value=total, scenario1=0.0, scenario8=total, exact=False)


def expected_risk_cells(table: FrequencyTable, params: PrivacyParams) -> np.ndarray:
    """Per-cell two-term expected values, before averaging over cells."""
    n = table.sizes().astype(float)
    m1, m2 = _plugin_moments(table.counts.astype(float), n)
    f1, f2 = _tail_factors(params, table.n_categories, n)
    return m1 * f1 + m2 * f2


def scenario8_peak_epsilon(n) -> float:
    """Epsilon maximizing the become-homogeneous noise factor for size n.

    The factor (1 - 0.5 e^{eps (1.5 - n)}) e^{-0.5 eps} has its interior
    maximum at ln(n - 1) / (n - 1.5) for n > 2; at n = 2 it is monotone
    decreasing in eps and has no interior peak.
    """
    n = float(n)
    if n <= 2:
        raise ValueError("the factor has no interior maximum for n <= 2")
    return math.log(n - 1.0) / (n - 1.5)


@dataclass(frozen=True)
class RiskPoint:
    epsilon: float
    delta: float | None
    mechanism: str
    measure: str
    value: float
    scenario1: float
    scenario8: float


def _profile(
    measure: str,
    *,
    table: FrequencyTable | None = None,
    alpha=None,
    size_model: CellSizeModel | None = None,
    n_categories: int | None = None,
    zero_truncated: bool = False,
):
    """The eps-independent profile of a named measure, validating its inputs.

    The only declaration of the measure inputs: ``evaluate_measure``,
    ``risk_curve`` and ``invert_epsilon`` forward their ``**inputs`` here.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    if measure in ("local", "expected"):
        if table is None:
            raise ValueError(f"measure {measure!r} requires a table")
        return _LocalProfile(table) if measure == "local" else _expected_profile(table)
    if measure == "shrinkage":
        if table is None or alpha is None:
            raise ValueError("measure 'shrinkage' requires a table and alpha")
        return _shrinkage_profile(table, alpha)
    if measure == "global":
        if alpha is None or size_model is None:
            raise ValueError("measure 'global' requires alpha and a size model")
        return _global_profile(alpha, size_model, zero_truncated)
    if size_model is None or n_categories is None:
        raise ValueError("measure 'global_variant' requires a size model and n_categories")
    return _global_profile(None, size_model, zero_truncated, n_categories)


def evaluate_measure(measure: str, params: PrivacyParams, **inputs) -> RiskValue:
    """Evaluate a named measure at one privacy setting.

    ``inputs`` are the keywords the measure needs: ``table`` (local,
    expected, shrinkage), ``alpha`` (shrinkage, global), ``size_model``
    and ``zero_truncated`` (global, global_variant), and ``n_categories``
    (global_variant). ``zero_truncated=True`` renormalizes the size series
    by the mass on n >= 1, matching a sampler that rejects empty cells.
    """
    return _profile(measure, **inputs).at(params)


def risk_curve(measure: str, params_list, **inputs) -> list[RiskPoint]:
    """Evaluate one measure across a list of privacy settings.

    Rows come back sorted by (epsilon, delta). The measure's profile is
    built once from ``inputs`` (as for ``evaluate_measure``) and every
    point is evaluated against it.
    """
    profile = _profile(measure, **inputs)
    ordered = sorted(
        params_list, key=lambda p: (p.epsilon, -1.0 if p.delta is None else p.delta)
    )
    return [
        RiskPoint(p.epsilon, p.delta, p.mechanism, measure, *profile.at(p)[:3]) for p in ordered
    ]


def _fmt12(x: float) -> str:
    return format(float(x), ".12g")


def curve_to_csv(points) -> str:
    lines = ["epsilon,delta,mechanism,measure,value,scenario1_component,scenario8_component"]
    for p in points:
        delta = "" if p.delta is None else _fmt12(p.delta)
        values = [_fmt12(x) for x in (p.value, p.scenario1, p.scenario8)]
        lines.append(",".join([_fmt12(p.epsilon), delta, p.mechanism, p.measure, *values]))
    return "\n".join(lines) + "\n"


def write_curve_csv(points, path) -> None:
    with open(path, "w") as fh:
        fh.write(curve_to_csv(points))


@dataclass(frozen=True)
class InversionResult:
    epsilon: float
    risk: float
    target: float
    measure: str
    mechanism: str
    delta: float | None


def invert_epsilon(
    measure: str,
    target: float,
    mechanism: str,
    *,
    delta: float | None = None,
    lo: float = 1e-4,
    hi: float = 1e4,
    tol: float = 1e-6,
    **inputs,
) -> InversionResult:
    """Largest epsilon whose whole prefix keeps the risk at or below target.

    A 200-point log grid locates the last crossing (the first grid point
    whose risk exceeds the target, scanning upward); bisection then shrinks
    the bracket below ``tol``. Curves are scanned rather than assumed
    monotone, so a non-monotone mixed-table curve still gets its last safe
    prefix. Raises with both asymptote values when the target is outside
    the achievable range. ``inputs`` are as for ``evaluate_measure``.
    """
    if not 0 < target < 1:
        raise ValueError("target risk must be in (0, 1)")
    if mechanism == "gaussian_adp":
        hi = min(hi, 1.0 - 1e-9)  # calibration domain ends at epsilon = 1
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi for the epsilon search range")
    profile = _profile(measure, **inputs)

    def value_at(eps: float) -> float:
        return profile.at(PrivacyParams(mechanism, eps, delta)).value

    grid_eps = np.geomspace(lo, hi, 200)
    values = [value_at(float(e)) for e in grid_eps]
    if values[0] > target:
        raise ValueError(
            f"target {target:g} is below the achievable floor: risk at epsilon={lo:g} "
            f"is already {values[0]:.6g}"
        )
    exceed = next((i for i, v in enumerate(values) if v > target), None)
    if exceed is None:
        raise ValueError(
            f"target {target:g} is never exceeded on the search range: risk at "
            f"epsilon={hi:g} is {values[-1]:.6g} (ceiling) and at epsilon={lo:g} "
            f"is {values[0]:.6g} (floor)"
        )
    lo_eps = float(grid_eps[exceed - 1])
    hi_eps = float(grid_eps[exceed])
    for _ in range(200):
        if hi_eps - lo_eps <= tol:
            break
        mid = math.sqrt(lo_eps * hi_eps)
        if value_at(mid) <= target:
            lo_eps = mid
        else:
            hi_eps = mid
    return InversionResult(
        epsilon=lo_eps,
        risk=value_at(lo_eps),
        target=target,
        measure=measure,
        mechanism=mechanism,
        delta=delta,
    )
