"""Closed-form disclosure-risk measures for sanitized frequency tables.

The attack event on a cell with size n, counts (n_1, ..., n_K), and noisy
release (n_1 + E_1, ..., n_K + E_K) is that the presence support
{k : n_k + E_k >= 0.5} collapses to a single category that actually occurs
in the cell. Two disjoint routes contribute:

* component 1 ("stays homogeneous"): the cell is homogeneous at k and the
  noise keeps exactly {k} present;
* component 2 ("becomes homogeneous"): the cell is heterogeneous and the
  noise suppresses every occupied category but one.

With cdf(t) = Pr(E < t), sf(t) = 1 - cdf(t) and 0.5 the presence
threshold (mechanisms.PRESENCE_THRESHOLD), the per-cell probability that a
count n stays present is sf(0.5 - n), that a zero count stays absent is
cdf(0.5), and that a count of 1 disappears is cdf(-0.5).

Every measure but local is one weighted sum over cell sizes,
sum_n w1(n) f1(n, eps) + w2(n) f2(n, eps), and only the noise factors f1
and f2 depend on eps. The weights are a size law's mass at n times a
moment pair (M1(n), M2(n)); the measures differ only in those two:

* local: the observed counts are held fixed; the formula
  sum_{k in support} sf(0.5 - n_k) prod_{t != k} cdf(0.5 - n_t)
  is exact for the event probability.
* expected: each table cell at its own size, with the plug-in moments of
  its proportions p (counts redrawn from Multinomial(n, p)); the two-term
  expression's first term is exact and its second covers only the extreme
  heterogeneous configuration {n-1, 1, 0, ...} at single-sequence
  probability, which is NOT a proven bound over all heterogeneous
  configurations; see audit.upper_bound_findings for the empirical check.
* shrinkage: the table's distinct sizes at their cell shares, times the
  Dirichlet(alpha) moment pair (p integrated over the prior).
* global: a size model's series over n >= 1 (Poisson or negative
  binomial, optionally zero-truncated), times the Dirichlet(alpha) pair.
* global variant: that series times the always-homogeneous pair (1, 0) of
  the degenerate prior, leaving only component 1.

A profile holds the distinct sizes n with the weights w1 and w2, so work
that does not depend on eps is done once and each eps point costs
O(distinct sizes). The per-cell measures are symmetric in the categories,
so both read the local profile's grouping of cells by sorted count vector.
``evaluate_measure`` is the public route to one point, and ``risk_curve``
and ``invert_epsilon`` build one profile for all of their points.

All Gamma and Beta ratios are evaluated in log space and exponentiated
last. Series over cell sizes are truncated once the remaining size mass
drops below TAIL_MASS, with a hard cap of estimation.MAX_SERIES_TERMS terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._rng import check_alpha, check_counts, check_int
from .estimation import CellSizeModel
from .mechanisms import PRESENCE_THRESHOLD, PrivacyParams
from .tabulation import FrequencyTable, _fold

TAIL_MASS = 1e-12
EPSILON_LO = 1e-4
EPSILON_HI = 1e4
EPSILON_TOL = 1e-6

# The inputs each measure needs, named as its error message names them.
_NEEDS = {
    "local": ("a table",),
    "expected": ("a table",),
    "shrinkage": ("a table", "alpha"),
    "global": ("alpha", "a size model"),
    "global_variant": ("a size model", "n_categories"),
}
MEASURES = tuple(_NEEDS)


class RiskValue(NamedTuple):
    """Total risk and its two scenario components (value = sum of both)."""

    value: float
    scenario1: float
    scenario8: float
    truncated_at: int | None = None


def _tail_factors(params: PrivacyParams, n_categories: int, n: np.ndarray):
    """Noise factors shared by every measure.

    Returns (t1_factor, t2_factor) where t1_factor[i] multiplies the
    component-1 moment of size n[i] and t2_factor[i] (already masked to
    n >= 2) multiplies the component-2 moment.
    """
    stay_absent = params.cdf(PRESENCE_THRESHOLD)
    drop_one = params.cdf(PRESENCE_THRESHOLD - 1.0)
    stay_present = params.sf(PRESENCE_THRESHOLD - n)
    keep_majority = params.sf(PRESENCE_THRESHOLD + 1.0 - n)
    t1 = stay_absent ** (n_categories - 1) * stay_present
    t2 = np.where(n >= 2, keep_majority * drop_one * stay_absent ** (n_categories - 2), 0.0)
    return t1, t2


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


class _LocalProfile:
    """Distinct sorted count vectors of a counts array in lexicographic order, the first
    row holding each, its indices into the distinct count values, its size n and moment
    sums m1 and m2, and each row's vector; all permutations of a row share one vector."""

    def __init__(self, counts: np.ndarray):
        values, index = np.unique(np.sort(counts, axis=1), return_inverse=True)
        index = index.reshape(counts.shape)  # folded, its rows keep their order
        key = _fold(index.T, [values.size] * counts.shape[1])
        _, self.first, self.row = np.unique(key, return_index=True, return_inverse=True)
        self.index, self.values = index[self.first], values.astype(float)
        configs = self.values[self.index]
        self.present = configs >= 1
        self.homogeneous = (self.present.sum(axis=1) == 1)[self.row]
        self.n = configs.sum(axis=1)
        phat = configs / self.n[:, None]
        self.m1 = (phat ** self.n[:, None]).sum(axis=1)
        self.m2 = (phat ** (self.n[:, None] - 1) * (1.0 - phat)).sum(axis=1)

    def at(self, params: PrivacyParams) -> RiskValue:
        stay = params.sf(PRESENCE_THRESHOLD - self.values)[self.index]
        gone = params.cdf(PRESENCE_THRESHOLD - self.values)[self.index]
        vals = np.zeros(len(stay))
        for j in range(stay.shape[1]):
            others = np.prod(np.delete(gone, j, axis=1), axis=1)
            vals += np.where(self.present[:, j], stay[:, j] * others, 0.0)
        vals = vals[self.row]
        c1 = np.where(self.homogeneous, vals, 0.0)
        return RiskValue(float(np.mean(vals)), float(np.mean(c1)), float(np.mean(vals - c1)))

    def expected(self, params: PrivacyParams) -> np.ndarray:
        """Each configuration's two-term expected value, its one-cell expected profile's."""
        f1, f2 = _tail_factors(params, self.index.shape[1], self.n)
        return self.m1 * f1 + self.m2 * f2


def _expected_profile(counts: np.ndarray) -> _SizeProfile:
    """Cell average of the plug-in moment sums of each cell's configuration, by cell size."""
    local = _LocalProfile(counts)
    n, cell = np.unique(local.n[local.row], return_inverse=True)
    w1 = np.bincount(cell, weights=local.m1[local.row]) / cell.size
    w2 = np.bincount(cell, weights=local.m2[local.row]) / cell.size
    return _SizeProfile(n, w1, w2, counts.shape[1])


def local_risk(counts, params: PrivacyParams) -> RiskValue:
    """Event probability for one cell with fixed observed counts.

    ``counts`` is an integer vector; float or bool counts are refused
    rather than truncated. The value is the exact probability (over the
    noise alone) that the sanitized support collapses onto a single
    occupied category. It is the one-cell case of the table's local
    profile, so it does not depend on the order of the counts. On a
    homogeneous cell that IS the disclosure probability, all of it in
    scenario1; on a heterogeneous cell, all in scenario8, it upper-bounds
    the fraction of records actually disclosed, since only the
    collapsed-to category's records leak.
    """
    return _LocalProfile(check_counts(counts)[None, :]).at(params)


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
    Every measure but local and expected is one size law times one moment pair.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    needs = _NEEDS[measure]
    given = {"a table": table, "alpha": alpha, "a size model": size_model,
             "n_categories": n_categories}
    if any(given[need] is None for need in needs):
        raise ValueError(f"measure {measure!r} requires {' and '.join(needs)}")
    if measure in ("local", "expected"):
        return (_LocalProfile if measure == "local" else _expected_profile)(table.counts)
    if "alpha" in needs:
        alpha = check_alpha(alpha)
        n_categories = alpha.size
    else:
        n_categories = check_int(n_categories, "n_categories", 2)
    if "a table" in needs:  # the table's distinct sizes at their cell shares
        if alpha.size != table.n_categories:
            raise ValueError(
                f"alpha has {alpha.size} entries but the table has {table.n_categories} categories"
            )
        n, cells = np.unique(table.sizes(), return_counts=True)
        w, truncated_at = cells / cells.sum(), None
    else:  # the size model's series, all but TAIL_MASS of its mass
        n = np.arange(1, size_model.tail_quantile(TAIL_MASS) + 1, dtype=np.int64)
        w, truncated_at = size_model.pmf(n), int(n[-1])
        if zero_truncated:
            w = w / (1.0 - size_model.zero_mass())
    m1, m2 = _dirichlet_moments(n, alpha) if "alpha" in needs else (1.0, 0.0)
    return _SizeProfile(n.astype(float), w * m1, w * m2, n_categories, truncated_at)


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


def curve_to_csv(points) -> str:
    lines = ["epsilon,delta,mechanism,measure,value,scenario1_component,scenario8_component\n"]
    for p in points:
        delta = "" if p.delta is None else "%.12g" % p.delta
        row = (p.epsilon, delta, p.mechanism, p.measure, p.value, p.scenario1, p.scenario8)
        lines.append("%.12g,%s,%s,%s,%.12g,%.12g,%.12g\n" % row)
    return "".join(lines)


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
    **inputs,
) -> InversionResult:
    """Largest epsilon whose whole prefix keeps the risk at or below target.

    A 200-point log grid on [EPSILON_LO, EPSILON_HI] locates the last
    crossing (the first grid point whose risk exceeds the target, scanning
    upward; gaussian_adp stops below 1); bisection then shrinks the bracket
    below EPSILON_TOL. Curves are scanned rather than assumed monotone, so a
    non-monotone mixed-table curve still gets its last safe prefix. Raises
    with both asymptote values when the target is outside the achievable
    range. ``inputs`` are as for ``evaluate_measure``.
    """
    if not 0 < target < 1:
        raise ValueError("target risk must be in (0, 1)")
    lo, hi = EPSILON_LO, EPSILON_HI
    if mechanism == "gaussian_adp":
        hi = 1.0 - 1e-9  # calibration domain ends at epsilon = 1
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
        if hi_eps - lo_eps <= EPSILON_TOL:
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
