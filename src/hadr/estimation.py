"""Hyperparameter estimation for the shrinkage and global risk measures.

Two pieces get fitted from an observed table:

* a Dirichlet concentration vector for the within-cell category mix,
  by method of moments on the per-category dispersion across cells;
* a cell-size model (Poisson or negative binomial) for the global
  measure's series over sizes.

The Dirichlet estimator treats each category k separately. With pooled
proportion p_k and squared deviations s2_k = sum_i (n_ik - n_i p_k)^2,
a Dirichlet-multinomial with concentration A0 satisfies

    E[s2_k] = p_k (1 - p_k) (A0 N + Q) / (A0 + 1),

where N = sum_i n_i and Q = sum_i n_i^2. Inverting for A0 category by
category gives one implied concentration per category; their spread is
reported as a model-fit diagnostic, and alpha_k = p_k * A0^(k) is the
estimate. Plugging the estimate back reproduces each s2_k exactly, which
the tests assert as an invariant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from reprlib import repr as _brief  # bounded: echoed input values may be huge

import numpy as np

from ._rng import check_integers
from .tabulation import FrequencyTable, read_number

SIZE_FAMILIES = ("poisson", "negbin")

# Most sizes a size-model series may sum over.
MAX_SERIES_TERMS = 10**6

# Largest mean size a model may have: the size-model kernels take sizes as
# doubles, and 2**53 is the largest bound below which every integer is a
# double.
_MAX_MEAN_SIZE = 2.0**53


@dataclass(frozen=True, eq=False)
class DirichletFit:
    """Moment-matched concentration vector plus its consistency diagnostic.

    implied_concentrations[k] is the total concentration A0 that category
    k's dispersion alone implies; alpha_dot_spread is max minus min of
    those. A large spread means the single-prior model fits the table
    poorly, though the pooled estimate is still returned.
    """

    alpha: np.ndarray
    implied_concentrations: np.ndarray
    alpha_dot_spread: float


def fit_dirichlet_mom(table: FrequencyTable) -> DirichletFit:
    """Method-of-moments Dirichlet fit from a table's cells."""
    counts = table.counts
    n = table.sizes().astype(float)
    total = n.sum()
    big_q = float((n**2).sum())
    p_hat = counts.sum(axis=0) / total
    if np.any(p_hat <= 0):
        missing = int(np.argmin(p_hat))
        raise ValueError(
            f"category index {missing} never occurs; drop it before fitting"
        )
    fitted = n[:, None] * p_hat[None, :]
    s2 = ((counts - fitted) ** 2).sum(axis=0)
    pq = p_hat * (1.0 - p_hat)
    denom = s2 - pq * total
    numer = pq * big_q - s2
    if np.any(denom <= 0):
        bad = int(np.argmax(denom <= 0))
        raise ValueError(
            f"category index {bad} shows no overdispersion beyond multinomial "
            "sampling; a Dirichlet prior is not identifiable from these cells"
        )
    if np.any(numer <= 0):
        bad = int(np.argmax(numer <= 0))
        raise ValueError(
            f"category index {bad} is more dispersed than any Dirichlet-multinomial allows"
        )
    concentration = numer / denom
    alpha = p_hat * concentration
    spread = float(concentration.max() - concentration.min())
    return DirichletFit(alpha=alpha, implied_concentrations=concentration, alpha_dot_spread=spread)


@dataclass(frozen=True)
class CellSizeModel:
    """Count distribution for cell sizes.

    For the ``poisson`` family ``lam`` is the rate. For ``negbin`` it is
    the success probability p and ``r`` the shape, so a size counts the
    failures before the r-th success; both are chosen so the moments match
    the data.
    """

    family: str
    lam: float
    r: float | None = None

    def __post_init__(self):
        if self.family not in SIZE_FAMILIES:
            raise ValueError(f"unknown size family {_brief(self.family)}")
        for name in ("lam", "r"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"size model {name} must be finite, got {value!r}")
        if self.family == "poisson":
            if not self.lam > 0:
                raise ValueError("poisson rate must be positive")
            if self.r is not None:
                raise ValueError("poisson model takes no shape parameter")
        else:
            if not 0 < self.lam < 1:
                raise ValueError("negbin success probability must lie in (0, 1)")
            if self.r is None or not self.r > 0:
                raise ValueError("negbin model needs a positive shape r")
        mean = self.mean()
        if not mean <= _MAX_MEAN_SIZE:
            what = "rate lam" if self.family == "poisson" else "mean r(1-p)/p, with p = lam,"
            raise ValueError(
                f"{self.family} size model {what} is {mean:g}, above 2**53, the largest size"
                " held exactly"
            )

    def pmf(self, n) -> np.ndarray:
        from scipy import special

        k = np.asarray(n, dtype=float)
        if self.r is None:
            return np.exp(special.xlogy(k, self.lam) - special.gammaln(k + 1) - self.lam)
        log_choose = special.gammaln(self.r + k) - special.gammaln(k + 1) - special.gammaln(self.r)
        return np.exp(log_choose + self.r * math.log(self.lam) + special.xlog1py(k, -self.lam))

    def sf(self, n) -> np.ndarray:
        """P(X > n) at integers n >= -1: gammainc(n + 1, lam) is P(Poisson > n)
        but is also 1 at n = -1, as betainc(0, r, 1 - p) is."""
        from scipy import special

        k = np.asarray(n, dtype=float)
        if self.r is None:
            return special.gammainc(k + 1, self.lam)
        return special.betainc(k + 1, self.r, 1.0 - self.lam)

    def zero_mass(self) -> float:
        return float(self.pmf(0))

    def mean(self) -> float:
        return self.lam if self.r is None else self.r * (1.0 - self.lam) / self.lam

    def tail_quantile(self, mass: float) -> int:
        """Smallest N >= 1 with P(X > N) < mass. An N past MAX_SERIES_TERMS is
        refused before any search; otherwise strides from 1 double until the
        tail is below mass, then bisection narrows the bracket."""
        if not self.sf(MAX_SERIES_TERMS) < mass:
            raise ValueError(
                f"size-model series needs more than {MAX_SERIES_TERMS} terms, exceeding the cap"
            )
        lo = hi = step = 1
        while not self.sf(hi) < mass:
            hi, step = 1 + step, 2 * step
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if self.sf(mid) < mass else (mid + 1, hi)
        return hi


def _check_size_sample(sizes) -> np.ndarray:
    arr = np.asarray(sizes)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least 2 cell sizes to fit a size model")
    check_integers(sizes, arr, "cell sizes")
    if not np.all(arr >= 1):
        raise ValueError("cell sizes must be >= 1")
    return arr.astype(float)


def fit_poisson(sizes, *, zero_truncated: bool = False) -> CellSizeModel:
    """Moment fit of the Poisson size model.

    Plain fit sets the rate to the sample mean. The zero-truncated fit
    accounts for empty cells never being observed, solving
    lam / (1 - exp(-lam)) = mean for lam by bisection on (0, mean], where
    the left side rises from 1 to above the mean; that requires mean > 1.
    """
    arr = _check_size_sample(sizes)
    m = float(arr.mean())
    if not zero_truncated:
        return CellSizeModel("poisson", m)
    if m <= 1.0:
        raise ValueError(
            "zero-truncated fit needs a sample mean above 1; every positive rate "
            "gives a truncated mean above 1"
        )
    lo, hi = 0.0, m
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if mid / -math.expm1(-mid) < m:
            lo = mid
        else:
            hi = mid
    return CellSizeModel("poisson", hi)


def fit_negbin(sizes) -> CellSizeModel:
    """Moment fit of the negative binomial size model.

    Matches mean m and variance v (ddof=1): success probability m / v and
    shape m^2 / (v - m). Requires overdispersion; if v <= m the family
    degenerates and a Poisson fit is the right model instead.
    """
    arr = _check_size_sample(sizes)
    m = float(arr.mean())
    v = float(arr.var(ddof=1))
    if v <= m:
        raise ValueError(
            f"sample variance {v:g} does not exceed the mean {m:g}; "
            "use the poisson family instead"
        )
    p = m / v
    r = m * p / (1.0 - p)
    return CellSizeModel("negbin", p, r)


def dirichlet_to_json(fit: DirichletFit) -> str:
    payload = {
        "alpha": [float(a) for a in fit.alpha],
        "alpha_dot_spread": float(fit.alpha_dot_spread),
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def size_model_to_json(model: CellSizeModel) -> str:
    payload: dict = {"family": model.family, "lambda": float(model.lam)}
    if model.r is not None:
        payload["r"] = float(model.r)
    return json.dumps(payload, separators=(",", ":")) + "\n"


def size_model_from_json(text: str) -> CellSizeModel:
    """Parse a size-model JSON; malformed fields are rejected, never coerced."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("size-model JSON is nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("size-model JSON must be an object")
    try:
        family, lam = obj["family"], obj["lambda"]
    except KeyError as exc:
        raise ValueError(f"size-model JSON is missing field {exc.args[0]!r}") from None
    what = "size-model JSON"
    lam, r = read_number(lam, what, "lambda"), read_number(obj.get("r"), what, "r", nullable=True)
    return CellSizeModel(family, lam, r)
