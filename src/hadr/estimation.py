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
from functools import cached_property

import numpy as np

from .tabulation import FrequencyTable

SIZE_FAMILIES = ("poisson", "negbin")

# Most entries the inverse-cdf table of a size model holds (8 MiB of doubles).
_CDF_TABLE_CAP = 1 << 20

# Largest mean size a model may have: the size-model kernels take sizes as
# doubles, and 2**53 is the largest bound below which every integer is a
# double.
_MAX_MEAN_SIZE = 2.0**53


def _counts_of(data) -> np.ndarray:
    if isinstance(data, FrequencyTable):
        return data.counts
    arr = np.asarray(data)
    if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValueError("need a cells-by-categories counts matrix with at least 2 of each")
    if not np.issubdtype(arr.dtype, np.integer):  # float or bool counts are refused, not truncated
        raise ValueError(f"counts must be integers, got dtype {arr.dtype}")
    if not np.all(arr >= 0):
        raise ValueError("counts must be non-negative")
    return arr.astype(np.int64)


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
    p_hat: np.ndarray


def fit_dirichlet_mom(data) -> DirichletFit:
    """Method-of-moments Dirichlet fit from a counts matrix or table."""
    counts = _counts_of(data)
    m, k = counts.shape
    n = counts.sum(axis=1).astype(float)
    if np.any(n < 1):
        raise ValueError("every cell must contain at least one record")
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
    return DirichletFit(
        alpha=alpha,
        implied_concentrations=concentration,
        alpha_dot_spread=spread,
        p_hat=p_hat,
    )


def _first_size(holds, lo) -> np.ndarray:
    """Smallest integers n >= lo with holds(n), elementwise, for a holds that
    turns from false to true once as n grows (a cdf reaching a level, an sf
    falling below one). Strides from lo double until holds is true, then
    bisection narrows the bracket: about 2 log2(n - lo) calls."""
    lo = np.array(lo, dtype=np.int64)
    hi, step = lo, 1
    while not (done := holds(hi)).all():
        hi = np.where(done, hi, lo + step)
        step *= 2
    while (lo < hi).any():
        mid = (lo + hi) // 2
        done = holds(mid)
        hi = np.where(done, mid, hi)
        lo = np.where(done, lo, mid + 1)
    return hi


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
            raise ValueError(f"unknown size family {self.family!r}")
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

    @cached_property
    def _cdf_table(self) -> tuple[int, np.ndarray]:
        """(s, cdf at sizes s, s + 1, ...), read only by truncated_ppf.

        The table spans one below the lower 1e-16 tail quantile, where the
        cdf lies below about 1e-16 (it is 0 when that quantile is 0), to
        the upper 1e-16 tail quantile. A span of more than _CDF_TABLE_CAP
        entries is cut to that many: s moves up to the median minus half
        the cap (a size model is right-skewed, so a span that fits is never
        cut), and the bulk of the draws still fall inside. The running
        maximum keeps it sorted for np.searchsorted; on a monotone cdf it
        changes nothing.
        """
        start = int(_first_size(lambda n: self.cdf(n) >= 1e-16, 0)) - 1
        median = int(_first_size(lambda n: self.cdf(n) >= 0.5, 0))
        start = max(start, median - _CDF_TABLE_CAP // 2)
        stop = min(self.tail_quantile(1e-16), start + _CDF_TABLE_CAP - 1)
        return start, np.maximum.accumulate(self.cdf(np.arange(start, stop + 1)))

    def pmf(self, n) -> np.ndarray:
        from scipy import special

        k = np.asarray(n, dtype=float)
        if self.r is None:
            return np.exp(special.xlogy(k, self.lam) - special.gammaln(k + 1) - self.lam)
        log_choose = special.gammaln(self.r + k) - special.gammaln(k + 1) - special.gammaln(self.r)
        return np.exp(log_choose + self.r * math.log(self.lam) + special.xlog1py(k, -self.lam))

    def cdf(self, n) -> np.ndarray:
        """P(X <= n) at integers n >= -1: gammaincc(n + 1, lam) is pdtr(n, lam)
        but is also 0 at n = -1, as betainc(r, 0, p) is."""
        from scipy import special

        k = np.asarray(n, dtype=float)
        if self.r is None:
            return special.gammaincc(k + 1, self.lam)
        return special.betainc(self.r, k + 1, self.lam)

    def sf(self, n) -> np.ndarray:
        """P(X > n) at integers n >= -1, the complement of cdf."""
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
        """Smallest N >= 1 with P(X > N) < mass."""
        return int(_first_size(lambda n: self.sf(n) < mass, 1))

    def truncated_ppf(self, u) -> np.ndarray:
        """Quantiles of the size distribution conditioned on X >= 1.

        Maps uniforms on (0, 1) through the zero-truncated cdf, so the
        result is distributionally identical to rejecting zero draws: each
        u becomes q = F(0) + u (1 - F(0)) and then the smallest n with
        F(n) >= q. A uniform so close to 1 that the shift rounds to 1 is
        clamped to the largest double below 1, where the quantile is still
        finite.

        The inversion searches a table of F built once per model (inversion
        by table search, Devroye 1986, ch. III). It spans the sizes between
        the lower and upper 1e-16 tail quantiles and holds at most 2**20
        entries, 8 MiB; a longer span is cut to the 2**20 sizes around the
        median. A q outside it, below its first entry or above its last (a
        tail past the cap), is found by a search on F instead.
        """
        f0 = float(self.cdf(0))
        q = np.minimum(f0 + np.asarray(u) * (1.0 - f0), np.nextafter(1.0, 0.0))
        start, cdf = self._cdf_table
        i = np.searchsorted(cdf, q)
        sizes = np.asarray(start + i, dtype=np.int64)
        outside = (i == 0) | (i == cdf.size)
        if outside.any():
            sizes[outside] = _first_size(lambda n: self.cdf(n) >= q[outside], 0)
        return np.maximum(sizes, 1)


def _check_size_sample(sizes) -> np.ndarray:
    arr = np.asarray(sizes)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least 2 cell sizes to fit a size model")
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
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("size-model JSON must be an object")
    try:
        family, lam = obj["family"], obj["lambda"]
    except KeyError as exc:
        raise ValueError(f"size-model JSON is missing field {exc.args[0]!r}") from None
    r = obj.get("r")
    # exact types, since bool is a subclass of int
    if type(lam) not in (int, float):
        raise ValueError(f"size-model JSON 'lambda' must be a number, got {lam!r}")
    if type(r) not in (int, float, type(None)):
        raise ValueError(f"size-model JSON 'r' must be a number or null, got {r!r}")
    return CellSizeModel(family, float(lam), None if r is None else float(r))
