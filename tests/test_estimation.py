"""Method-of-moments hyperparameter fits."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from conftest import make_table
from hadr import CellSizeModel, fit_dirichlet_mom, fit_negbin, fit_poisson
from hadr.estimation import (
    MAX_SERIES_TERMS,
    dirichlet_to_json,
    size_model_from_json,
    size_model_to_json,
)


def beta_binomial_cells(rng, m=2000, a=2.0, b=5.0):
    """Cells with Beta(a, b)-distributed first-category proportions."""
    n = rng.integers(20, 60, size=m)
    p = rng.beta(a, b, size=m)
    x = rng.binomial(n, p)
    return np.column_stack([x, n - x])


def observed_dispersion(counts):
    counts = np.asarray(counts, dtype=float)
    n = counts.sum(axis=1)
    p = counts.sum(axis=0) / n.sum()
    return ((counts - n[:, None] * p[None, :]) ** 2).sum(axis=0), p, n


def test_beta_recovery_within_20_percent():
    rng = np.random.default_rng(77)
    counts = beta_binomial_cells(rng)
    fit = fit_dirichlet_mom(make_table(counts))
    assert fit.alpha[0] == pytest.approx(2.0, rel=0.2)
    assert fit.alpha[1] == pytest.approx(5.0, rel=0.2)
    # with two categories both columns imply the same concentration
    assert fit.alpha_dot_spread == pytest.approx(0.0, abs=1e-6)


def test_fit_reproduces_dispersion():
    """Each implied concentration plugs back to the observed s2_k exactly."""
    rng = np.random.default_rng(5)
    alpha = np.array([0.8, 1.5, 3.0])
    n = rng.integers(5, 40, size=400)
    counts = np.array([rng.multinomial(ni, rng.dirichlet(alpha)) for ni in n])
    fit = fit_dirichlet_mom(make_table(counts))
    s2, p, n = observed_dispersion(counts)
    big_n, big_q = n.sum(), (n**2).sum()
    for k, a0 in enumerate(fit.implied_concentrations):
        implied = p[k] * (1.0 - p[k]) * (a0 * big_n + big_q) / (a0 + 1.0)
        assert implied == pytest.approx(s2[k], rel=1e-8)
    assert fit.alpha_dot_spread == pytest.approx(
        fit.implied_concentrations.max() - fit.implied_concentrations.min()
    )
    np.testing.assert_allclose(fit.alpha, p * fit.implied_concentrations)


def beta_mom(counts):
    """Beta-binomial moment fit written for two categories: with x_i successes
    of n_i, s2 = sum (x_i - n_i p)^2 and A0 = (p q Q - s2) / (s2 - p q N)."""
    x, n = counts[:, 0].astype(float), counts.sum(axis=1).astype(float)
    p = x.sum() / n.sum()
    s2 = ((x - n * p) ** 2).sum()
    pq = p * (1.0 - p)
    a0 = (pq * (n**2).sum() - s2) / (s2 - pq * n.sum())
    return np.array([p * a0, (1.0 - p) * a0])


def test_k2_dirichlet_equals_beta():
    rng = np.random.default_rng(9)
    counts = beta_binomial_cells(rng, m=300)
    fit = fit_dirichlet_mom(make_table(counts))
    np.testing.assert_allclose(fit.alpha, beta_mom(counts), rtol=1e-12)


def test_fit_error_messages():
    with pytest.raises(ValueError, match="never occurs"):
        fit_dirichlet_mom(make_table([(3, 0), (5, 0)]))
    with pytest.raises(ValueError, match="no overdispersion"):
        fit_dirichlet_mom(make_table([(2, 2), (3, 3), (5, 5)]))
    with pytest.raises(ValueError, match="more dispersed than any Dirichlet"):
        fit_dirichlet_mom(make_table([(5, 0), (0, 5), (5, 0), (0, 5)]))
    with pytest.raises(ValueError, match="no overdispersion"):
        fit_dirichlet_mom(make_table([(3, 2)]))


def test_count_matrices_are_checked_by_the_table():
    """The fit takes a table, so a bad matrix is refused by FrequencyTable:
    float and bool matrices rather than truncated to int64, and empty cells
    and negative counts rather than fitted."""
    counts = beta_binomial_cells(np.random.default_rng(9), m=300)
    for bad in (counts + 0.6, counts.astype(float), counts > 5, [(3, -1), (2, 2)]):
        with pytest.raises(ValueError, match=r"^cell \('c\d+',\) counts must be non-negative"):
            make_table(bad)
    with pytest.raises(ValueError, match=r"^cell \('c0',\) is empty$"):
        make_table([(0, 0), (3, 2)])


def test_fit_poisson_is_sample_mean():
    model = fit_poisson([3, 5, 7])
    assert model.family == "poisson" and model.lam == 5.0 and model.r is None


def test_fit_poisson_zero_truncated():
    sizes = [1, 2, 2, 3, 5, 8, 1, 4]
    m = float(np.mean(sizes))
    model = fit_poisson(sizes, zero_truncated=True)
    assert model.lam / (1.0 - math.exp(-model.lam)) == pytest.approx(m, rel=1e-14, abs=0)
    assert model.lam < m
    with pytest.raises(ValueError, match="sample mean above 1"):
        fit_poisson([1, 1, 1], zero_truncated=True)


def test_fit_size_sample_validation():
    with pytest.raises(ValueError):
        fit_poisson([4])
    with pytest.raises(ValueError):
        fit_poisson([0, 3])


def test_fit_negbin_moments():
    rng = np.random.default_rng(3)
    sizes = rng.negative_binomial(4, 0.35, size=5000) + 1
    model = fit_negbin(sizes)
    dist = stats.nbinom(model.r, model.lam)
    assert dist.mean() == pytest.approx(sizes.mean(), rel=1e-12)
    assert dist.var() == pytest.approx(sizes.var(ddof=1), rel=1e-12)


def test_fit_negbin_underdispersed():
    with pytest.raises(ValueError, match="use the poisson family"):
        fit_negbin([4, 4, 4, 4])


def test_size_model_validation():
    with pytest.raises(ValueError, match="unknown size family"):
        CellSizeModel(family="geometric", lam=0.5)
    # a family nested 500 deep is quoted in brief, not as 1,000 brackets
    with pytest.raises(ValueError, match=r"^unknown size family \[{7}\.{3}\]{7}$"):
        size_model_from_json('{"family": %s, "lambda": 1}' % ("[" * 500 + "]" * 500))
    with pytest.raises(ValueError):
        CellSizeModel(family="poisson", lam=0.0)
    with pytest.raises(ValueError, match="no shape"):
        CellSizeModel(family="poisson", lam=2.0, r=1.0)
    with pytest.raises(ValueError):
        CellSizeModel(family="negbin", lam=1.2, r=2.0)
    with pytest.raises(ValueError, match="shape"):
        CellSizeModel(family="negbin", lam=0.5)


def test_size_model_probabilities():
    model = CellSizeModel(family="poisson", lam=2.0)
    assert model.zero_mass() == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert model.mean() == pytest.approx(2.0)
    np.testing.assert_allclose(model.pmf([0, 1, 2]), stats.poisson(2.0).pmf([0, 1, 2]))


def scipy_dist(model):
    """scipy.stats' frozen distribution for a size model, the kernels' oracle."""
    return stats.poisson(model.lam) if model.r is None else stats.nbinom(model.r, model.lam)


PARITY_MODELS = [
    CellSizeModel(family="poisson", lam=0.3),
    CellSizeModel(family="poisson", lam=4.6),
    CellSizeModel(family="poisson", lam=250.0),
    CellSizeModel(family="poisson", lam=1e6),
    CellSizeModel(family="negbin", lam=0.01, r=0.7),
    CellSizeModel(family="negbin", lam=0.1073, r=2.284),
    CellSizeModel(family="negbin", lam=0.3, r=2.5),
    CellSizeModel(family="negbin", lam=0.9, r=12.5),
]


@pytest.mark.parametrize("model", PARITY_MODELS, ids=lambda m: f"{m.family}-{m.lam:g}")
def test_kernels_match_scipy_stats(model):
    """Poisson pmf and sf are scipy's bit for bit.

    scipy evaluates the negbin pmf and sf with boost, so those two only
    agree to rounding.
    """
    dist = scipy_dist(model)
    lo = max(int(dist.ppf(1e-16)) - 2, -1)
    n = np.arange(lo, int(dist.isf(1e-16)) + 3)
    if model.r is None:
        np.testing.assert_array_equal(model.pmf(n[n >= 0]), dist.pmf(n[n >= 0]))
        np.testing.assert_array_equal(model.sf(n), dist.sf(n))
    else:
        np.testing.assert_allclose(model.pmf(n[n >= 0]), dist.pmf(n[n >= 0]), rtol=1e-10, atol=0)
        np.testing.assert_allclose(model.sf(n), dist.sf(n), rtol=1e-10, atol=0)
    assert model.zero_mass() == pytest.approx(dist.pmf(0), rel=1e-10)
    assert model.mean() == pytest.approx(dist.mean(), rel=1e-15)


@pytest.mark.parametrize(
    "model",
    [CellSizeModel(family="poisson", lam=4.6), CellSizeModel(family="negbin", lam=0.3, r=2.5)],
    ids=["poisson", "negbin"],
)
def test_tail_quantile(model):
    dist = scipy_dist(model)
    for mass in (1e-6, 1e-12):
        n = model.tail_quantile(mass)
        assert dist.sf(n) < mass
        assert n == 1 or dist.sf(n - 1) >= mass


@pytest.mark.parametrize("lam", [1e12, 1e15, 2.0**53])
def test_huge_poisson_rates_have_finite_quantiles(lam):
    """The regularized gamma kernel stays finite where scipy's quantiles are
    NaN: it is scipy's sf, falling through 1e-16 within 9 sd above the rate.
    A series that long passes the term cap, which tail_quantile names."""
    model = CellSizeModel(family="poisson", lam=lam)
    dist = stats.poisson(lam)
    assert np.isnan(dist.isf(1e-16))
    n = np.floor(lam + math.sqrt(lam) * np.arange(-9, 10))
    sf = model.sf(n)
    np.testing.assert_array_equal(sf, dist.sf(n))
    assert np.all(np.diff(sf) <= 0) and sf[0] >= 1e-16 > sf[-1]
    with pytest.raises(ValueError, match=f"more than {MAX_SERIES_TERMS} terms, exceeding the cap"):
        model.tail_quantile(1e-16)


def test_size_model_value_semantics():
    model = CellSizeModel(family="negbin", lam=0.3, r=2.5)
    fresh = CellSizeModel(family="negbin", lam=0.3, r=2.5)
    assert model == fresh and hash(model) == hash(fresh)
    assert size_model_to_json(model) == size_model_to_json(fresh)
    assert repr(model) == repr(fresh)


@pytest.mark.parametrize(
    "family,lam,r,field",
    [
        ("poisson", math.inf, None, "lam"),
        ("poisson", math.nan, None, "lam"),
        ("negbin", 0.5, math.inf, "r"),
        ("negbin", 0.5, math.nan, "r"),
        ("negbin", -math.inf, 2.0, "lam"),
    ],
)
def test_size_model_rejects_non_finite_parameters(family, lam, r, field):
    with pytest.raises(ValueError, match=f"^size model {field} must be finite"):
        CellSizeModel(family=family, lam=lam, r=r)


def test_size_model_json_rejects_non_finite_parameters():
    with pytest.raises(ValueError, match="size model r must be finite"):
        size_model_from_json('{"family":"negbin","lambda":0.5,"r":Infinity}')
    with pytest.raises(ValueError, match="size model lam must be finite"):
        size_model_from_json('{"family":"poisson","lambda":NaN}')


HUGE_MEAN_MODELS = [
    ("negbin", 1e-20, 2.0, r"mean r\(1-p\)/p, with p = lam, is 2e\+20"),
    ("negbin", 1e-300, 2.0, r"mean r\(1-p\)/p, with p = lam, is 2e\+300"),
    ("poisson", 1e20, None, r"rate lam is 1e\+20"),
]


@pytest.mark.parametrize("family,lam,r,message", HUGE_MEAN_MODELS)
def test_size_model_rejects_a_mean_beyond_2_53(family, lam, r, message):
    """Sizes pass through doubles, which hold every integer only up to 2**53."""
    with pytest.raises(ValueError, match=message + ", above 2\\*\\*53"):
        CellSizeModel(family=family, lam=lam, r=r)
    doc = {"family": family, "lambda": lam} | ({} if r is None else {"r": r})
    with pytest.raises(ValueError, match=message):
        size_model_from_json(json.dumps(doc))


def test_size_model_mean_bound_is_inclusive():
    assert CellSizeModel(family="poisson", lam=2.0**53).lam == 2.0**53
    CellSizeModel(family="negbin", lam=0.5, r=2.0**53)  # mean r(1-p)/p is exactly 2**53


def test_size_model_json_round_trip():
    for model in (
        CellSizeModel(family="poisson", lam=3.25),
        CellSizeModel(family="negbin", lam=0.4, r=1.75),
    ):
        back = size_model_from_json(size_model_to_json(model))
        assert back == model
    text = size_model_to_json(CellSizeModel(family="poisson", lam=3.25))
    assert json.loads(text) == {"family": "poisson", "lambda": 3.25}
    assert text.endswith("\n")


def test_size_model_json_missing_field():
    with pytest.raises(ValueError, match="missing field 'lambda'"):
        size_model_from_json('{"family":"poisson"}')
    with pytest.raises(ValueError, match="missing field 'family'"):
        size_model_from_json('{"lambda":2.0}')


@pytest.mark.parametrize(
    "text,field",
    [
        ('{"family":"poisson","lambda":true}', "lambda"),
        ('{"family":"poisson","lambda":"0.5"}', "lambda"),
        ('{"family":"negbin","lambda":0.5,"r":"3"}', "'r'"),
        ('{"family":"negbin","lambda":0.5,"r":false}', "'r'"),
        ('{"family":"poisson","lambda":1%s}' % ("0" * 400), "'lambda' is too large for a double"),
        ('{"family":"negbin","lambda":0.5,"r":1%s}' % ("0" * 400), "'r' is too large for a double"),
        ("[1, 2]", "object"),
        ('"poisson"', "object"),
        pytest.param("[" * 100_000, "^size-model JSON is nested too deeply$", id="deep"),
    ],
)
def test_size_model_json_rejects_malformed(text, field):
    with pytest.raises(ValueError, match=field):
        size_model_from_json(text)


def test_size_model_json_accepts_integers():
    model = size_model_from_json('{"family":"negbin","lambda":0.5,"r":3}')
    assert model == CellSizeModel(family="negbin", lam=0.5, r=3.0)


def test_dirichlet_json():
    rng = np.random.default_rng(11)
    fit = fit_dirichlet_mom(make_table(beta_binomial_cells(rng, m=500)))
    obj = json.loads(dirichlet_to_json(fit))
    assert obj["alpha"] == [float(a) for a in fit.alpha]
    assert obj["alpha_dot_spread"] == pytest.approx(fit.alpha_dot_spread)
