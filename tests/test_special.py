"""Accuracy of the scipy.special kernels as hadr calls them, and of the erf
and log_beta that tests/oracles.py uses, against an mpmath oracle.

The normal cdf and its inverse are reached through the Gaussian noise at
scale exactly 1, and log-Gamma through the Dirichlet moment sums of the
shrinkage and global measures."""

import mpmath
import numpy as np
import pytest
from scipy import special

import hadr._rng
from hadr import PrivacyParams, mechanism_noise
from hadr.risk import _dirichlet_moments
from oracles import erf, log_beta

mpmath.mp.dps = 40

# sigma = 1 / sqrt(2 * epsilon) at delta = 1
UNIT_GAUSSIAN = PrivacyParams("gaussian_pdp", 0.5, 1.0)


def lg(x):
    return mpmath.loggamma(mpmath.mpf(float(x)))


def unit_gaussian_quantiles(monkeypatch, ps):
    """mechanism_noise at scale 1 with the uniforms replaced by ``ps``."""
    monkeypatch.setattr(hadr._rng, "uniforms", lambda seed, start, count: ps)
    return mechanism_noise(UNIT_GAUSSIAN, 1, 0, len(ps))


def test_unit_gaussian_scale_is_exact():
    assert UNIT_GAUSSIAN.scale == 1.0


@pytest.mark.parametrize(
    "alpha", [(1e-3, 0.5), (1e-3, 2.0, 40.0), (0.3, 7.0, 1e3)], ids=["tiny", "mixed", "large"]
)
def test_log_gamma_oracle_relative_error(monkeypatch, alpha):
    """Every gammaln call of the moment sums, and the sums themselves."""
    calls = []
    gammaln = special.gammaln

    def recording(x):
        out = gammaln(x)
        calls.append((np.ravel(x), np.ravel(out)))
        return out

    monkeypatch.setattr(special, "gammaln", recording)
    alpha = np.array(alpha)
    n = np.unique(np.geomspace(1, 1e6, 25).round().astype(np.int64))
    m1, m2 = _dirichlet_moments(n, alpha)
    assert len(calls) == 5
    for xs, got in calls:
        assert (xs > 0).all()
        for x, g in zip(xs.tolist(), got.tolist()):
            want = float(lg(x))
            assert abs(g - want) / max(abs(want), 1.0) < 1e-12, x

    a0 = float(alpha.sum())
    for i, size in enumerate(n.tolist()):
        base = lg(a0) - lg(a0 + size)
        want1 = mpmath.fsum(mpmath.exp(base + lg(a + size) - lg(a)) for a in alpha)
        want2 = mpmath.fsum((a0 - a) * mpmath.exp(base + lg(size + a - 1) - lg(a)) for a in alpha)
        # each exponent adds four log-gammas, each within 1e-12 of its size
        terms = [lg(a0), lg(a0 + size)] + [lg(a + size) for a in alpha] + [lg(a) for a in alpha]
        tol = 4e-12 * max(1.0, max(abs(float(t)) for t in terms))
        assert abs(m1[i] / float(want1) - 1.0) < tol, size
        assert abs(m2[i] / float(want2) - 1.0) < tol, size


def test_log_beta_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        a = float(10 ** rng.uniform(-2, 4))
        b = float(10 ** rng.uniform(-2, 4))
        want = float(
            mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
        )
        got = log_beta(a, b)
        # the difference of log-gammas cancels at large a, b; error scales
        # with the terms, not the (possibly small) result
        scale = max(abs(want), float(mpmath.loggamma(a + b)), 1.0)
        assert abs(got - want) / scale < 1e-12


def test_log_beta_domain_error():
    with pytest.raises(ValueError):
        log_beta(1.0, 0.0)


def test_erf_oracle_absolute_error():
    xs = np.linspace(-6, 6, 121)
    for x in xs:
        want = float(mpmath.erf(mpmath.mpf(float(x))))
        assert abs(erf(float(x)) - want) < 1e-12


def test_erf_odd_symmetry():
    assert erf(0.0) == 0.0
    xs = np.linspace(0.1, 5, 17)
    assert np.allclose(erf(-xs), -erf(xs), rtol=0, atol=0)


def test_norm_cdf_oracle_absolute_error():
    for x in np.linspace(-9, 9, 181):
        want = float(mpmath.ncdf(mpmath.mpf(float(x))))
        assert abs(UNIT_GAUSSIAN.cdf(float(x)) - want) < 1e-12, x
    assert UNIT_GAUSSIAN.cdf(0.0) == 0.5


def test_inv_norm_cdf_oracle(monkeypatch):
    ps = np.concatenate(
        [[0.5], np.geomspace(1e-15, 0.4, 25), 1.0 - np.geomspace(1e-15, 0.4, 25)]
    )
    got = unit_gaussian_quantiles(monkeypatch, ps)
    assert got[0] == 0.0
    for p, g in zip(ps, got):
        want = float(
            mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(float(p)) - 1)
        )
        assert abs(g - want) < 1e-9, p


def test_inv_norm_cdf_round_trip(monkeypatch):
    # past |x| ~ 6 the forward p rounds to within one ulp of 1 and the
    # round trip loses the tail, so stop there
    xs = np.linspace(-6, 6, 25)
    ps = 0.5 * (1.0 + erf(xs / np.sqrt(2.0)))
    back = unit_gaussian_quantiles(monkeypatch, np.clip(ps, 1e-15, 1 - 1e-15))
    assert np.max(np.abs(back - xs)) < 1e-7
