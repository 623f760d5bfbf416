"""Accuracy of the special-function kernels, and of the erf and log_beta
that tests/oracles.py uses, against an mpmath oracle."""

import mpmath
import numpy as np
import pytest

from hadr.special import inv_norm_cdf, log_gamma, norm_cdf
from oracles import erf, log_beta

mpmath.mp.dps = 40


def test_log_gamma_identities():
    assert log_gamma(1.0) == 0.0
    assert abs(log_gamma(5.0) - np.log(24.0)) < 1e-14


def test_log_gamma_oracle_relative_error():
    xs = np.geomspace(1e-3, 1e6, 60)
    for x in xs:
        want = float(mpmath.loggamma(mpmath.mpf(float(x))))
        got = log_gamma(float(x))
        denom = max(abs(want), 1.0)
        assert abs(got - want) / denom < 1e-12, x


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
        assert abs(norm_cdf(float(x)) - want) < 1e-12, x
    assert norm_cdf(0.0) == 0.5
    assert isinstance(norm_cdf(np.array([0.0, 1.0])), np.ndarray)


def test_inv_norm_cdf_oracle():
    assert inv_norm_cdf(0.5) == 0.0
    ps = np.concatenate(
        [np.geomspace(1e-15, 0.4, 25), 1.0 - np.geomspace(1e-15, 0.4, 25)]
    )
    for p in ps:
        want = float(
            mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(float(p)) - 1)
        )
        assert abs(inv_norm_cdf(float(p)) - want) < 1e-9, p


def test_inv_norm_cdf_round_trip():
    # past |x| ~ 6 the forward p rounds to within one ulp of 1 and the
    # round trip loses the tail, so stop there
    xs = np.linspace(-6, 6, 25)
    ps = 0.5 * (1.0 + erf(xs / np.sqrt(2.0)))
    back = inv_norm_cdf(np.clip(ps, 1e-15, 1 - 1e-15))
    assert np.max(np.abs(back - xs)) < 1e-7


def test_domain_errors():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)
    with pytest.raises(ValueError):
        log_beta(1.0, 0.0)
    with pytest.raises(ValueError):
        inv_norm_cdf(0.0)
    with pytest.raises(ValueError):
        inv_norm_cdf(1.0)


def test_vector_inputs_return_arrays():
    out = log_gamma(np.array([1.0, 2.0, 3.0]))
    assert isinstance(out, np.ndarray)
    assert out.shape == (3,)
    assert isinstance(log_gamma(2.0), float)
