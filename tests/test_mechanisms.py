"""Noise calibration, sampling, and the sanitized-table format."""

import json
import math
import struct

import numpy as np
import pytest
from scipy import special, stats

from conftest import make_table
from hadr import (
    PRESENCE_THRESHOLD,
    PrivacyParams,
    mechanism_noise,
    postprocess_counts,
    presence_support,
    read_sanitized,
    sanitize,
    write_sanitized,
)
from hadr.mechanisms import (
    MECHANISMS,
    SanitizedTable,
    sanitized_from_json,
    sanitized_to_json,
)

# mpmath-checked calibration values, 40 significant digits at derivation time
SIGMA_ADP_HALF_1E5 = 9.68961052521
SIGMA_PDP_SQRT1000_1E5 = 0.213679203599

# a valid delta for each mechanism: laplace takes none
DELTA = {"laplace": None, "gaussian_adp": 1e-5, "gaussian_pdp": 1e-5}


def test_laplace_scale():
    assert PrivacyParams("laplace", 2.0).scale == 0.5
    assert PrivacyParams("laplace", 0.5, sensitivity=2.0).scale == 4.0
    with pytest.raises(ValueError):
        PrivacyParams("laplace", 0.0)
    with pytest.raises(ValueError):
        PrivacyParams("laplace", 1.0, sensitivity=0.0)


def test_gaussian_sigma_adp_value():
    sigma = PrivacyParams("gaussian_adp", 0.5, 1e-5).scale
    assert sigma == pytest.approx(SIGMA_ADP_HALF_1E5, rel=1e-11)
    # closed form is sqrt(2 ln(1.25/delta)) / eps times sensitivity
    assert PrivacyParams("gaussian_adp", 0.3, 1e-3, sensitivity=2.0).scale == pytest.approx(
        2.0 * math.sqrt(2.0 * math.log(1.25e3)) / 0.3
    )


def test_gaussian_sigma_adp_domain():
    for eps in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            PrivacyParams("gaussian_adp", eps, 1e-5)
    for delta in (0.0, 1.0):
        with pytest.raises(ValueError):
            PrivacyParams("gaussian_adp", 0.5, delta)


def test_gaussian_sigma_pdp_value():
    sigma = PrivacyParams("gaussian_pdp", 10**1.5, 1e-5).scale
    assert sigma == pytest.approx(SIGMA_PDP_SQRT1000_1E5, rel=1e-11)


@pytest.mark.parametrize("epsilon", [0.05, 0.5, 1.0, 3.0, 10**1.5])
@pytest.mark.parametrize("delta", [1e-7, 1e-5, 1e-2])
def test_pdp_sigma_solves_tail_condition(epsilon, delta):
    """The pDP sigma makes the privacy-loss upper tail exactly delta/2.

    With sensitivity s, the Gaussian mechanism's privacy loss is normal with
    mean s^2/(2 sigma^2) and standard deviation s/sigma; the calibration is
    defined by Pr(L >= epsilon) = delta/2. scipy provides the oracle normal.
    """
    s = 1.7
    sigma = PrivacyParams("gaussian_pdp", epsilon, delta, sensitivity=s).scale
    mean = s * s / (2.0 * sigma * sigma)
    sd = s / sigma
    tail = stats.norm.sf((epsilon - mean) / sd)
    assert tail == pytest.approx(delta / 2.0, rel=1e-9)


def test_pdp_sigma_delta_one():
    # delta = 1 collapses the tail point to the loss mean: sigma = s/sqrt(2 eps)
    assert PrivacyParams("gaussian_pdp", 2.0, 1.0).scale == pytest.approx(0.5)
    assert PrivacyParams("gaussian_pdp", 8.0, 1.0, sensitivity=3.0).scale == pytest.approx(0.75)


def test_privacy_params_dispatch():
    p = PrivacyParams("laplace", 2.0)
    assert p.scale == 0.5
    g = PrivacyParams("gaussian_pdp", 10**1.5, delta=1e-5)
    assert g.scale == pytest.approx(SIGMA_PDP_SQRT1000_1E5, rel=1e-11)
    with pytest.raises(ValueError, match="unknown mechanism"):
        PrivacyParams("exponential", 1.0)
    with pytest.raises(ValueError, match="delta"):
        PrivacyParams("gaussian_adp", 0.5)
    with pytest.raises(ValueError):
        PrivacyParams("gaussian_adp", 2.0, delta=1e-5)


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("field", ["epsilon", "delta", "sensitivity"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_refused(mechanism, field, value):
    kwargs = {"epsilon": 0.5, "delta": DELTA[mechanism], "sensitivity": 1.0, field: value}
    with pytest.raises(ValueError, match="must be finite"):
        PrivacyParams(mechanism, **kwargs)


@pytest.mark.parametrize(
    "args,kwargs",
    [
        (("laplace", 1e-320), {}),  # s / eps overflows to inf
        (("gaussian_pdp", 1e308, 1e-5), {}),  # inf / inf is nan
        (("laplace", 10.0), {"sensitivity": 5e-324}),  # underflows to 0
        (("gaussian_pdp", 1e300, 1e-5), {"sensitivity": 1e-200}),  # underflows to 0
    ],
)
def test_scale_outside_finite_positive_refused(args, kwargs):
    with pytest.raises(ValueError, match="not finite and positive"):
        PrivacyParams(*args, **kwargs)


@pytest.mark.parametrize("delta", [1e-5, 0.0, 1.0])
def test_laplace_with_delta_refused(delta):
    with pytest.raises(ValueError, match="the laplace mechanism takes no delta"):
        PrivacyParams("laplace", 1.0, delta)


@pytest.mark.parametrize(
    "params",
    [
        PrivacyParams("laplace", 1.0, sensitivity=0.8),
        PrivacyParams("gaussian_pdp", 0.5, 1.0, sensitivity=1.3),
    ],
    ids=["laplace", "gaussian_pdp"],
)
def test_noise_tails_cdf_sf(params):
    assert params.scale in (0.8, 1.3)
    ts = np.linspace(-6.0, 6.0, 41)
    np.testing.assert_allclose(params.cdf(ts) + params.sf(ts), 1.0, atol=1e-14)
    # symmetric noise
    np.testing.assert_allclose(params.cdf(-ts), params.sf(ts), atol=1e-14)
    assert isinstance(params.cdf(0.5), float)
    assert isinstance(params.sf(-2.0), float)
    assert params.cdf(0.0) == pytest.approx(0.5)


def test_laplace_tail_values():
    p = PrivacyParams("laplace", 1.0)
    assert p.cdf(0.5) == pytest.approx(1.0 - 0.5 * math.exp(-0.5), rel=1e-14)
    assert p.sf(-1.5) == pytest.approx(1.0 - 0.5 * math.exp(-1.5), rel=1e-14)


@pytest.mark.parametrize(
    "params",
    [
        PrivacyParams("laplace", 0.7),
        PrivacyParams("gaussian_adp", 0.4, 1e-5),
        PrivacyParams("gaussian_pdp", 3.0, 1e-3),
    ],
    ids=MECHANISMS,
)
def test_sf_is_bitwise_the_mirrored_cdf(params):
    """sf(t) equals cdf(-t) and the upper tail written out, bit for bit, at +-0 too."""
    edges = [-0.0, 0.0, 5e-324, -5e-324, 0.5, -0.5, 1.5, -1.5, -125.5, 300.0, math.inf, -math.inf]
    ts = np.array(edges)
    ts = np.concatenate([ts, np.linspace(-40.0, 40.0, 321), 0.5 - np.arange(200.0)])
    b = params.scale
    if params.mechanism == "laplace":
        half_tail = 0.5 * np.exp(-np.abs(ts) / b)
        upper = np.where(ts >= 0, half_tail, 1.0 - half_tail)
    else:
        upper = special.ndtr(-ts / b)
    sf = params.sf(ts)
    assert sf.tobytes() == params.cdf(-ts).tobytes()
    assert sf.tobytes() == upper.tobytes()
    for t in (0.0, -0.0):
        assert struct.pack("d", params.sf(t)) == struct.pack("d", params.cdf(-t))


def test_laplace_sample_moments():
    params = PrivacyParams("laplace", 0.5)  # b = 2
    x = mechanism_noise(params, seed=7, start=0, shape=1_000_000)
    assert abs(x.mean()) < 0.01
    assert x.var() == pytest.approx(2.0 * 2.0**2, rel=0.01)


@pytest.mark.parametrize(
    "params",
    [PrivacyParams("laplace", 1.0), PrivacyParams("gaussian_pdp", 1.0, delta=1e-3)],
    ids=["laplace", "gaussian"],
)
def test_sample_cdf_matches_tails(params):
    """Empirical tail frequencies agree with params.cdf at the risk thresholds."""
    reps = 400_000
    x = mechanism_noise(params, seed=11, start=0, shape=reps)
    for t in (-0.5, 0.5, 0.5 - 10.0):
        p = params.cdf(t)
        se = math.sqrt(max(p * (1.0 - p), 1e-12) / reps)
        assert abs((x < t).mean() - p) < 3.0 * se + 1e-6


def test_noise_stream_is_positional():
    params = PrivacyParams("gaussian_pdp", 1.0, delta=1e-2)
    whole = mechanism_noise(params, seed=3, start=0, shape=100)
    parts = np.concatenate(
        [mechanism_noise(params, seed=3, start=0, shape=60), mechanism_noise(params, seed=3, start=60, shape=40)]
    )
    np.testing.assert_array_equal(whole, parts)
    again = mechanism_noise(params, seed=3, start=0, shape=100)
    np.testing.assert_array_equal(whole, again)


def test_sanitize_deterministic_and_offset():
    t = make_table([(3, 1), (0, 7), (2, 2)])
    params = PrivacyParams("laplace", 1.0)
    s1 = sanitize(t, params, seed=42)
    s2 = sanitize(t, params, seed=42)
    np.testing.assert_array_equal(s1.noisy, s2.noisy)
    noise = mechanism_noise(params, 42, 0, (3, 2))
    np.testing.assert_array_equal(s1.noisy, t.counts + noise)
    s3 = sanitize(t, params, seed=43)
    assert not np.array_equal(s1.noisy, s3.noisy)


def test_sanitize_seed_validation():
    t = make_table([(3, 1)])
    params = PrivacyParams("laplace", 1.0)
    with pytest.raises(ValueError):
        sanitize(t, params, seed=-1)
    with pytest.raises(ValueError):
        sanitize(t, params, seed=2**64)


def test_presence_support():
    assert presence_support([0.5, 0.49, 3.2]) == (0, 2)
    assert presence_support([-1.0, 0.499999]) == ()
    assert PRESENCE_THRESHOLD == 0.5


def test_postprocess_counts():
    out = postprocess_counts([0.5, 1.49, 1.5, -0.2, -3.7, 2.51])
    assert out.tolist() == [1, 1, 2, 0, 0, 3]
    assert out.dtype == np.int64


def test_sanitized_json_round_trip(tmp_path):
    t = make_table([(3, 1), (0, 7)])
    s = sanitize(t, PrivacyParams("gaussian_pdp", 1.5, delta=1e-4), seed=9)
    path = tmp_path / "san.json"
    write_sanitized(s, path)
    text = path.read_text()
    back = read_sanitized(path)
    np.testing.assert_array_equal(back.noisy, s.noisy)
    assert back.keys == s.keys
    assert back.mechanism == s.mechanism and back.delta == s.delta and back.seed == s.seed
    # serialization is canonical: re-serializing reproduces the bytes
    assert sanitized_to_json(back) == text


def test_sanitized_json_bytes_match_per_cell_dumps():
    """The row-format writer against the per-cell json.dumps it replaced."""
    keys = (("a9", 'q"uote'), ("a10", "back\\slash"), ("é✓", "tab\tnew\nline"), ("", "100%"))
    noisy = np.array([[-0.0, 5e-324], [3.0, -2.5e-7], [1e22, 0.1 + 0.2], [-1.5, 123456789.0]])
    s = SanitizedTable(("q1", "q²"), "ÿ", ("u", "v"), keys, noisy, "gaussian_pdp", 0.5, 1e-6, 7)
    cells = ",".join(
        '{"key":%s,"noisy_counts":[%s]}'
        % (json.dumps(list(k), separators=(",", ":")), ",".join(format(v, ".17g") for v in row))
        for k, row in zip(keys, noisy.tolist())
    )
    want = (
        '{"qid_names":["q1","q\\u00b2"],"sensitive_name":"\\u00ff","categories":["u","v"],'
        '"mechanism":"gaussian_pdp","epsilon":0.5,"delta":9.9999999999999995e-07,"seed":7,'
        '"cells":[%s]}\n' % cells
    )
    text = sanitized_to_json(s)
    assert text == want and text.isascii()
    assert '"noisy_counts":[-0,4.9406564584124654e-324]' in text
    assert '"noisy_counts":[3,-2.4999999999999999e-07]' in text
    np.testing.assert_array_equal(sanitized_from_json(text).noisy, noisy)


@pytest.mark.parametrize("key", [(1,), (["a"],), (None,)], ids=["int", "list", "none"])
def test_sanitized_table_rejects_keys_that_are_not_strings(key):
    """Refused at construction, like a table's keys, before the writer can fail on them."""
    noisy = np.array([[1.0, 2.0], [0.0, 3.0]])
    with pytest.raises(ValueError, match=r"^cell key .* holds a value that is not a string$"):
        SanitizedTable(("q",), "s", ("a", "b"), (key, ("b",)), noisy, "laplace", 1.0, None, 3)


def test_sanitized_json_missing_field():
    with pytest.raises(ValueError):
        sanitized_from_json("{}")


def sanitized_doc():
    t = make_table([(3, 1), (0, 7)])
    return json.loads(sanitized_to_json(sanitize(t, PrivacyParams("laplace", 1.0), seed=9)))


def test_sanitized_json_accepts_integer_counts():
    doc = sanitized_doc()
    doc["cells"][1]["noisy_counts"] = [3, -1]  # .17g writes 3.0 as 3
    doc["epsilon"] = 1
    back = sanitized_from_json(json.dumps(doc))
    assert back.noisy[1].tolist() == [3.0, -1.0] and back.epsilon == 1.0


@pytest.mark.parametrize(
    "path,value,match",
    [
        (("cells", 1, "noisy_counts"), [True, 2.5], "cell 1: 'noisy_counts'"),
        (("cells", 1, "noisy_counts"), ["2.5", 1.0], "cell 1: 'noisy_counts'"),
        (("cells", 1, "noisy_counts"), [2.5], "cell 1: 'noisy_counts'"),
        (("cells", 1, "noisy_counts"), "2.5", "cell 1: 'noisy_counts'"),
        (("cells", 1, "key"), [3], "cell 1: 'key'"),
        (("cells", 1), "c1", "cell 1 is not an object"),
        (("seed",), 3.9, "seed"),
        (("seed",), True, "seed"),
        (("seed",), "9", "seed"),
        (("epsilon",), "1", "'epsilon'"),
        (("epsilon",), None, "'epsilon'"),
        (("delta",), "0.1", "'delta'"),
        (("mechanism",), 5, "'mechanism'"),
        (("qid_names",), "g", "'qid_names'"),
        (("categories",), ["y0", 1], "'categories'"),
        (("sensitive_name",), 5, "'sensitive_name'"),
    ],
)
def test_sanitized_json_rejects_malformed(path, value, match):
    doc = sanitized_doc()
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    with pytest.raises(ValueError, match=match):
        sanitized_from_json(json.dumps(doc))


def test_sanitized_json_rejects_non_object():
    for text in ("[]", '"x"', '{"cells": 3}'):
        with pytest.raises(ValueError, match="object"):
            sanitized_from_json(text)


@pytest.mark.parametrize(
    "path,value,match",
    [
        (("cells", 1, "key"), ["c1", "x"], "key length does not match qid_names"),
        (("cells", 1, "noisy_counts"), [math.nan, 1.0], "must be finite"),
        (("cells", 1, "noisy_counts"), [2.0, math.inf], "must be finite"),
        (("cells", 1, "noisy_counts"), [-math.inf, 2.0], "must be finite"),
        (("epsilon",), math.nan, "must be finite"),
        (("epsilon",), -1.0, "epsilon > 0"),
        (("delta",), 1e-5, "the laplace mechanism takes no delta"),
        (("mechanism",), "exponential", "unknown mechanism"),
        (("cells", 1, "key"), ["c0"], "duplicate cell keys"),
        (("categories",), ["y0", "y0"], "duplicate sensitive categories"),
    ],
    ids=[
        "key-length", "nan-count", "inf-count", "minus-inf-count", "nan-epsilon",
        "negative-epsilon", "laplace-delta", "unknown-mechanism", "duplicate-key",
        "duplicate-category",
    ],
)
def test_sanitized_release_checked_like_a_table(path, value, match):
    """The reader accepts the JSON types; SanitizedTable refuses what no release can hold."""
    doc = sanitized_doc()
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    with pytest.raises(ValueError, match=match):
        sanitized_from_json(json.dumps(doc))
