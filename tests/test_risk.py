"""Closed-form risk measures.

Reference values were frozen from a 40-digit mpmath derivation of the
noise-tail algebra; everything else is checked against independent scipy
oracles (optimizer, Dirichlet sampler) or against internal identities the
formulas must satisfy (two-category specialization, homogeneous
specialization, zero-truncation factor).
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import optimize

from conftest import make_homog_table, make_table, random_table
import hadr.risk
from hadr import (
    CellSizeModel,
    PrivacyParams,
    RiskValue,
    evaluate_measure,
    invert_epsilon,
    local_risk,
    risk_curve,
)
from hadr.risk import MEASURES, curve_to_csv
from hadr.tabulation import FrequencyTable
from oracles import (
    expected_risk_cells_direct,
    expected_risk_k2,
    global_risk_k2,
    homogeneous_risk,
    local_risk_direct,
    scenario8_peak_epsilon,
    shrinkage_risk_k2,
)

LAP1 = PrivacyParams("laplace", 1.0)

# frozen at derivation time, 40 significant digits, rounded to 12
HOMOG_N10_K2_LAP1 = 0.696708594211
HOMOG_N10_K2_SIGMA1 = 0.691462461274
STAY_ABSENT_SQ_LAP1 = 0.48543920058
SECOND_TERM_11_LAP1 = 0.105647734782
PEAK_N3 = 0.462098120373


def homogeneous_value(table, params):
    """The library's expected measure on an all-homogeneous table, after
    checking it against the independent homogeneous oracle."""
    rv = evaluate_measure("expected", params, table=table)
    assert rv.value == pytest.approx(homogeneous_risk(table, params).value, rel=1e-14, abs=0)
    assert rv.scenario1 == rv.value and rv.scenario8 == 0.0
    return rv.value


def test_homogeneous_frozen_laplace():
    t = make_table([(10, 0)])
    assert homogeneous_value(t, LAP1) == pytest.approx(HOMOG_N10_K2_LAP1, rel=1e-11)


def test_homogeneous_frozen_gaussian_unit_sigma():
    # delta = 1 makes the pDP sigma 1/sqrt(2 eps); eps = 0.5 gives sigma = 1
    params = PrivacyParams("gaussian_pdp", 0.5, delta=1.0)
    assert params.scale == pytest.approx(1.0, rel=1e-14)
    assert homogeneous_value(make_table([(10, 0)]), params) == pytest.approx(
        HOMOG_N10_K2_SIGMA1, rel=1e-11
    )


def test_homogeneous_k3_saturates_to_absent_factor():
    # for huge n the stay-present factor is 1 at double precision, leaving
    # cdf(0.5)^(K-1)
    v = homogeneous_value(make_table([(300, 0, 0)]), LAP1)
    assert v == pytest.approx(STAY_ABSENT_SQ_LAP1, rel=1e-11)


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("epsilon", [1e-4, 0.3, 1.0, 10.0])
def test_homogeneous_bounds(k, epsilon):
    t = make_homog_table([1, 2, 5, 17, 40], k=k)
    v = homogeneous_value(t, PrivacyParams("laplace", epsilon))
    assert 2.0**-k < v < 1.0


def test_homogeneous_floor_and_ceiling():
    # at eps = 1e-4 the n = 10 stay-present factor still carries
    # (n - 0.5) eps / 2 ~ 4.8e-4 above the 2^-K floor
    t = make_table([(10, 0)])
    assert homogeneous_value(t, PrivacyParams("laplace", 1e-4)) == pytest.approx(0.25, abs=1e-3)
    assert homogeneous_value(t, PrivacyParams("laplace", 10.0)) > 0.99
    t3 = make_table([(10, 0, 0)])
    assert homogeneous_value(t3, PrivacyParams("laplace", 1e-4)) == pytest.approx(0.125, abs=1e-3)


def test_expected_second_term_frozen():
    rv = evaluate_measure("expected", LAP1, table=make_table([(1, 1)]))
    assert rv.scenario8 == pytest.approx(SECOND_TERM_11_LAP1, rel=1e-11)
    assert rv.value == pytest.approx(rv.scenario1 + rv.scenario8, abs=1e-15)


def test_expected_no_second_term_for_singletons():
    rv = evaluate_measure("expected", LAP1, table=make_table([(1, 0), (0, 1)]))
    assert rv.scenario8 == 0.0


@pytest.mark.parametrize(
    "params",
    [
        PrivacyParams("laplace", 0.25),
        PrivacyParams("laplace", 3.0),
        PrivacyParams("gaussian_pdp", 0.7, delta=1e-5),
        PrivacyParams("gaussian_adp", 0.7, delta=1e-3),
    ],
    ids=["lap-lo", "lap-hi", "pdp", "adp"],
)
def test_expected_matches_k2_form(params, rng):
    for _ in range(30):
        t = random_table(rng, m=10, k=2, n_max=40)
        a = evaluate_measure("expected", params, table=t)
        b = expected_risk_k2(t, params)
        assert abs(a.value - b.value) <= 1e-12
        assert abs(a.scenario1 - b.scenario1) <= 1e-12
        assert abs(a.scenario8 - b.scenario8) <= 1e-12


@pytest.mark.parametrize("k", [2, 3, 5])
def test_expected_specializes_to_homogeneous_exactly(k):
    # exact up to the order of the cell sums: the oracle shares no code with the kernel
    t = make_homog_table([1, 2, 3, 7, 19, 40], k=k)
    for eps in np.geomspace(1e-3, 30.0, 12):
        params = PrivacyParams("laplace", float(eps))
        homogeneous_value(t, params)


def test_average_local_matches_homogeneous():
    t = make_homog_table([1, 4, 9], k=3)
    a = evaluate_measure("local", LAP1, table=t)
    b = homogeneous_risk(t, LAP1)
    assert a.value == pytest.approx(b.value, rel=1e-13)
    assert a.scenario8 == 0.0


def test_local_risk_branches():
    hom = local_risk((0, 7), LAP1)
    assert hom == RiskValue(hom.value, hom.value, 0.0)
    het = local_risk([2, 3], LAP1)
    assert het == RiskValue(het.value, 0.0, het.value)
    assert 0.0 < het.value < 1.0


def test_local_risk_validation():
    with pytest.raises(ValueError):
        local_risk([0, 0], LAP1)
    with pytest.raises(ValueError):
        local_risk([5], LAP1)
    with pytest.raises(ValueError):
        local_risk([3, -1], LAP1)


@pytest.mark.parametrize(
    "counts",
    [[2.7, 0.3], [2.0, 0.0], np.array([True, False]), [True, 2]],
    ids=["fraction", "float", "bool", "bool_in_list"],
)
def test_local_risk_rejects_non_integer_counts(counts):
    """Counts are refused, not truncated, by the same rule as mc_local's."""
    with pytest.raises(ValueError, match="counts must be integers"):
        local_risk(counts, LAP1)


# noise scales at which the oracle's erf form of the Gaussian tail keeps a
# relative accuracy of 1e-12 (see local_risk_direct)
ORACLE_PARAMS = [
    PrivacyParams("laplace", 0.3),
    LAP1,
    PrivacyParams("laplace", 3.0),
    PrivacyParams("gaussian_pdp", 0.5, delta=1e-5),
    PrivacyParams("gaussian_pdp", 2.0, delta=1e-5),
    PrivacyParams("gaussian_adp", 0.5, delta=1e-3),
]


def random_cells(rng, m, k_max=5, n_max=5):
    """Random cells of 2..k_max categories with counts 0..n_max, zeros
    included, and at least one record each."""
    cells = []
    while len(cells) < m:
        k = int(rng.integers(2, k_max + 1))
        cell = tuple(int(c) for c in rng.integers(0, n_max + 1, size=k))
        if sum(cell):
            cells.append(cell)
    return cells


def test_local_risk_union_of_disjoint_collapses(rng):
    # the event decomposes over which occupied category survives alone
    for cell in [(2, 3, 4), (0, 7), (5, 0, 0, 1)] + random_cells(rng, 100):
        for params in ORACLE_PARAMS:
            want = local_risk_direct(cell, params)
            assert local_risk(cell, params).value == pytest.approx(want, rel=1e-12, abs=0)


def test_monotone_in_epsilon():
    t = make_homog_table([1, 3, 8], k=2)
    grid = np.geomspace(1e-3, 50.0, 40)
    vals = [homogeneous_value(t, PrivacyParams("laplace", float(e))) for e in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    gvals = [homogeneous_value(t, PrivacyParams("gaussian_pdp", float(e), delta=1e-5)) for e in grid]
    assert all(b > a for a, b in zip(gvals, gvals[1:]))


def test_components_sum_to_value(rng):
    t = random_table(rng, m=12, k=3, n_max=25)
    rv = evaluate_measure("expected", LAP1, table=t)
    assert rv.value == pytest.approx(rv.scenario1 + rv.scenario8, abs=1e-12)


def test_presence_tail_thresholds():
    assert LAP1.sf(0.5 - 2.0) == pytest.approx(0.888434, abs=1e-6)
    assert LAP1.sf(0.5 - 2.0) >= 0.888
    # the rounded thresholds overstate the exact values by under 5e-4
    assert LAP1.sf(0.5 - 3.0) >= 0.959 - 5e-4
    assert LAP1.sf(0.5 - 4.0) >= 0.985 - 5e-4


def test_scenario8_peak_frozen_and_oracle():
    assert scenario8_peak_epsilon(3) == pytest.approx(PEAK_N3, rel=1e-11)
    assert scenario8_peak_epsilon(3) == pytest.approx(math.log(2.0) / 1.5, rel=1e-15)
    for n in (3, 5, 12, 30):

        def neg_factor(eps, n=n):
            return -(1.0 - 0.5 * math.exp(eps * (1.5 - n))) * math.exp(-0.5 * eps)

        res = optimize.minimize_scalar(
            neg_factor, bounds=(1e-4, 5.0), method="bounded", options={"xatol": 1e-10}
        )
        assert scenario8_peak_epsilon(n) == pytest.approx(res.x, abs=1e-6)


def test_scenario8_peak_rejects_small_n():
    for n in (1, 2, 2.0):
        with pytest.raises(ValueError, match="no interior maximum"):
            scenario8_peak_epsilon(n)


@pytest.mark.parametrize("params", [LAP1, PrivacyParams("gaussian_pdp", 2.0, delta=1e-4)])
def test_shrinkage_matches_k2_form(params, rng):
    sizes = np.arange(1, 31)
    for _ in range(20):
        alpha = rng.uniform(0.2, 5.0, size=2)
        table = make_homog_table(sizes, k=len(alpha))
        a = evaluate_measure("shrinkage", params, table=table, alpha=alpha)
        b = shrinkage_risk_k2(sizes, alpha, params)
        assert abs(a.value - b.value) <= 1e-12
        assert abs(a.scenario1 - b.scenario1) <= 1e-12
        assert abs(a.scenario8 - b.scenario8) <= 1e-12


def test_shrinkage_input_validation():
    t = make_homog_table([3], k=2)
    with pytest.raises(ValueError):
        evaluate_measure("shrinkage", LAP1, table=t, alpha=[1.0, -1.0])
    with pytest.raises(ValueError):
        evaluate_measure("shrinkage", LAP1, table=t, alpha=[2.0])


@pytest.mark.parametrize("measure", ["shrinkage", "global"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_alpha_must_be_finite(measure, bad):
    inputs = dict(table=make_homog_table([3, 5], k=2), size_model=CellSizeModel("poisson", 3.0))
    with pytest.raises(ValueError, match="finite and positive"):
        evaluate_measure(measure, LAP1, alpha=[bad, 1.0], **inputs)


def test_shrinkage_alpha_must_match_the_categories():
    t = make_homog_table([3, 5], k=2)
    with pytest.raises(ValueError, match="alpha has 5 entries but the table has 2 categories"):
        evaluate_measure("shrinkage", LAP1, table=t, alpha=[1.0] * 5)
    with pytest.raises(ValueError, match="alpha has 2 entries but the table has 3 categories"):
        risk_curve("shrinkage", [LAP1], table=make_homog_table([3], k=3), alpha=[1.0, 1.0])


@pytest.mark.parametrize(
    "alpha,n",
    [((0.7, 1.3, 2.0), 7), ((0.5, 0.5), 3), ((2.0, 1.0, 0.4, 3.0), 12)],
)
def test_dirichlet_moments_match_sampling(alpha, n, rng):
    """Gamma-ratio moment sums agree with direct Dirichlet averaging."""
    alpha = np.asarray(alpha)
    draws = rng.dirichlet(alpha, size=400_000)
    s1 = (draws**n).sum(axis=1)
    s2 = (draws ** (n - 1) * (1.0 - draws)).sum(axis=1)
    from hadr.risk import _dirichlet_moments

    m1, m2 = _dirichlet_moments(np.array([n]), alpha.astype(float))
    for sample, closed in ((s1, m1[0]), (s2, m2[0])):
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - closed) < 3.0 * se


def test_global_zero_truncation_factor():
    sm = CellSizeModel(family="poisson", lam=4.6)
    alpha = np.array([1.0, 2.0])
    raw = evaluate_measure("global", LAP1, alpha=alpha, size_model=sm)
    trunc = evaluate_measure("global", LAP1, alpha=alpha, size_model=sm, zero_truncated=True)
    f0 = sm.zero_mass()
    assert raw.value == pytest.approx((1.0 - f0) * trunc.value, rel=1e-12)
    assert raw.scenario1 == pytest.approx((1.0 - f0) * trunc.scenario1, rel=1e-12)
    assert raw.truncated_at == trunc.truncated_at


def test_global_matches_sizewise_shrinkage():
    """The series equals the size-weighted average of per-size evaluations."""
    sm = CellSizeModel(family="poisson", lam=3.2)
    alpha = np.array([0.8, 1.7])
    rv = evaluate_measure("global", LAP1, alpha=alpha, size_model=sm, zero_truncated=True)
    n = np.arange(1, rv.truncated_at + 1)
    w = sm.pmf(n) / (1.0 - sm.zero_mass())
    acc = sum(
        float(wi)
        * evaluate_measure(
            "shrinkage", LAP1, table=make_homog_table([int(ni)], k=len(alpha)), alpha=alpha
        ).value
        for ni, wi in zip(n, w)
    )
    assert rv.value == pytest.approx(acc, rel=1e-12)


@pytest.mark.parametrize("epsilon", [0.1, 1.0, 10.0])
def test_global_matches_k2_form(epsilon):
    params = PrivacyParams("laplace", epsilon)
    sm = CellSizeModel(family="poisson", lam=3.0)
    alpha = np.array([1.2, 0.8])
    a = evaluate_measure("global", params, alpha=alpha, size_model=sm)
    b = global_risk_k2(alpha, sm, params)
    assert abs(a.value - b.value) <= 1e-12
    assert a.truncated_at == b.truncated_at


def test_global_series_cap_error():
    sm = CellSizeModel(family="poisson", lam=2e6)
    with pytest.raises(ValueError, match="exceeding the cap"):
        evaluate_measure("global", LAP1, alpha=np.array([1.0, 1.0]), size_model=sm)


def test_variant_s_shape():
    sm = CellSizeModel(family="poisson", lam=2.43)
    inputs = dict(size_model=sm, n_categories=2, zero_truncated=True)
    lo = evaluate_measure("global_variant", PrivacyParams("laplace", 1e-3), **inputs)
    hi = evaluate_measure("global_variant", PrivacyParams("laplace", 1e2), **inputs)
    assert lo.value == pytest.approx(0.25, abs=0.01)
    assert hi.value == pytest.approx(1.0, abs=0.01)
    grid = np.geomspace(1e-3, 1e2, 25)
    vals = [
        evaluate_measure("global_variant", PrivacyParams("laplace", float(e)), **inputs).value
        for e in grid
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert lo.scenario8 == 0.0 and hi.scenario8 == 0.0


def test_evaluate_measure_dispatch(rng):
    t = random_table(rng, m=6, k=2, n_max=20)
    alpha = np.array([1.0, 2.0])
    sm = CellSizeModel(family="poisson", lam=3.0)
    # each name against a value computed without the size-profile kernel
    local = evaluate_measure("local", LAP1, table=t)
    assert close(local.value, float(np.mean([local_risk(c, LAP1).value for c in t.counts])))
    expected = evaluate_measure("expected", LAP1, table=t)
    assert close(expected.value, float(np.mean(expected_risk_cells_direct(t.counts, LAP1))))
    assert close(expected.scenario8, expected_risk_k2(t, LAP1).scenario8)
    shrinkage = evaluate_measure("shrinkage", LAP1, table=t, alpha=alpha)
    assert close(shrinkage.value, shrinkage_risk_k2(t.sizes(), alpha, LAP1).value)
    glob = evaluate_measure("global", LAP1, alpha=alpha, size_model=sm)
    assert close(glob.value, global_risk_k2(alpha, sm, LAP1).value)
    variant = evaluate_measure("global_variant", LAP1, size_model=sm, n_categories=2)
    n = np.arange(1, variant.truncated_at + 1, dtype=float)
    assert close(variant.value, float(np.sum(sm.pmf(n) * LAP1.cdf(0.5) * LAP1.sf(0.5 - n))))


def test_evaluate_measure_requirements(rng):
    t = random_table(rng, m=4)
    with pytest.raises(ValueError, match="unknown measure"):
        evaluate_measure("total", LAP1, table=t)
    sm = CellSizeModel(family="poisson", lam=2.0)
    for measure, inputs, message in [
        ("local", dict(alpha=[1.0, 1.0]), "measure 'local' requires a table"),
        ("expected", {}, "measure 'expected' requires a table"),
        ("shrinkage", dict(table=t), "measure 'shrinkage' requires a table and alpha"),
        ("global", dict(alpha=[1.0, 1.0]), "measure 'global' requires alpha and a size model"),
        ("global_variant", dict(size_model=sm),
         "measure 'global_variant' requires a size model and n_categories"),
    ]:
        with pytest.raises(ValueError) as info:
            evaluate_measure(measure, LAP1, **inputs)
        assert str(info.value) == message
    assert MEASURES == ("local", "expected", "shrinkage", "global", "global_variant")


def test_risk_curve_sorted_and_thread_invariant(rng):
    t = random_table(rng, m=6, k=2, n_max=20)
    params = [PrivacyParams("laplace", e) for e in (3.0, 0.1, 1.0, 0.5)]
    params += [PrivacyParams("gaussian_pdp", 0.5, delta=d) for d in (1e-3, 1e-5)]
    pts = risk_curve("expected", params, table=t)
    keys = [(p.epsilon, -1.0 if p.delta is None else p.delta) for p in pts]
    assert keys == sorted(keys)


def repeated_size_table(rng, m=60, k=4):
    """Random K-category table whose cells share a handful of sizes."""
    rows = []
    for _ in range(m):
        n = int(rng.choice([1, 2, 3, 5, 8, 8, 13]))
        rows.append(tuple(int(c) for c in rng.multinomial(n, rng.dirichlet(np.full(k, 0.4)))))
    return make_table(rows)


CURVE_MECHANISMS = {
    "laplace": [PrivacyParams("laplace", e) for e in np.geomspace(0.01, 100.0, 9)],
    "gaussian_pdp": [PrivacyParams("gaussian_pdp", e, delta=1e-5) for e in np.geomspace(0.01, 100.0, 9)],
    "gaussian_adp": [PrivacyParams("gaussian_adp", e, delta=1e-3) for e in np.geomspace(0.01, 0.99, 9)],
}


def close(a, b, rel=1e-13):
    return abs(a - b) <= rel * abs(b)


@pytest.mark.parametrize("mechanism", sorted(CURVE_MECHANISMS))
@pytest.mark.parametrize("measure", MEASURES)
def test_risk_curve_matches_pointwise_evaluation(measure, mechanism, rng):
    t = repeated_size_table(rng)
    inputs = dict(
        table=t,
        alpha=[0.4, 0.7, 1.1, 2.0],
        size_model=CellSizeModel(family="negbin", lam=0.3, r=2.5),
        n_categories=4,
        zero_truncated=True,
    )
    params = CURVE_MECHANISMS[mechanism]
    pts = risk_curve(measure, params, **inputs)
    assert [p.epsilon for p in pts] == [p.epsilon for p in params]
    for p, pt in zip(params, pts):
        rv = evaluate_measure(measure, p, **inputs)
        assert close(pt.value, rv.value)
        assert close(pt.scenario1, rv.scenario1)
        assert close(pt.scenario8, rv.scenario8)
        # the size-grouped kernels against plain per-cell averages
        if measure == "expected":
            assert close(rv.value, float(np.mean(expected_risk_cells_direct(t.counts, p))))
        if measure == "local":
            assert close(rv.value, float(np.mean([local_risk(c, p).value for c in t.counts])))


@pytest.mark.parametrize("mechanism", sorted(CURVE_MECHANISMS))
def test_local_risk_ignores_category_order(rng, mechanism):
    """Every permutation of a cell's counts gives the same bits, and a table
    whose rows are permutations of one cell has one local configuration."""
    for cell in random_cells(rng, 50, k_max=4):
        for p in CURVE_MECHANISMS[mechanism][::8]:
            values = {local_risk(perm, p) for perm in itertools.permutations(cell)}
            assert len(values) == 1
    table = make_table(sorted(set(itertools.permutations((0, 1, 2, 5)))))
    assert len(hadr.risk._LocalProfile(table.counts).index) == 1
    for p in CURVE_MECHANISMS[mechanism]:
        assert evaluate_measure("local", p, table=table).value == pytest.approx(
            local_risk((0, 1, 2, 5), p).value, rel=1e-14
        )


def _grouping_tables():
    """Counts arrays with repeated and permuted cells: K from 2 to 6, one K = 12
    array of over 100 distinct values, and one of counts near 2**62."""
    rng = np.random.default_rng(62)
    for k in range(2, 7):
        counts = rng.integers(0, 5, size=(300, k))
        counts = counts[counts.sum(axis=1) > 0]  # a table has no empty cell
        yield np.concatenate([counts, rng.permuted(counts[:100], axis=1)])
    counts = rng.integers(0, 400, size=(200, 12))
    yield np.concatenate([counts, rng.permuted(counts[:50], axis=1)])
    counts = 2**62 - rng.integers(0, 4, size=(200, 3))
    counts[:, 0] = rng.integers(0, 3, size=200)
    yield np.concatenate([counts, rng.permuted(counts[:50], axis=1)])


@pytest.mark.parametrize("counts", list(_grouping_tables()),
                         ids=["k2", "k3", "k4", "k5", "k6", "k12", "near-2**62"])
def test_local_profile_groups_as_an_axis_0_unique_of_the_sorted_rows(counts):
    """The grouping has the configurations, first rows and row map of the
    former route, np.unique over the sorted rows along axis 0, in its order.
    With K = 12 and over 100 distinct values the fold ranks its keys, and
    near 2**62 distinct counts share a double but not a configuration."""
    rows = np.sort(counts, axis=1)
    configs, first, row = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    local = hadr.risk._LocalProfile(counts)
    assert np.array_equal(rows[local.first], configs)
    assert np.array_equal(local.first, first)
    assert np.array_equal(local.row, row.ravel())
    assert np.array_equal(local.values[local.index], configs.astype(float))
    if counts.shape[1] == 12:
        assert np.unique(counts).size > 100


def test_expected_risk_of_1_1_4_and_4_1_1_is_one_value():
    """Summed in category order, the two cells gave 0.051819607346683214 and
    0.05181960734668322; the moments are now summed over sorted counts."""
    cells = ((1, 1, 4), (4, 1, 1))
    a, b = (evaluate_measure("expected", LAP1, table=make_table([c])) for c in cells)
    assert a == b
    assert a.value == 0.051819607346683214


@pytest.mark.parametrize("mechanism", sorted(CURVE_MECHANISMS))
def test_expected_risk_ignores_category_order(rng, mechanism):
    """Every permutation of a cell's counts gives the same expected-measure bits."""
    for cell in random_cells(rng, 50, k_max=4):
        for p in CURVE_MECHANISMS[mechanism][::8]:
            perms = itertools.permutations(cell)
            values = {evaluate_measure("expected", p, table=make_table([c])) for c in perms}
            assert len(values) == 1


@pytest.mark.parametrize("mechanism", sorted(CURVE_MECHANISMS))
def test_local_profile_bitwise_equals_per_cell_values(rng, mechanism):
    """Evaluating each distinct sorted count vector once and gathering the
    values back gives the same bits as the per-cell local values."""
    t = repeated_size_table(rng, m=200)
    assert len(np.unique(t.counts, axis=0)) < t.n_cells
    homogeneous = np.count_nonzero(t.counts, axis=1) == 1
    params = CURVE_MECHANISMS[mechanism]
    for p, pt in zip(params, risk_curve("local", params, table=t)):
        vals = np.array([local_risk(row, p).value for row in t.counts])
        c1 = np.where(homogeneous, vals, 0.0)
        want = (float(np.mean(vals)), float(np.mean(c1)), float(np.mean(vals - c1)))
        assert (pt.value, pt.scenario1, pt.scenario8) == want
        assert evaluate_measure("local", p, table=t)[:3] == want


def test_curve_and_inversion_build_profile_once(rng, monkeypatch):
    """A curve or an inversion does each measure's eps-independent work
    (size grouping, sorted count vectors, Gamma ratios, the size series)
    as often as a single point does, however many points it evaluates."""
    calls = Counter()

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    class CountingNumpy:
        """numpy as hadr.risk sees it, with np.unique counted."""

        def __getattr__(self, name):
            return getattr(np, name)

        def unique(self, *args, **kwargs):
            calls["unique"] += 1
            return np.unique(*args, **kwargs)

    monkeypatch.setattr(hadr.risk, "np", CountingNumpy())
    counting(hadr.risk, "_dirichlet_moments")
    counting(CellSizeModel, "tail_quantile")
    counting(FrequencyTable, "sizes")
    inputs = dict(
        table=repeated_size_table(rng),
        alpha=[0.4, 0.7, 1.1, 2.0],
        size_model=CellSizeModel(family="poisson", lam=4.0),
        n_categories=4,
    )
    grid = [PrivacyParams("laplace", e) for e in np.geomspace(0.01, 100.0, 25)]
    for measure in MEASURES:
        calls.clear()
        evaluate_measure(measure, grid[0], **inputs)
        one_point = dict(calls)
        assert one_point  # every measure's profile passes a counted call
        calls.clear()
        pts = risk_curve(measure, grid, **inputs)
        assert calls == one_point
        target = 0.5 * (pts[0].value + max(p.value for p in pts))
        calls.clear()
        invert_epsilon(measure, target, "laplace", **inputs)
        assert calls == one_point


def test_invert_matches_frozen_epsilons():
    # epsilons frozen from the per-point implementation, default tol 1e-6
    t = make_table([(5, 0, 0), (3, 2, 0), (1, 1, 1), (7, 0, 0), (2, 2, 2), (4, 1, 0), (9, 0, 1), (0, 6, 0)])
    tol = 1e-6
    res = invert_epsilon("expected", 0.3, "laplace", table=t)
    assert abs(res.epsilon - 1.5959096364487482) <= tol
    res = invert_epsilon("local", 0.3, "gaussian_pdp", delta=1e-5, table=t)
    assert abs(res.epsilon - 9.855492626749895) <= tol
    res = invert_epsilon(
        "global", 0.2, "laplace", alpha=[0.5, 0.8, 1.2],
        size_model=CellSizeModel(family="poisson", lam=4.0), zero_truncated=True,
    )
    assert abs(res.epsilon - 1.3392606215982925) <= tol


def test_curve_csv_format(rng):
    t = random_table(rng, m=5, k=2, n_max=15)
    pts = risk_curve("expected", [LAP1, PrivacyParams("gaussian_pdp", 2.0, delta=1e-4)], table=t)
    text = curve_to_csv(pts)
    lines = text.splitlines()
    assert lines[0] == "epsilon,delta,mechanism,measure,value,scenario1_component,scenario8_component"
    assert len(lines) == 3
    lap_row = lines[1].split(",")
    assert lap_row[1] == "" and lap_row[2] == "laplace" and lap_row[3] == "expected"
    assert lap_row[4] == format(pts[0].value, ".12g")
    assert text.endswith("\n")


def test_invert_round_trip():
    t = make_table([(10, 0)])
    res = invert_epsilon("expected", 0.7, "laplace", table=t)
    assert res.risk <= 0.7
    assert res.risk == pytest.approx(0.7, abs=1e-5)
    above = evaluate_measure("expected", PrivacyParams("laplace", res.epsilon + 1e-4), table=t)
    assert above.value > 0.7
    # the known reference point: risk 0.6967... sits just below epsilon 1
    assert invert_epsilon("expected", HOMOG_N10_K2_LAP1 + 1e-7, "laplace", table=t).epsilon == pytest.approx(
        1.0, abs=1e-4
    )


def test_invert_floor_error():
    t = make_table([(10, 0)])
    with pytest.raises(ValueError, match="below the achievable floor"):
        invert_epsilon("expected", 0.2, "laplace", table=t)


def test_invert_ceiling_error():
    t = make_table([(10, 0)])
    with pytest.raises(ValueError, match="never exceeded"):
        invert_epsilon("expected", 0.9, "gaussian_adp", delta=1e-5, table=t)


def test_invert_target_validation():
    t = make_table([(10, 0)])
    for target in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            invert_epsilon("expected", target, "laplace", table=t)


@pytest.mark.parametrize("k", [2.5, True, 1])
def test_global_variant_refuses_a_non_integer_or_small_k(k):
    """The closed form takes K as mc_global_variant does: an integer of at least 2."""
    sm = CellSizeModel(family="poisson", lam=4.0)
    with pytest.raises(ValueError, match=r"^n_categories must be an integer >= 2$"):
        evaluate_measure("global_variant", LAP1, size_model=sm, n_categories=k)
