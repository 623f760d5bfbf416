"""TVD utility analysis over QID marginals."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

import hadr._rng
from conftest import make_table, recording_pool
from hadr import PrivacyParams, mechanism_noise, postprocess_counts, utility_report
from hadr.tabulation import FrequencyTable
from hadr.utility import _marginal, _projection, _qid_codes, tvd_report_to_csv
from oracles import tuple_marginal, tvd, tvd_quartiles


def product_table(rng, levels=(2, 3), k_cat=2):
    """Table whose keys run over the full product of QID levels."""
    names = tuple(f"g{j}" for j in range(len(levels)))
    keys = list(
        itertools.product(*[[f"q{j}v{v}" for v in range(nl)] for j, nl in enumerate(levels)])
    )
    counts = [tuple(int(c) for c in rng.integers(1, 10, size=k_cat)) for _ in keys]
    return FrequencyTable(
        qid_names=names,
        sensitive_name="y",
        categories=tuple(f"y{j}" for j in range(k_cat)),
        keys=keys,
        counts=counts,
    )


def test_tvd_values():
    assert tvd([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tvd([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert tvd([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.25)


def test_tvd_metric_properties(rng):
    for _ in range(30):
        p, q, r = (v / v.sum() for v in rng.uniform(0.01, 1.0, size=(3, 5)))
        assert 0.0 <= tvd(p, q) <= 1.0
        assert tvd(p, q) == tvd(q, p)
        assert tvd(p, r) <= tvd(p, q) + tvd(q, r) + 1e-15


def library_marginal(table, spec, counts):
    """The marginal as utility_report computes it, through its private projection."""
    return _marginal(_projection(_qid_codes(table), spec), counts.sum(axis=1))


def test_marginal_hand_example():
    t = FrequencyTable(
        qid_names=("a", "b"),
        sensitive_name="y",
        categories=("u", "v"),
        keys=(("a0", "b0"), ("a0", "b1"), ("a1", "b0")),
        counts=((2, 1), (0, 3), (4, 0)),
    )
    for spec, want in (((0,), [6, 4]), ((1,), [7, 3]), ((0, 1), [3, 3, 4])):
        np.testing.assert_allclose(tuple_marginal(t, spec, t.counts), np.divide(want, 10))
        np.testing.assert_allclose(library_marginal(t, spec, t.counts), np.divide(want, 10))


def test_marginal_consistency(rng):
    """Summing the 2-way marginal over one QID gives the 1-way marginal."""
    t = product_table(rng, levels=(3, 4))
    two = library_marginal(t, (0, 1), t.counts)
    levels2 = sorted(set((k[0], k[1]) for k in t.keys()))
    levels0 = sorted(set(k[0] for k in t.keys()))
    collapsed = np.zeros(len(levels0))
    for (l0, _), p in zip(levels2, two):
        collapsed[levels0.index(l0)] += p
    np.testing.assert_allclose(collapsed, tuple_marginal(t, (0,), t.counts), atol=1e-12)


def test_report_zero_noise_limit(rng):
    t = product_table(rng)
    report = utility_report(t, PrivacyParams("laplace", 1e6), ks=(1, 2), reps=3, seed=5)
    assert all(r.mean == 0.0 and r.q3 == 0.0 for r in report.rows)


def test_report_marginal_counts_for_six_qids(rng):
    t = make_table([(3, 1), (0, 7), (2, 2)], qid_names=tuple(f"g{j}" for j in range(6)))
    report = utility_report(t, PrivacyParams("laplace", 1.0), ks=(1, 2, 3), reps=2, seed=9)
    assert Counter(r.k for r in report.rows) == {1: 6, 2: 15, 3: 20}
    assert report.rows[0].names == ("g0",)


def test_report_deterministic_and_thread_invariant(rng):
    t = product_table(rng, levels=(2, 2))
    params = PrivacyParams("gaussian_pdp", 1.0, delta=1e-3)
    a = utility_report(t, params, ks=(1, 2), reps=8, seed=3)
    b = utility_report(t, params, ks=(1, 2), reps=8, seed=3, threads=4)
    assert a == b
    c = utility_report(t, params, ks=(1, 2), reps=8, seed=4)
    assert a != c


def test_report_worker_threads_capped(rng, monkeypatch):
    pool, seen = recording_pool()
    monkeypatch.setattr(hadr._rng, "ThreadPoolExecutor", pool)
    t = product_table(rng, levels=(2, 2))
    params = PrivacyParams("laplace", 1.0)
    serial = utility_report(t, params, ks=(1,), reps=5, seed=3)
    for cpus in (2, 16, 1):
        monkeypatch.setattr(hadr._rng, "usable_cpus", lambda cpus=cpus: cpus)
        assert utility_report(t, params, ks=(1,), reps=5, seed=3, threads=64) == serial
    # capped by 2 CPUs, then by the 5 replicates; no pool with one usable CPU
    assert seen == [2, 5]


def test_report_medians_decrease_with_epsilon(rng):
    t = product_table(rng, levels=(3, 3), k_cat=3)
    meds = []
    for eps in (0.1, 1.0, 10.0):
        report = utility_report(t, PrivacyParams("laplace", eps), ks=(1,), reps=60, seed=13)
        meds.append(tvd_quartiles(report, 1)[1])
    assert meds[0] > meds[1] > meds[2]


def test_report_summary_and_validation(rng):
    t = product_table(rng)
    report = utility_report(t, PrivacyParams("laplace", 1.0), ks=(1,), reps=5, seed=7)
    q1, med, q3 = tvd_quartiles(report, 1)
    assert q1 <= med <= q3
    with pytest.raises(ValueError, match="reps"):
        utility_report(t, PrivacyParams("laplace", 1.0), ks=(1,), reps=0, seed=7)
    with pytest.raises(ValueError, match="out of range"):
        utility_report(t, PrivacyParams("laplace", 1.0), ks=(3,), reps=2, seed=7)


@pytest.mark.parametrize("k", [1.7, 1.0, True, 0])
def test_report_refuses_a_marginal_size_that_is_not_a_positive_integer(k):
    """A float or a bool is refused, not read as 1."""
    with pytest.raises(ValueError, match="^marginal size must be a positive integer$"):
        utility_report(make_table([(3, 1)]), PrivacyParams("laplace", 1.0), [k], 2, seed=7)


@pytest.mark.parametrize("reps", [-5, 2.5, True, "10"])
def test_report_rejects_bad_reps(reps):
    with pytest.raises(ValueError, match="reps must be a positive integer"):
        utility_report(make_table([(3, 1)]), PrivacyParams("laplace", 1.0), (1,), reps, seed=7)


def test_report_errors_when_everything_clamps():
    t = make_table([(1, 0)])
    with pytest.raises(ValueError, match="clamped"):
        utility_report(t, PrivacyParams("laplace", 0.1), ks=(1,), reps=200, seed=1)


def test_tvd_csv_format(rng):
    t = make_table([(3, 1), (0, 7)], qid_names=("g0", "g1", "g2"))
    report = utility_report(t, PrivacyParams("laplace", 1.0), ks=(1, 2), reps=4, seed=21)
    text = tvd_report_to_csv(report)
    lines = text.splitlines()
    assert lines[0] == "k,marginal,tvd_mean,tvd_q1,tvd_median,tvd_q3"
    assert len(lines) == 1 + 3 + 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "g0"
    assert first[2] == format(report.rows[0].mean, ".12g")
    two_way = lines[4].split(",")
    assert two_way[1] == "g0*g1"
    assert text.endswith("\n")
    assert math.isfinite(float(two_way[2]))


def tricky_table(rng):
    """Keys whose order trips numeric codes or joined strings: "a9" sorts after
    "a10", "" and "\\x00" and " " sit next to each other, non-ASCII text, and
    ("ab", "c") against ("a", "bc")."""
    first = ["a9", "a10", "", "\x00", " ", "é", "ab", "a"]
    second = ["c", "bc", "", "ü✓", "a10", "a9"]
    third = ["x", "", "ÿ"]
    keys = [k for k in itertools.product(first, second, third) if rng.random() < 0.6]
    counts = [tuple(int(c) for c in rng.integers(0, 6, size=2)) for _ in keys]
    counts = [(c[0] + 1, c[1]) if sum(c) == 0 else c for c in counts]
    return FrequencyTable(("q1", "q2", "q3"), "y", ("u", "v"), keys, counts)


def test_projection_matches_per_key_tuple_oracle(rng):
    t = tricky_table(rng)
    params = PrivacyParams("laplace", 0.7)
    specs = [s for k in (1, 2, 3) for s in itertools.combinations(range(3), k)]
    for spec in specs:
        want = tuple_marginal(t, spec, t.counts).tolist()
        assert library_marginal(t, spec, t.counts).tolist() == want
    report = utility_report(t, params, ks=(1, 2, 3), reps=6, seed=17)
    m, k = t.counts.shape
    draws = []
    for j in range(6):
        post = postprocess_counts(t.counts + mechanism_noise(params, 17, j * m * k, (m, k)))
        draws.append(
            [tvd(tuple_marginal(t, s, post), tuple_marginal(t, s, t.counts)) for s in specs]
        )
    draws = np.array(draws)
    assert [r.names for r in report.rows] == [tuple(t.qid_names[j] for j in s) for s in specs]
    for idx, row in enumerate(report.rows):
        q1, med, q3 = np.quantile(draws[:, idx], [0.25, 0.5, 0.75])
        assert (row.mean, row.q1, row.median, row.q3) == pytest.approx(
            (draws[:, idx].mean(), q1, med, q3), rel=1e-12, abs=1e-15
        )
