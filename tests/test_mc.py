"""Simulation oracles: scenario taxonomy, reproducibility, closed-form pairings.

Every closed form meets its MC oracle in one registry, PAIRS, run over
ORACLE_CASES; all tests use fixed seeds, so they are deterministic.
"""

import ast
import inspect
import itertools
import json
import os
import tracemalloc
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from scipy import stats

import hadr._rng
import hadr.mc
from conftest import make_homog_table, make_table, recording_pool
from hadr import (
    CellSizeModel,
    PrivacyParams,
    evaluate_measure,
    local_risk,
    mc_expected,
    mc_global,
    mc_global_variant,
    mc_local,
    mc_shrinkage,
    mc_threshold_dr,
    upper_bound_findings,
)
from hadr.mc import BLOCK_REPS, McEstimate, mc_to_json
from oracles import classify_scenario, homogeneous_risk

LAP1 = PrivacyParams("laplace", 1.0)
GAUSS = PrivacyParams("gaussian_pdp", 0.5, delta=1e-3)
REPS = 200_000


@pytest.mark.parametrize(
    "counts,support,scenario",
    [
        ((0, 5), {1}, 1),
        ((0, 5), {0}, 2),
        ((0, 5), {0, 1}, 3),
        ((0, 5), set(), 4),
        ((2, 3), {0, 1}, 5),
        ((2, 3), set(), 6),
        ((2, 3, 0), {2}, 7),
        ((2, 3, 0), {0}, 8),
        ((2, 3, 0), {1}, 8),
    ],
)
def test_classify_scenario(counts, support, scenario):
    assert classify_scenario(counts, support) == scenario
    assert classify_scenario(counts, list(support)) == scenario
    assert classify_scenario(counts, tuple(support) + tuple(support)) == scenario


def test_classify_scenario_validation():
    with pytest.raises(ValueError):
        classify_scenario((0, 0), {0})
    with pytest.raises(ValueError):
        classify_scenario((5,), {0})
    with pytest.raises(ValueError, match="out of range"):
        classify_scenario((2, 3), {2})
    with pytest.raises(ValueError, match="out of range"):
        classify_scenario((2, 3), {-1})


def test_scenario_codes_match_oracle():
    """mc's vectorised classification agrees with the case-by-case oracle on
    every support of a few K = 3 cells."""
    cells = np.array([(0, 5, 0), (2, 3, 0), (1, 1, 1), (4, 0, 0), (0, 2, 7)])
    masks = np.array(list(itertools.product((False, True), repeat=3)))
    counts = np.repeat(cells, len(masks), axis=0)
    present = np.tile(masks, (len(cells), 1))
    occupied = counts >= 1
    occ_at = occupied[np.arange(len(counts)), np.argmax(present, axis=1)]
    got = hadr.mc._scenarios(occupied.sum(axis=1) == 1, present.sum(axis=1), occ_at)
    want = [classify_scenario(c, np.flatnonzero(p)) for c, p in zip(counts, present)]
    assert got.tolist() == want


def test_mc_local_tallies_and_cellrecord():
    est = mc_local((1, 4), LAP1, 10_000, seed=5)
    assert sum(est.scenarios.values()) == est.reps == 10_000
    assert est.mode is None
    assert 0.0 <= est.value <= 1.0
    assert est.se > 0


def test_mc_expected_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        mc_expected(3, (0.9, 0.3), LAP1, 100, seed=1)
    with pytest.raises(ValueError):
        mc_expected(0, (0.5, 0.5), LAP1, 100, seed=1)
    with pytest.raises(ValueError):
        mc_expected(3, (1.2, -0.2), LAP1, 100, seed=1)
    # NaN compares false, so it must fail the check, not reach numpy's sampler
    with pytest.raises(ValueError, match=r"^p must be finite, non-negative and sum to 1$"):
        mc_expected(3, (np.nan, 0.5, 0.5), LAP1, 100, seed=1)



def small_counts(g):  # 2 to 4 categories: one count of 1 to 5, the others 0 or 1
    counts = g.integers(0, 2, size=g.integers(2, 5))
    counts[g.integers(counts.size)] = g.integers(1, 6)
    return tuple(counts.tolist())


def concentrations(g):
    return tuple(g.uniform(0.3, 2.0, size=g.integers(2, 5)))


def size_law(g):
    if g.integers(2):
        return CellSizeModel("poisson", lam=g.uniform(0.5, 4.0))
    return CellSizeModel("negbin", lam=g.uniform(0.2, 0.7), r=g.uniform(0.5, 3.0))


class Pair(NamedTuple):  # a closed form and its MC oracle, both called with keywords
    closed: Callable  # (params, **inputs) -> RiskValue, through the public API
    oracle: Callable  # (params, reps, seed, **inputs) -> McEstimate
    inputs: Callable  # (numpy Generator) -> the inputs, a dict
    exact: str  # the exact component: "total" (scenarios 1 and 8) or "scenario1"
    impossible: Callable = lambda **inputs: ()  # -> the scenario codes never drawn


PAIRS = {
    "local": Pair(local_risk, mc_local, lambda g: dict(counts=small_counts(g)), "total",
                  lambda counts: range(5, 9) if np.count_nonzero(counts) == 1 else range(1, 5)),
    "expected": Pair(
        lambda params, counts: evaluate_measure("expected", params, table=make_table([counts])),
        lambda counts, **run: mc_expected(sum(counts), np.divide(counts, sum(counts)), **run),
        lambda g: dict(counts=small_counts(g)), "scenario1",
        lambda counts: range(5, 9) if np.count_nonzero(counts) == 1 else ()),
    "shrinkage": Pair(
        lambda params, n, alpha: evaluate_measure(
            "shrinkage", params, table=make_homog_table([n], k=len(alpha)), alpha=alpha),
        mc_shrinkage, lambda g: dict(n=int(g.integers(2, 7)), alpha=concentrations(g)),
        "scenario1"),
    "global": Pair(partial(evaluate_measure, "global", zero_truncated=True), mc_global,
                   lambda g: dict(alpha=concentrations(g), size_model=size_law(g)), "scenario1"),
    "global_variant": Pair(
        partial(evaluate_measure, "global_variant", zero_truncated=True), mc_global_variant,
        lambda g: dict(size_model=size_law(g), n_categories=int(g.integers(2, 5))), "total",
        lambda **inputs: range(5, 9)),
}
# three epsilons per mechanism, for noise scales from 0.5 to 18
CALIBRATIONS = [PrivacyParams(m, e, delta=d) for m, e, d in [
    ("laplace", 0.5, None), ("laplace", 1.0, None), ("laplace", 2.0, None),
    ("gaussian_pdp", 0.5, 1e-6), ("gaussian_pdp", 2.0, 1e-3), ("gaussian_pdp", 5.0, 0.1),
    ("gaussian_adp", 0.3, 1e-6), ("gaussian_adp", 0.6, 1e-2), ("gaussian_adp", 0.9, 0.5)]]
# negbin models with mu = -r ln(lam) on either side of 1, so that mc._sizes
# takes its logarithmic-sum route for the first and its rejection one for the second
NEGBIN_BELOW_1 = CellSizeModel(family="negbin", lam=0.3, r=0.5)  # mu = 0.60
NEGBIN_ABOVE_1 = CellSizeModel(family="negbin", lam=0.3, r=2.5)  # mu = 3.01
# (row, params, inputs, seed, |z| limit): hand-picked cases, then each row at each calibration
ORACLE_CASES = [
    ("local", LAP1, dict(counts=(0, 10)), 101, 3),
    ("local", PrivacyParams("gaussian_pdp", 0.5, delta=1.0), dict(counts=(0, 10)), 102, 3),
    ("local", LAP1, dict(counts=(2, 3)), 103, 3),
    ("expected", LAP1, dict(counts=(1, 0)), 7, 3),
    ("expected", LAP1, dict(counts=(4, 2)), 11, 3),
    ("shrinkage", LAP1, dict(n=10, alpha=(2.0, 3.0)), 13, 3),
    *[("global", LAP1, dict(alpha=(1.0, 2.0), size_model=sm), 17, 3)
      for sm in (CellSizeModel("poisson", lam=3.0), NEGBIN_BELOW_1, NEGBIN_ABOVE_1)],
    *[("global_variant", LAP1, dict(size_model=sm, n_categories=k), seed, 3)
      for sm in (CellSizeModel("poisson", lam=2.43), NEGBIN_BELOW_1, NEGBIN_ABOVE_1)
      for k, seed in ((2, 19), (3, 23))],
    *[(name, params, PAIRS[name].inputs(np.random.default_rng(seed)), seed, 4)
      for i, name in enumerate(PAIRS) for j, params in enumerate(CALIBRATIONS)
      for seed in [1000 + 10 * i + j]],
]


@pytest.mark.parametrize(
    "name,params,inputs,seed,limit", ORACLE_CASES,
    ids=[f"{n}-{p.mechanism}-{p.epsilon:g}-seed{s}" for n, p, _, s, _ in ORACLE_CASES],
)
def test_closed_form_matches_its_oracle(name, params, inputs, seed, limit):
    """The exact component of a closed form lies within ``limit`` binomial SEs of its MC
    oracle's frequency, and the oracle draws no scenario that the inputs rule out. On fresh
    seeds a correct closed form fails a 3-SE case with probability 0.0027 and a 4-SE one
    with 6.3e-5: 15 x 0.0027 + 45 x 6.3e-5 = 0.043 false alarms expected in 60 cases."""
    pair = PAIRS[name]
    est = pair.oracle(params=params, reps=REPS, seed=seed, **inputs)
    closed = pair.closed(params=params, **inputs)
    want, codes = (closed.value, "18") if pair.exact == "total" else (closed.scenario1, "1")
    rate = sum(est.scenarios[c] for c in codes) / est.reps
    assert abs(rate - want) <= limit * np.sqrt(max(rate * (1.0 - rate), 1e-12) / est.reps)
    assert not any(est.scenarios[str(c)] for c in pair.impossible(**inputs))


SAMPLER_MODELS = {
    "poisson_1e-3": CellSizeModel(family="poisson", lam=1e-3),
    "poisson_2.5": CellSizeModel(family="poisson", lam=2.5),
    "poisson_2**53": CellSizeModel(family="poisson", lam=2.0**53),
    "negbin_mu_0.005": CellSizeModel(family="negbin", lam=0.6, r=0.01),
    "negbin_mu_0.60": NEGBIN_BELOW_1,
    "negbin_mu_0.69_heavy_tail": CellSizeModel(family="negbin", lam=1e-6, r=0.05),
    "negbin_mu_0.97": CellSizeModel(family="negbin", lam=0.5, r=1.4),
    "negbin_mu_1.04": CellSizeModel(family="negbin", lam=0.5, r=1.5),
    "negbin_mu_3.01": NEGBIN_ABOVE_1,
    "negbin_mean_2e13": CellSizeModel(family="negbin", lam=1e-13, r=2.0),
}


@pytest.mark.parametrize("name", list(SAMPLER_MODELS))
def test_size_sampler_matches_the_zero_truncated_pmf(name):
    """Chi-square of 65,536 drawn sizes against scipy.stats' pmf conditioned on
    size >= 1, binned at that law's quantiles (its normal approximation where
    scipy's quantiles are NaN)."""
    sm = SAMPLER_MODELS[name]
    dist = stats.poisson(sm.lam) if sm.r is None else stats.nbinom(sm.r, sm.lam)
    f0 = dist.pmf(0)
    levels = np.linspace(0.05, 0.95, 19)
    edges = dist.ppf(f0 + levels * (1.0 - f0))
    if np.isnan(edges).any():
        edges = np.floor(sm.lam + np.sqrt(sm.lam) * stats.norm.ppf(levels))
    edges = np.unique(edges)
    below = (dist.cdf(edges) - f0) / (1.0 - f0)
    probs = np.diff(np.concatenate([[0.0], below, [1.0]]))
    sizes = hadr.mc._sizes(np.random.default_rng(83), sm, 1 << 16)
    assert sizes.dtype == np.int64 and sizes.size == 1 << 16 and sizes.min() >= 1
    seen = np.bincount(np.searchsorted(edges, sizes), minlength=probs.size)
    want = probs * sizes.size
    assert want.min() >= 5  # the chi-square approximation holds
    chi2 = float(((seen - want) ** 2 / want).sum())
    assert stats.chi2.sf(chi2, probs.size - 1) > 1e-3


def test_thread_count_does_not_change_results():
    reps = 3 * BLOCK_REPS // 2  # forces multiple blocks
    a = mc_expected(5, (0.3, 0.7), LAP1, reps, seed=29, threads=1)
    b = mc_expected(5, (0.3, 0.7), LAP1, reps, seed=29, threads=4)
    assert a == b
    t = make_table([(3, 1), (0, 7)])
    c = mc_threshold_dr(t, LAP1, reps, seed=31, threads=1)
    d = mc_threshold_dr(t, LAP1, reps, seed=31, threads=4)
    assert c == d


def test_worker_threads_capped_by_cpus_and_blocks(monkeypatch):
    pool, seen = recording_pool()
    monkeypatch.setattr(hadr._rng, "ThreadPoolExecutor", pool)
    reps = 2 * BLOCK_REPS + 1  # three blocks
    serial = mc_expected(5, (0.3, 0.7), LAP1, reps, seed=29)
    for cpus in (2, 8, 1):
        monkeypatch.setattr(hadr._rng, "usable_cpus", lambda cpus=cpus: cpus)
        assert mc_expected(5, (0.3, 0.7), LAP1, reps, seed=29, threads=64) == serial
    # 2 CPUs cap it at 2, 3 blocks cap it at 3, a single usable CPU runs serially
    assert seen == [2, 3]
    # the audit pools its 3 distinct heterogeneous count configurations, (1,3),
    # (2,2) and (1,4) sorted; each configuration's 2 blocks run serially inside
    seen.clear()
    t = make_table([(3, 1), (0, 7), (2, 2), (1, 4), (1, 3)])
    serial = upper_bound_findings(t, LAP1, BLOCK_REPS + 1, seed=7)
    monkeypatch.setattr(hadr._rng, "usable_cpus", lambda: 8)
    assert upper_bound_findings(t, LAP1, BLOCK_REPS + 1, seed=7, threads=64) == serial
    assert seen == [3]


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    """Pinned to one CPU of an 8-CPU machine, --threads 8 creates no pool."""
    pool, seen = recording_pool()
    monkeypatch.setattr(hadr._rng, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert hadr._rng.usable_cpus() == 1
    assert hadr._rng.ordered_map(abs, [-1, -2, -3, -4], 8) == [1, 2, 3, 4]
    assert seen == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert hadr._rng.ordered_map(abs, [-1, -2, -3, -4], 8) == [1, 2, 3, 4]
    assert seen == [3]
    # without an affinity call the machine's count is the cap, and 1 when unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert hadr._rng.usable_cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert hadr._rng.usable_cpus() == 1


STREAM_REPS = 2 * BLOCK_REPS + 17  # three blocks, the last one partial
STREAM_TABLE = make_table([(3, 1), (0, 7), (2, 2)])

# Outputs frozen from the samplers as they stand: (value, se, tallies of
# scenarios 1-8) per estimator, and the whole upper_bound_findings report.
# Any change to what a replicate draws, in what order, or how (for example
# a new size sampler, as mc._sizes is for the global pair), or to how the
# SE is formed (the threshold pair's comes from the sample variance),
# moves these numbers; such a change re-records them here and says why,
# and a change that is not meant to alter sampling must leave them alone.
FROZEN_STREAMS = {
    "local": (
        lambda threads: mc_local((3, 0, 1), GAUSS, STREAM_REPS, 101, threads=threads),
        (0.2602125273669034, 0.0012118098034992247, (0, 0, 0, 0, 75117, 11581, 10280, 34111)),
    ),
    "expected": (
        lambda threads: mc_expected(
            6, (0.5, 0.3, 0.2), LAP1, STREAM_REPS, 102, threads=threads, block_offset=1 << 32
        ),
        (0.08446170159204815, 0.0007680421349568492, (1070, 1, 1141, 4, 118690, 150, 31, 10002)),
    ),
    "shrinkage": (
        lambda threads: mc_shrinkage(7, (0.6, 1.4), GAUSS, STREAM_REPS, 103, threads=threads),
        (0.4532493191648422, 0.001374928521973486, (20450, 3682, 18500, 4128, 36815, 8548, 0, 38966)),
    ),
    "global": (
        lambda threads: mc_global(
            (0.8, 1.5, 2.0),
            CellSizeModel(family="negbin", lam=0.3, r=2.5),
            LAP1,
            STREAM_REPS,
            104,
            threads=threads,
        ),
        (0.1857364080891608, 0.0010741078840787132, (12859, 1900, 14108, 2306, 87192, 880, 355, 11489)),
    ),
    "global_variant": (
        lambda threads: mc_global_variant(
            CellSizeModel(family="poisson", lam=2.5), GAUSS, 3, STREAM_REPS, 105, threads=threads
        ),
        (0.17353858828734675, 0.001045986779068377, (22749, 24622, 69917, 13801, 0, 0, 0, 0)),
    ),
    "threshold_hard": (
        lambda threads: mc_threshold_dr(
            STREAM_TABLE, GAUSS, STREAM_REPS, 106, mode="hard", threads=threads
        ),
        (0.5264648444949614, 0.0005321664099948815, (57811, 10326, 51279, 11673, 89591, 44405, 0, 128182)),
    ),
    "threshold_soft": (
        lambda threads: mc_threshold_dr(
            STREAM_TABLE, LAP1, STREAM_REPS, 107, mode="soft", threads=threads
        ),
        (0.6843420176018296, 0.00016146893041790419, (91290, 21, 39704, 74, 191192, 3297, 0, 67689)),
    ),
    "upper_bound_findings": (
        lambda threads: upper_bound_findings(
            make_table([(1, 1), (0, 9), (4, 1)]), LAP1, STREAM_REPS, 108, threads=threads
        ),
        {
            "checked_cells": 2,
            "reps": STREAM_REPS,
            "violations": [
                {
                    "key": ["c0"],
                    "mc_value": 0.5203640274927721,
                    "closed_form": 0.41514944022103883,
                    "se": 0.0013798325374586552,
                    "excess_in_se": 76.25170766411637,
                },
                {
                    "key": ["c2"],
                    "mc_value": 0.3923822746378415,
                    "closed_form": 0.2521103181839413,
                    "se": 0.0013486112626076715,
                    "excess_in_se": 104.01214964100971,
                },
            ],
        },
    ),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", list(FROZEN_STREAMS))
def test_streams_frozen(name, threads):
    run, frozen = FROZEN_STREAMS[name]
    got = run(threads)
    if isinstance(got, McEstimate):
        assert got.reps == STREAM_REPS
        got = (got.value, got.se, tuple(got.scenarios[str(i)] for i in range(1, 9)))
    assert got == frozen


def test_block_offset_shifts_stream():
    a = mc_expected(5, (0.5, 0.5), LAP1, 4096, seed=37)
    b = mc_expected(5, (0.5, 0.5), LAP1, 4096, seed=37, block_offset=1 << 32)
    assert a.value != b.value  # different substream, same seed
    again = mc_expected(5, (0.5, 0.5), LAP1, 4096, seed=37, block_offset=1 << 32)
    assert b == again


@pytest.mark.parametrize("offset", [True, 5.0, -1])
def test_block_offset_must_be_a_non_negative_integer(offset):
    """A bool or a float is refused rather than taken as an index."""
    with pytest.raises(ValueError, match="^block_offset must be an integer >= 0$"):
        mc_expected(5, (0.5, 0.5), LAP1, 16, seed=37, block_offset=offset)


@pytest.mark.parametrize("params", [LAP1, GAUSS], ids=["laplace", "gaussian_pdp"])
def test_mc_expected_is_symmetric_in_the_categories(params):
    """Permuting p leaves the disclosure law alone: the grouping in
    upper_bound_findings rests on this, checked here on independent seeds."""
    reps = 100_000
    p = np.array([0.5, 0.3, 0.2, 0.0])
    a = mc_expected(6, p, params, reps, seed=59)
    b = mc_expected(6, p[[2, 3, 0, 1]], params, reps, seed=61)

    def shares(est):
        return [est.value, est.scenarios["1"] / reps, est.scenarios["8"] / reps]

    for x, y in zip(shares(a), shares(b)):
        se_diff = np.sqrt((x * (1 - x) + y * (1 - y)) / reps)
        assert abs(x - y) <= 4.0 * se_diff


def test_threshold_hard_plurality_share():
    t = make_table([(5, 95)])
    est = mc_threshold_dr(t, PrivacyParams("laplace", 50.0), 4096, seed=47, mode="hard")
    assert est.value == pytest.approx(0.95, abs=1e-9)
    assert est.mode == "hard"


def test_threshold_soft_proportional_share():
    t = make_table([(5, 95)])
    est = mc_threshold_dr(t, PrivacyParams("laplace", 50.0), 4096, seed=53, mode="soft")
    # weights lock to the true proportions as noise vanishes: 0.05^2 + 0.95^2
    assert est.value == pytest.approx(0.905, abs=2e-3)


def test_threshold_even_split_is_half():
    t = make_table([(50, 50)])
    hard = mc_threshold_dr(t, PrivacyParams("laplace", 50.0), 2048, seed=59, mode="hard")
    soft = mc_threshold_dr(t, PrivacyParams("laplace", 50.0), 2048, seed=61, mode="soft")
    assert hard.value == pytest.approx(0.5, abs=1e-12)
    assert soft.value == pytest.approx(0.5, abs=1e-12)


def test_threshold_exceeds_pure_event_risk_at_tiny_epsilon():
    params = PrivacyParams("laplace", 1e-3)
    t = make_homog_table([3, 5, 8, 2, 12], k=2)
    est = mc_threshold_dr(t, params, 20_000, seed=67)
    closed = homogeneous_risk(t, params)
    assert est.value - 3.0 * est.se > closed.value


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_threshold_se_matches_the_spread_over_seeds(mode):
    """The reported SE is the sample sd of the replicate values over sqrt(reps):
    over 40 seeds it tracks the sd of the estimates within a factor of 1.5 (a
    binomial SE of the value overstates it 30 to 50 times on these 120 cells)."""
    rng = np.random.default_rng(89)
    t = make_table(rng.multinomial(6, [0.5, 0.3, 0.2], size=120))
    params = PrivacyParams("laplace", 0.5)
    ests = [mc_threshold_dr(t, params, 50, seed=s, mode=mode) for s in range(40)]
    spread = np.std([e.value for e in ests], ddof=1)
    se = np.mean([e.se for e in ests])
    assert 1 / 1.5 < se / spread < 1.5


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_threshold_chunk_size_never_moves_a_bit(monkeypatch, mode):
    """A block's replicate values are summed once, so chunks of one replicate,
    of five, and of 2**21 entries give the default's estimate; 64-replicate
    blocks make 300 replicates span five of them."""
    rng = np.random.default_rng(97)
    t = make_table(rng.multinomial(5, [0.5, 0.3, 0.2], size=12))  # 36 entries
    monkeypatch.setattr(hadr.mc, "BLOCK_REPS", 64)
    default = mc_threshold_dr(t, LAP1, 300, seed=83, mode=mode)
    for elems in (36, 5 * 36, 2**21):
        monkeypatch.setattr(hadr.mc, "_THRESHOLD_CHUNK_ELEMS", elems)
        for threads in (1, 2):
            assert mc_threshold_dr(t, LAP1, 300, seed=83, mode=mode, threads=threads) == default


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_threshold_working_set_is_bounded(mode):
    """On a 20,000-cell K = 4 table, 30 replicates stay under 16 MB traced:
    chunks of 2**18 noise entries hold 3 replicates, where chunks of 2**21
    would hold 26, 17 MB in each of their float arrays."""
    rng = np.random.default_rng(101)
    t = make_table(rng.multinomial(rng.integers(1, 12, size=20_000), [0.4, 0.3, 0.2, 0.1]))
    tracemalloc.start()
    try:
        mc_threshold_dr(t, LAP1, 30, seed=103, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_threshold_tallies_and_validation():
    t = make_table([(3, 1), (0, 7), (2, 2)])
    est = mc_threshold_dr(t, LAP1, 1000, seed=71)
    assert sum(est.scenarios.values()) == 1000 * 3
    with pytest.raises(ValueError, match="mode"):
        mc_threshold_dr(t, LAP1, 100, seed=1, mode="fuzzy")
    with pytest.raises(ValueError, match="^the threshold estimator needs reps >= 2"):
        mc_threshold_dr(t, LAP1, 1, seed=1)


def test_mc_json_shapes():
    plain = mc_local((0, 4), LAP1, 1000, seed=73)
    obj = json.loads(mc_to_json(plain))
    assert set(obj) == {"value", "se", "reps", "scenarios"}
    assert set(obj["scenarios"]) == {str(i) for i in range(1, 9)}
    thr = mc_threshold_dr(make_table([(2, 2)]), LAP1, 1000, seed=79, mode="soft")
    obj = json.loads(mc_to_json(thr))
    assert obj["mode"] == "soft"
    assert "proportional" in obj["definition"]


def test_reps_and_seed_validation():
    with pytest.raises(ValueError):
        mc_local((0, 4), LAP1, 0, seed=1)
    with pytest.raises(ValueError):
        mc_local((0, 4), LAP1, 100, seed=-1)
    with pytest.raises(ValueError):
        mc_local((0, 4), LAP1, 100, seed=2**64)


BAD_REPS = [0, -5, 2.5, True, "10"]


@pytest.mark.parametrize("reps", BAD_REPS)
def test_estimators_reject_bad_reps(reps):
    with pytest.raises(ValueError, match="reps must be a positive integer"):
        mc_local((0, 4), LAP1, reps, seed=1)
    with pytest.raises(ValueError, match="reps must be a positive integer"):
        mc_threshold_dr(make_table([(2, 2)]), LAP1, reps, seed=1)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: mc_expected(2.5, (0.5, 0.5), LAP1, 100, seed=1), "cell size"),
        (lambda: mc_expected(True, (0.5, 0.5), LAP1, 100, seed=1), "cell size"),
        (lambda: mc_shrinkage(3.7, (1.0, 1.0), LAP1, 100, seed=1), "cell size"),
        (
            lambda: mc_global_variant(CellSizeModel(family="poisson", lam=2.0), LAP1, 2.9, 100, 1),
            "n_categories must be an integer >= 2",
        ),
        (lambda: mc_shrinkage(3, (np.inf, 1.0), LAP1, 100, seed=1), "finite and positive"),
        (
            lambda: mc_global((1.0, np.nan), CellSizeModel("poisson", 2.0), LAP1, 100, 1),
            "finite and positive",
        ),
        (lambda: mc_local((0, 4), LAP1, 100, seed=1, threads=0), "threads"),
        (lambda: mc_local((0, 4), LAP1, 100, seed=1, threads=-3), "threads"),
        (lambda: mc_expected(3, [1.0], LAP1, 100, seed=1), "^p must be a probability vector"),
        (lambda: mc_expected(3, [[0.5, 0.5]], LAP1, 100, seed=1), "^p must be a probability vector"),
    ],
    ids=[
        "expected_float_n",
        "expected_bool_n",
        "shrinkage_float_n",
        "variant_float_k",
        "shrinkage_infinite_alpha",
        "global_nan_alpha",
        "zero_threads",
        "negative_threads",
        "expected_one_category_p",
        "expected_matrix_p",
    ],
)
def test_estimators_reject_inputs_they_would_coerce(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_reps_come_back_as_a_plain_int():
    assert type(mc_local((0, 5), LAP1, np.int64(7), seed=1).reps) is int
    report = upper_bound_findings(make_homog_table([2, 5]), LAP1, np.int32(3), seed=1)
    assert type(report["reps"]) is int


def hadr_modules(node) -> set:
    """The hadr modules an import statement names: "risk" for hadr.risk."""
    if isinstance(node, ast.Import):
        paths = [alias.name for alias in node.names]
    else:
        package = "hadr" if node.level else ""
        paths = [".".join(filter(None, (package, node.module, a.name))) for a in node.names]
    return {path.split(".")[1] for path in paths if path.startswith("hadr.")}


def test_the_two_routes_meet_only_in_the_audit():
    """MC estimators never reuse closed-form code, so each route checks the other:
    mc imports nothing from risk or audit, risk nothing from mc or audit, and of
    the modules that import both mc and risk, the audit is the only one that
    computes; the package's re-exports and the command line import every layer."""
    imports = {}
    for path in Path(hadr.mc.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        imports[path.stem] = set().union(*map(hadr_modules, nodes))
    assert not imports["mc"] & {"risk", "audit"}
    assert not imports["risk"] & {"mc", "audit"}
    both = sorted(name for name, got in imports.items() if {"mc", "risk"} <= got)
    assert both == ["__init__", "audit", "cli"]


def test_mc_draws_noise_from_the_scale_alone():
    """MC reads only a mechanism and a scale: it never calls the closed forms' tails."""
    tree = ast.parse(inspect.getsource(hadr.mc))
    tails = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("cdf", "sf")
    ]
    assert tails == []
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "params"
    }
    assert read == {"mechanism", "scale"}


def test_mc_draws_sizes_from_the_model_parameters_alone():
    """MC reads a size model's family, lam and r and calls none of its methods,
    so the global oracles share no size kernel with the closed-form series."""
    tree = ast.parse(inspect.getsource(hadr.mc))

    def is_model(node):
        return isinstance(node, ast.Name) and node.id == "size_model"

    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and is_model(n.value)}
    assert read == {"family", "lam", "r"}
    passed_to = {
        ast.unparse(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call) and any(
            is_model(a) for a in [*n.args, *(k.value for k in n.keywords)]
        )
    }
    assert passed_to == {"_sizes"}
