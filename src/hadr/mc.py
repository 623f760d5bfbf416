"""Monte-Carlo oracles for the closed-form risk measures.

Every estimator here simulates the actual release process (draw a cell,
add mechanism noise, threshold at 0.5, classify the outcome) and never
touches the closed-form tail algebra, so agreement between the two routes
is a real check rather than a tautology.

Outcomes are classified into eight disjoint scenarios. For a cell that
was homogeneous at category k:

1. the support is exactly {k} (disclosure);
2. the support is a different single category;
3. the support has two or more categories;
4. the support is empty.

For a heterogeneous cell:

5. the support has two or more categories;
6. the support is empty;
7. the support is a single unoccupied category;
8. the support is a single occupied category (disclosure).

The disclosure event is scenario 1 or 8, and an estimate's value is
always (tally 1 + tally 8) / reps for the event estimators.

Reproducibility: work is cut into fixed blocks of ``BLOCK_REPS``
replicates. Block j always draws from its own counter-spaced substream of
the seed and block results are combined in index order, so estimates are
bit-identical for any thread count. A block runs in chunks that bound its
working set, but its replicate values are summed once, over the whole
block, so the chunk size never moves a bit of a result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._rng import block_generator, check_alpha, check_counts, check_int, check_seed, ordered_map
from .estimation import CellSizeModel
from .mechanisms import PRESENCE_THRESHOLD, PrivacyParams
from .tabulation import FrequencyTable

BLOCK_REPS = 1 << 16
_CHUNK_ELEMS = 1 << 21
# noise entries per threshold chunk, 2 MB per float array its step holds; the
# event estimators keep _CHUNK_ELEMS, as a smaller chunk would split their
# blocks for K >= 5 and reorder their count and noise draws
_THRESHOLD_CHUNK_ELEMS = 1 << 18

THRESHOLD_MODES = ("hard", "soft")

_MODE_LABELS = {
    "hard": "plurality over the sanitized support, ties to the lowest category index;"
    " singleton support discloses the true share of its category",
    "soft": "noisy-count-proportional credit over the sanitized support",
}


@dataclass(frozen=True)
class McEstimate:
    """Simulation estimate. Its se is binomial for the event estimators, whose
    replicates are 0 or 1, and the replicate sd over sqrt(reps) for threshold.

    scenarios maps "1".."8" to outcome tallies. Single-cell estimators
    classify one outcome per replicate, so their tallies sum to reps;
    table-level estimators classify every (replicate, cell) pair.
    """

    value: float
    se: float
    reps: int
    scenarios: dict
    mode: str | None = None


def _noise(gen, params: PrivacyParams, shape):
    if params.mechanism == "laplace":
        return gen.laplace(0.0, params.scale, shape)
    return gen.normal(0.0, params.scale, shape)


def _poisson(gen, rate: np.ndarray) -> np.ndarray:
    """Poisson(rate) draws. numpy's sampler loses precision past 2**40, so there
    the count of a unit-rate process on [0, rate] is read off its m-th arrival
    G ~ Gamma(m): m + Poisson(rate - G) if G < rate, else Binomial(m - 1, rate / G)."""
    if rate.max() <= 2.0**40:
        return gen.poisson(rate)
    m = int(rate.max())
    g = gen.standard_gamma(m, rate.shape)
    later = m + gen.poisson(np.maximum(rate - g, 0.0))
    return np.where(g < rate, later, gen.binomial(m - 1, np.minimum(rate / g, 1.0)))


def _positive_poisson(gen, lam: float, c: int) -> np.ndarray:
    """c Poisson(lam) draws given >= 1: the first arrival of a rate-lam process on
    [0, 1] is at t = -log1p(U expm1(-lam)) / lam, and Poisson(lam (1 - t)) follow."""
    t = -np.log1p(gen.random(c) * math.expm1(-lam)) / lam
    return 1 + _poisson(gen, lam * (1.0 - t))


def _sizes(gen, size_model: CellSizeModel, c: int) -> np.ndarray:
    """c exact draws of the model's size conditioned on >= 1.

    A negbin(r, p) size is Poisson(Gamma(r) (1 - p) / p), and also the sum of
    N ~ Poisson(mu) Logarithmic(1 - p) terms, mu = -r ln p, so it is >= 1 just
    when N is: below mu = 1 the sum is drawn with N >= 1, and from mu = 1 on,
    where P(0) = exp(-mu) <= 1/e, mixture draws of 0 are rejected.
    """
    lam, r = size_model.lam, size_model.r
    if size_model.family == "poisson":
        return _positive_poisson(gen, lam, c)
    mu = -r * math.log(lam)
    if mu >= 1.0:
        sizes = np.empty(0, dtype=np.int64)
        while sizes.size < c:
            draws = _poisson(gen, gen.standard_gamma(r, c - sizes.size) * ((1.0 - lam) / lam))
            sizes = np.concatenate([sizes, draws[draws > 0]])
        return sizes
    if 1.0 - lam == 1.0:
        raise ValueError(f"cannot sample negbin lam={lam:g}, r={r:g}: 1 - lam rounds to 1")
    n = _positive_poisson(gen, mu, c)
    return np.add.reduceat(gen.logseries(1.0 - lam, int(n.sum())), np.cumsum(n) - n)


def _scenarios(homog, size, occ_at):
    """Scenario codes from homogeneity, support size, and whether the
    argmax support category is occupied (only read when size == 1)."""
    single = size == 1
    empty = size == 0
    return np.where(
        homog,
        np.where(single, np.where(occ_at, 1, 2), np.where(empty, 4, 3)),
        np.where(single, np.where(occ_at, 8, 7), np.where(empty, 6, 5)),
    )


def _tally(scen) -> np.ndarray:
    return np.bincount(np.asarray(scen).ravel(), minlength=9)[1:9]


def _chunks(count: int, per: int):
    while count > 0:
        c = min(per, count)
        yield c
        count -= c


def _simulate(reps, seed, threads, per, step, *, block_offset=0, mode=None) -> McEstimate:
    """Run ``step(gen, c) -> (replicate values, scenario codes)`` over every replicate.

    Replicates are cut into blocks of BLOCK_REPS, block j drawing from
    substream ``block_offset + j``, and each block into chunks of at most
    ``per`` replicates. A block's values are summed once, after its last
    chunk, so chunking never moves a bit; block results are combined in
    index order.
    """
    seed = check_seed(seed)
    reps = check_int(reps, "reps")
    block_offset = check_int(block_offset, "block_offset", 0)
    blocks = list(enumerate(_chunks(reps, BLOCK_REPS), start=block_offset))

    def run(block):
        idx, count = block
        gen = block_generator(seed, idx)
        values = []
        tall = np.zeros(8, dtype=np.int64)
        for c in _chunks(count, per):
            v, scen = step(gen, c)
            values.append(v)
            tall += _tally(scen)
        v = np.concatenate(values)
        return float(v.sum()), float((v * v).sum()), tall

    parts = ordered_map(run, blocks, threads)
    total = sum(p[0] for p in parts)
    tallies = np.sum(np.stack([p[2] for p in parts]), axis=0)
    value = total / reps
    squares = sum(p[1] for p in parts)
    var = value * (1.0 - value) if mode is None else (squares - total * value) / (reps - 1)
    se = math.sqrt(max(var, 0.0) / reps)
    scen = {str(i + 1): int(tallies[i]) for i in range(8)}
    return McEstimate(value, se, reps, scen, mode)


def _event(reps, seed, threads, k, params, draw, *, block_offset=0) -> McEstimate:
    """Disclosure frequency of cells drawn by ``draw(gen, c) -> (c, k) counts``;
    the noise for a chunk is drawn after its counts."""

    def step(gen, c):
        draws = draw(gen, c)
        present = draws + _noise(gen, params, (c, k)) >= PRESENCE_THRESHOLD
        occupied = draws >= 1
        occ_at = occupied[np.arange(c), np.argmax(present, axis=1)]
        scen = _scenarios(occupied.sum(axis=1) == 1, present.sum(axis=1), occ_at)
        return ((scen == 1) | (scen == 8)).astype(float), scen

    per = max(1, _CHUNK_ELEMS // k)
    return _simulate(reps, seed, threads, per, step, block_offset=block_offset)


def mc_local(
    counts, params: PrivacyParams, reps: int, seed: int, *, threads: int = 1
) -> McEstimate:
    """Disclosure frequency with the observed counts held fixed.

    Pairs with risk.local_risk and checks ``counts`` by the same rule.
    """
    counts = check_counts(counts)
    k = counts.size

    def draw(gen, c):
        return np.broadcast_to(counts, (c, k))

    return _event(reps, seed, threads, k, params, draw)


def mc_expected(
    n: int,
    p,
    params: PrivacyParams,
    reps: int,
    seed: int,
    *,
    threads: int = 1,
    block_offset: int = 0,
) -> McEstimate:
    """Disclosure frequency for a size-n cell redrawn from Multinomial(n, p).

    Pairs with the per-cell two-term expected value (exactly for the
    scenario-1 component; the scenario-8 term is only a partial cover, see
    audit.upper_bound_findings). ``block_offset`` shifts the substream index
    so several cells can share one seed without stream overlap.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("p must be a probability vector with at least 2 categories")
    if not (np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= 1e-9):  # false for a NaN or inf
        raise ValueError("p must be finite, non-negative and sum to 1")
    n = check_int(n, "cell size")
    p = p / p.sum()

    def draw(gen, c):
        return gen.multinomial(n, p, size=c)

    return _event(reps, seed, threads, p.size, params, draw, block_offset=block_offset)


def mc_shrinkage(
    n: int, alpha, params: PrivacyParams, reps: int, seed: int, *, threads: int = 1
) -> McEstimate:
    """Disclosure frequency for a size-n cell with Dirichlet(alpha) mix.

    Draw order per replicate: mixing proportions, then counts, then noise.
    Pairs with the "shrinkage" measure on a table whose cells all have size n.
    """
    alpha = check_alpha(alpha)
    n = check_int(n, "cell size")

    def draw(gen, c):
        return gen.multinomial(n, gen.dirichlet(alpha, size=c))

    return _event(reps, seed, threads, alpha.size, params, draw)


def mc_global(
    alpha,
    size_model: CellSizeModel,
    params: PrivacyParams,
    reps: int,
    seed: int,
    *,
    threads: int = 1,
) -> McEstimate:
    """Disclosure frequency with both the size and the mix drawn.

    Sizes come from the model conditioned on being at least 1 (empty cells
    never enter a table), so the matching closed form is the "global"
    measure with zero_truncated=True; against the unnormalized series the
    estimate differs by the deterministic factor 1 - P(size = 0). Draw
    order per replicate: size, mix, counts, noise.
    """
    alpha = check_alpha(alpha)

    def draw(gen, c):
        return gen.multinomial(_sizes(gen, size_model, c), gen.dirichlet(alpha, size=c))

    return _event(reps, seed, threads, alpha.size, params, draw)


def mc_global_variant(
    size_model: CellSizeModel,
    params: PrivacyParams,
    n_categories: int,
    reps: int,
    seed: int,
    *,
    threads: int = 1,
) -> McEstimate:
    """Disclosure frequency when every drawn cell is homogeneous.

    The occupied category is uniform over the K categories; by symmetry of
    the noise the closed form does not depend on that choice. Pairs with
    the "global_variant" measure with zero_truncated=True.
    """
    k = check_int(n_categories, "n_categories", 2)

    def draw(gen, c):
        sizes = _sizes(gen, size_model, c)
        draws = np.zeros((c, k), dtype=np.int64)
        draws[np.arange(c), gen.integers(0, k, size=c)] = sizes
        return draws

    return _event(reps, seed, threads, k, params, draw)


def mc_threshold_dr(
    table: FrequencyTable,
    params: PrivacyParams,
    reps: int,
    seed: int,
    *,
    mode: str = "hard",
    threads: int = 1,
) -> McEstimate:
    """Record-level disclosure fraction under a support-collapse reading.

    Per replicate and cell: a singleton support {k} contributes the true
    share n_k / n (1 for a homogeneous cell); an empty support contributes
    0; a larger support contributes the plurality category's true share in
    ``hard`` mode (argmax of noisy counts over the support, ties to the
    lowest index) or the noisy-count-weighted average of true shares in
    ``soft`` mode. Cell contributions are averaged per replicate, then
    over replicates. Scenario tallies count (replicate, cell) pairs and
    sum to reps times the number of cells.
    """
    if mode not in THRESHOLD_MODES:
        raise ValueError(f"mode must be one of {THRESHOLD_MODES}")
    if check_int(reps, "reps") < 2:
        raise ValueError("the threshold estimator needs reps >= 2 for its standard error")
    counts = table.counts
    occupied = counts >= 1
    homog = occupied.sum(axis=1) == 1
    m, k = counts.shape
    frac = counts / counts.sum(axis=1, keepdims=True)
    base = counts.astype(float)
    rows = np.arange(m)

    def step(gen, c):
        noisy = _noise(gen, params, (c, m, k))
        noisy += base
        present = noisy >= PRESENCE_THRESHOLD
        size = present.sum(axis=2)
        if mode == "hard":
            np.putmask(noisy, ~present, -np.inf)
            which = np.argmax(noisy, axis=2)
            contrib = frac[rows, which] * (size > 0)
        else:
            w = np.where(present, np.maximum(noisy, 0.0), 0.0)
            denom = w.sum(axis=2, keepdims=True)
            wnorm = np.divide(w, denom, out=np.zeros_like(w), where=denom > 0)
            contrib = (frac * wnorm).sum(axis=2)
        occ_at = occupied[rows, np.argmax(present, axis=2)]
        return contrib.mean(axis=1), _scenarios(homog, size, occ_at)

    per = max(1, _THRESHOLD_CHUNK_ELEMS // (m * k))
    return _simulate(reps, seed, threads, per, step, mode=mode)


def mc_to_json(est: McEstimate) -> str:
    payload: dict = {
        "value": est.value,
        "se": est.se,
        "reps": est.reps,
        "scenarios": {str(i): int(est.scenarios[str(i)]) for i in range(1, 9)},
    }
    if est.mode is not None:
        payload["mode"] = est.mode
        payload["definition"] = _MODE_LABELS[est.mode]
    return json.dumps(payload, separators=(",", ":")) + "\n"
