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
bit-identical for any thread count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._rng import (
    block_generator,
    check_alpha,
    check_counts,
    check_int,
    check_reps,
    check_seed,
    ordered_map,
)
from .estimation import CellSizeModel
from .mechanisms import PRESENCE_THRESHOLD, PrivacyParams
from .risk import expected_risk_cells
from .tabulation import FrequencyTable

BLOCK_REPS = 1 << 16
_CHUNK_ELEMS = 1 << 21

THRESHOLD_MODES = ("hard", "soft")

_MODE_LABELS = {
    "hard": "plurality over the sanitized support, ties to the lowest category index;"
    " singleton support discloses the true share of its category",
    "soft": "noisy-count-proportional credit over the sanitized support",
}


@dataclass(frozen=True)
class McEstimate:
    """Simulation estimate with a conservative binomial standard error.

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
    """Run ``step(gen, c) -> (value sum, scenario codes)`` over every replicate.

    Replicates are cut into blocks of BLOCK_REPS, block j drawing from
    substream ``block_offset + j``, and each block into chunks of at most
    ``per`` replicates; block results are combined in index order.
    """
    check_seed(seed)
    reps = check_reps(reps)
    block_offset = check_int(block_offset, "block_offset", 0)
    blocks = list(enumerate(_chunks(reps, BLOCK_REPS), start=block_offset))

    def run(block):
        idx, count = block
        gen = block_generator(seed, idx)
        val = 0.0
        tall = np.zeros(8, dtype=np.int64)
        for c in _chunks(count, per):
            v, scen = step(gen, c)
            val += v
            tall += _tally(scen)
        return val, tall

    parts = ordered_map(run, blocks, threads)
    total = sum(p[0] for p in parts)
    tallies = np.sum(np.stack([p[1] for p in parts]), axis=0)
    value = total / reps
    se = math.sqrt(max(value * (1.0 - value), 0.0) / reps)
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
        return float(np.count_nonzero((scen == 1) | (scen == 8))), scen

    per = max(1, _CHUNK_ELEMS // k)
    return _simulate(reps, seed, threads, per, step, block_offset=block_offset)


def mc_local(
    counts, params: PrivacyParams, reps: int, seed: int, *, threads: int = 1, block_offset: int = 0
) -> McEstimate:
    """Disclosure frequency with the observed counts held fixed.

    Pairs with risk.local_risk; ``counts`` is an integer vector.
    ``block_offset`` shifts the substream index so several cells can share
    one seed without stream overlap.
    """
    counts = check_counts(counts)
    k = counts.size

    def draw(gen, c):
        return np.broadcast_to(counts, (c, k))

    return _event(reps, seed, threads, k, params, draw, block_offset=block_offset)


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
    upper_bound_findings).
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("p must be a probability vector with at least 2 categories")
    if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("p must be non-negative and sum to 1")
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
        sizes = size_model.truncated_ppf(gen.random(c))
        return gen.multinomial(sizes, gen.dirichlet(alpha, size=c))

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
        sizes = size_model.truncated_ppf(gen.random(c))
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
    counts = table.counts
    occupied = counts >= 1
    homog = occupied.sum(axis=1) == 1
    m, k = counts.shape
    frac = counts / counts.sum(axis=1, keepdims=True)
    base = counts.astype(float)
    rows = np.arange(m)

    def step(gen, c):
        noisy = base + _noise(gen, params, (c, m, k))
        present = noisy >= PRESENCE_THRESHOLD
        size = present.sum(axis=2)
        if mode == "hard":
            which = np.argmax(np.where(present, noisy, -np.inf), axis=2)
            contrib = frac[rows, which] * (size > 0)
        else:
            w = np.where(present, np.maximum(noisy, 0.0), 0.0)
            denom = w.sum(axis=2, keepdims=True)
            wnorm = np.divide(w, denom, out=np.zeros_like(w), where=denom > 0)
            contrib = (frac * wnorm).sum(axis=2)
        occ_at = occupied[rows, np.argmax(present, axis=2)]
        return float(contrib.mean(axis=1).sum()), _scenarios(homog, size, occ_at)

    per = max(1, _CHUNK_ELEMS // (m * k))
    return _simulate(reps, seed, threads, per, step, mode=mode)


def upper_bound_findings(
    table: FrequencyTable,
    params: PrivacyParams,
    reps: int,
    seed: int,
    *,
    threads: int = 1,
) -> dict:
    """Check the two-term expected value against simulation, cell by cell.

    For homogeneous cells the two-term value is exact. For heterogeneous
    cells its second term covers only one extreme configuration, and the
    simulated disclosure frequency can exceed it; each such cell (excess
    beyond 3 standard errors) is reported as a finding rather than treated
    as a simulation failure.
    """
    reps = check_reps(reps)
    check_seed(seed)
    closed = expected_risk_cells(table, params)
    counts, sizes, keys = table.counts, table.sizes(), table.keys()
    cells = np.flatnonzero(np.count_nonzero(counts, axis=1) > 1).tolist()

    def run(i):
        n = int(sizes[i])
        return mc_expected(n, counts[i] / n, params, reps, seed, threads=1, block_offset=i << 32)

    findings = []
    for i, est in zip(cells, ordered_map(run, cells, threads)):
        excess = est.value - float(closed[i])
        if est.se > 0 and excess > 3.0 * est.se:
            findings.append(
                {
                    "key": list(keys[i]),
                    "mc_value": est.value,
                    "closed_form": float(closed[i]),
                    "se": est.se,
                    "excess_in_se": excess / est.se,
                }
            )
    return {"checked_cells": len(cells), "reps": reps, "violations": findings}


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


def write_mc_json(est: McEstimate, path) -> None:
    with open(path, "w") as fh:
        fh.write(mc_to_json(est))
