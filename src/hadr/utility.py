"""Total-variation utility analysis over QID marginals.

A k-way marginal selects k of the table's QID attributes, sums cell
counts over the other QIDs and over the sensitive attribute, and
normalizes. Utility of a sanitization is the total variation distance
between the original marginal and the one computed from the
post-processed (rounded, clamped) noisy counts, examined over every
size-k subset of QIDs and over repeated independent sanitizations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._rng import check_int, ordered_map
from .mechanisms import PrivacyParams, mechanism_noise, postprocess_counts
from .tabulation import FrequencyTable, _fold


def _qid_codes(table: FrequencyTable) -> list:
    """Per QID column, each cell's rank among the column's sorted distinct values."""
    codes = []
    for column in zip(*table.keys()):
        rank = {v: i for i, v in enumerate(sorted(set(column)))}
        codes.append(np.fromiter(map(rank.__getitem__, column), np.intp, len(column)))
    return codes


def _projection(codes: list, spec: tuple) -> np.ndarray:
    """Group index of every cell for the spec's QIDs, numbered densely in the
    sorted order of the projected keys."""
    columns = [codes[j] for j in spec]
    key = _fold(np.stack(columns), [int(c.max()) + 1 for c in columns])
    return np.unique(key, return_inverse=True)[1]


def _marginal(groups: np.ndarray, cell_totals) -> np.ndarray:
    sums = np.bincount(groups, weights=cell_totals)
    total = sums.sum()
    if total <= 0:
        raise ValueError("marginal total is zero (all sanitized counts clamped to 0)")
    return sums / total


@dataclass(frozen=True)
class TvdRow:
    names: tuple
    k: int
    mean: float
    q1: float
    median: float
    q3: float


@dataclass(frozen=True)
class TvdReport:
    """Per-marginal TVD distributions over repeated sanitizations."""

    rows: tuple
    reps: int


def utility_report(
    table: FrequencyTable,
    params: PrivacyParams,
    ks,
    reps: int,
    seed: int,
    *,
    threads: int = 1,
) -> TvdReport:
    """TVD of every size-k QID marginal, over fresh sanitizations.

    Each replicate draws new noise from its own slice of the seed's
    stream, post-processes, and recomputes every marginal; rows report the
    mean and quartiles of each marginal's TVD across replicates. All
    subsets of each requested size are evaluated (so a table with p QIDs
    yields C(p, k) rows per k).
    """
    reps = check_int(reps, "reps")
    n_qids = len(table.qid_names)
    specs = []
    for k in sorted({check_int(k, "marginal size") for k in ks}):
        if k > n_qids:
            raise ValueError(f"marginal size {k} out of range for {n_qids} QIDs")
        specs.extend(itertools.combinations(range(n_qids), k))
    codes = _qid_codes(table)
    proj = [_projection(codes, spec) for spec in specs]
    base = [_marginal(groups, table.sizes()) for groups in proj]
    counts = table.counts
    m, k_cat = counts.shape
    words_per_rep = m * k_cat

    def one_rep(j: int) -> np.ndarray:
        noise = mechanism_noise(params, seed, j * words_per_rep, (m, k_cat))
        cell_totals = postprocess_counts(counts + noise).sum(axis=1)
        return np.array(
            [
                0.5 * np.abs(_marginal(groups, cell_totals) - p).sum()
                for groups, p in zip(proj, base)
            ]
        )

    draws = np.stack(ordered_map(one_rep, range(reps), threads))

    rows = []
    for idx, spec in enumerate(specs):
        vals = draws[:, idx]
        q1, med, q3 = np.quantile(vals, [0.25, 0.5, 0.75])
        rows.append(
            TvdRow(
                names=tuple(table.qid_names[j] for j in spec),
                k=len(spec),
                mean=float(vals.mean()),
                q1=float(q1),
                median=float(med),
                q3=float(q3),
            )
        )
    return TvdReport(rows=tuple(rows), reps=reps)


def tvd_report_to_csv(report: TvdReport) -> str:
    rows = (
        "%d,%s,%.12g,%.12g,%.12g,%.12g\n" % (r.k, "*".join(r.names), r.mean, r.q1, r.median, r.q3)
        for r in report.rows
    )
    return "k,marginal,tvd_mean,tvd_q1,tvd_median,tvd_q3\n" + "".join(rows)
