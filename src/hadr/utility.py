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

from ._rng import check_reps, ordered_map
from .mechanisms import PrivacyParams, mechanism_noise, postprocess_counts
from .tabulation import FrequencyTable


def _check_spec(table: FrequencyTable, spec) -> tuple:
    spec = tuple(int(j) for j in spec)
    if len(spec) < 1:
        raise ValueError("a marginal needs at least one QID index")
    if len(set(spec)) != len(spec):
        raise ValueError("marginal QID indices must be distinct")
    if min(spec) < 0 or max(spec) >= len(table.qid_names):
        raise ValueError(
            f"marginal indices {spec} out of range for {len(table.qid_names)} QIDs"
        )
    return spec


def _projection(table: FrequencyTable, spec: tuple):
    """Group index and group count for the projected keys, sorted."""
    proj = [tuple(key[j] for j in spec) for key in table.keys()]
    levels = sorted(set(proj))
    index = {lvl: i for i, lvl in enumerate(levels)}
    groups = np.array([index[p] for p in proj])
    return groups, len(levels)


def marginal_probs(table: FrequencyTable, spec, counts=None) -> np.ndarray:
    """Probability vector of the k-way marginal over the given QID subset.

    ``counts`` defaults to the table's own; pass post-processed sanitized
    counts (same cells-by-categories shape) to get the sanitized marginal.
    Groups are ordered by sorted projected key, so vectors from the same
    table line up for comparison.
    """
    spec = _check_spec(table, spec)
    if counts is None:
        counts = table.counts_matrix()
    counts = np.asarray(counts)
    if counts.shape != (table.n_cells, table.n_categories):
        raise ValueError("counts must match the table's cells-by-categories shape")
    groups, n_levels = _projection(table, spec)
    cell_totals = counts.sum(axis=1).astype(float)
    sums = np.zeros(n_levels)
    np.add.at(sums, groups, cell_totals)
    total = sums.sum()
    if total <= 0:
        raise ValueError("marginal total is zero (all sanitized counts clamped to 0)")
    return sums / total


def tvd(p, q) -> float:
    """Total variation distance between two probability vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("probability vectors must have matching 1-D shapes")
    for name, v in (("first", p), ("second", q)):
        if abs(float(v.sum()) - 1.0) > 1e-9:
            raise ValueError(f"{name} vector is not normalized (sums to {v.sum()!r})")
    return float(0.5 * np.abs(p - q).sum())


@dataclass(frozen=True)
class TvdRow:
    spec: tuple
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

    def rows_for(self, k: int):
        return [r for r in self.rows if r.k == k]

    def summary(self, k: int):
        """Quartiles of the per-marginal mean TVDs at size k (box-plot data)."""
        means = [r.mean for r in self.rows_for(k)]
        if not means:
            raise ValueError(f"no marginals of size {k} in this report")
        q1, med, q3 = np.quantile(means, [0.25, 0.5, 0.75])
        return float(q1), float(med), float(q3)


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
    reps = check_reps(reps)
    ks = sorted(set(int(k) for k in ks))
    specs = []
    for k in ks:
        if not 1 <= k <= len(table.qid_names):
            raise ValueError(
                f"marginal size {k} out of range for {len(table.qid_names)} QIDs"
            )
        specs.extend(itertools.combinations(range(len(table.qid_names)), k))
    proj = [_projection(table, spec) for spec in specs]
    counts = table.counts_matrix()
    base = [marginal_probs(table, spec) for spec in specs]
    m, k_cat = counts.shape
    words_per_rep = m * k_cat

    def one_rep(j: int) -> np.ndarray:
        noise = mechanism_noise(params, seed, j * words_per_rep, (m, k_cat))
        post = postprocess_counts(counts + noise)
        cell_totals = post.sum(axis=1).astype(float)
        out = np.empty(len(specs))
        for idx, (groups, n_levels) in enumerate(proj):
            sums = np.zeros(n_levels)
            np.add.at(sums, groups, cell_totals)
            total = sums.sum()
            if total <= 0:
                raise ValueError(
                    "marginal total is zero (all sanitized counts clamped to 0)"
                )
            out[idx] = 0.5 * np.abs(sums / total - base[idx]).sum()
        return out

    draws = np.stack(ordered_map(one_rep, range(reps), threads))

    rows = []
    for idx, spec in enumerate(specs):
        vals = draws[:, idx]
        q1, med, q3 = np.quantile(vals, [0.25, 0.5, 0.75])
        rows.append(
            TvdRow(
                spec=spec,
                names=tuple(table.qid_names[j] for j in spec),
                k=len(spec),
                mean=float(vals.mean()),
                q1=float(q1),
                median=float(med),
                q3=float(q3),
            )
        )
    return TvdReport(rows=tuple(rows), reps=reps)


def _fmt12(x: float) -> str:
    return format(float(x), ".12g")


def tvd_report_to_csv(report: TvdReport) -> str:
    lines = ["k,marginal,tvd_mean,tvd_q1,tvd_median,tvd_q3"]
    for r in report.rows:
        lines.append(
            ",".join(
                [
                    str(r.k),
                    "*".join(r.names),
                    _fmt12(r.mean),
                    _fmt12(r.q1),
                    _fmt12(r.median),
                    _fmt12(r.q3),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_tvd_csv(report: TvdReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(tvd_report_to_csv(report))
