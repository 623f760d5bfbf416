"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes the workload seed and writes plain files that the
program reads; it returns the ground truth the output checks compare
against. Generation uses numpy only and is never timed.
"""

from __future__ import annotations

import json

import numpy as np

K = 4
CATEGORIES = tuple(f"dx{j}" for j in range(K))

# ingest: 10 age bins x 270 zips x 2 sexes x 5 races = 27,000 QID cells
INGEST_ROWS = 1_000_000
AGE_BINS, ZIPS, SEXES, RACES = 10, 270, ("F", "M"), ("r1", "r2", "r3", "r4", "r5")
AGE_WIDTH = 10

# tune: 3 QIDs of 30 levels, sizes NB(2, 0.1) + 1, mixes Dirichlet(0.3 * 1)
TUNE_LEVELS = 30
TUNE_ALPHA = (0.3,) * K

# verify: the 300-cell table audited by upper_bound_findings
AUDIT_CELLS = 300


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def write_table_json(path, qid_names, keys, counts) -> None:
    """Table JSON in the program's file format."""
    doc = {
        "qid_names": list(qid_names),
        "sensitive_name": "dx",
        "categories": list(CATEGORIES),
        "cells": [
            {"key": list(key), "counts": [int(c) for c in row]}
            for key, row in zip(keys, counts)
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def ingest_csv(seed: int, path) -> dict:
    """Write the 1M-row microdata CSV; return its true cross-tabulation.

    Cell weights are Gamma(2)-distributed so cell sizes vary, and each
    cell draws its own Dirichlet(0.5) diagnosis mix, so some cells are
    homogeneous. The truth maps (key, category) to a positive count.
    """
    rng = _rng(seed, 0)
    n_cells = AGE_BINS * ZIPS * len(SEXES) * len(RACES)
    weights = rng.gamma(2.0, size=n_cells)
    sizes = rng.multinomial(INGEST_ROWS, weights / weights.sum())
    mixes = rng.dirichlet(np.full(K, 0.5), size=n_cells)
    counts = rng.multinomial(sizes, mixes)
    cell_of_row = np.repeat(np.repeat(np.arange(n_cells), K), counts.ravel())
    cat_of_row = np.repeat(np.tile(np.arange(K), n_cells), counts.ravel())
    order = rng.permutation(INGEST_ROWS)
    cell_of_row, cat_of_row = cell_of_row[order], cat_of_row[order]
    age_bin, rest = np.divmod(cell_of_row, ZIPS * len(SEXES) * len(RACES))
    zip_i, rest = np.divmod(rest, len(SEXES) * len(RACES))
    sex_i, race_i = np.divmod(rest, len(RACES))
    age = age_bin * AGE_WIDTH + rng.integers(0, AGE_WIDTH, INGEST_ROWS)

    zips = [f"{10000 + 37 * z:05d}" for z in range(ZIPS)]
    ages = [str(a) for a in range(AGE_BINS * AGE_WIDTH)]
    lines = [
        f"{ages[a]},{zips[z]},{SEXES[s]},{RACES[r]},{CATEGORIES[d]}\n"
        for a, z, s, r, d in zip(
            age.tolist(), zip_i.tolist(), sex_i.tolist(), race_i.tolist(), cat_of_row.tolist()
        )
    ]
    with open(path, "w") as fh:
        fh.write("age,zip,sex,race,dx\n")
        fh.writelines(lines)

    truth = {}
    for cell, row in enumerate(counts.tolist()):
        a, rest = divmod(cell, ZIPS * len(SEXES) * len(RACES))
        z, rest = divmod(rest, len(SEXES) * len(RACES))
        s, r = divmod(rest, len(RACES))
        key = (f"{a * AGE_WIDTH}-{(a + 1) * AGE_WIDTH}", zips[z], SEXES[s], RACES[r])
        for j, c in enumerate(row):
            if c:
                truth[(key, CATEGORIES[j])] = c
    return truth


def tune_table(seed: int, path) -> np.ndarray:
    """Write the 27,000-cell table; return its counts matrix (cells x K).

    Seed 1 gives 101 distinct sizes and 3,820 homogeneous cells.
    """
    rng = np.random.default_rng(seed)
    m = TUNE_LEVELS**3
    sizes = rng.negative_binomial(2, 0.1, m) + 1
    mixes = rng.dirichlet(np.asarray(TUNE_ALPHA), m)
    counts = rng.multinomial(sizes, mixes)
    keys = [
        (f"a{i:02d}", f"b{j:02d}", f"c{k:02d}")
        for i in range(TUNE_LEVELS)
        for j in range(TUNE_LEVELS)
        for k in range(TUNE_LEVELS)
    ]
    write_table_json(path, ("region", "band", "group"), keys, counts)
    return counts


def audit_table(seed: int, path) -> np.ndarray:
    """Write the 300-cell table for upper_bound_findings; return its counts."""
    rng = _rng(seed, 2)
    sizes = rng.negative_binomial(2, 0.25, AUDIT_CELLS) + 1
    mixes = rng.dirichlet(np.full(K, 0.6), AUDIT_CELLS)
    counts = rng.multinomial(sizes, mixes)
    keys = [(f"s{i:03d}",) for i in range(AUDIT_CELLS)]
    write_table_json(path, ("site",), keys, counts)
    return counts


def negbin_fit(sizes) -> dict:
    """Moment fit of the negative binomial, in the size-model JSON layout."""
    sizes = np.asarray(sizes, dtype=float)
    m, v = float(sizes.mean()), float(sizes.var(ddof=1))
    p = m / v
    return {"family": "negbin", "lambda": p, "r": m * p / (1.0 - p)}
