"""The upper-bound audit, the one place where the two routes meet.

It simulates heterogeneous cells with mc.mc_expected and compares each
estimate with the two-term value of its configuration, from the moments
that ``risk --measure expected`` and ``invert`` sum. It is the only module
that imports both hadr.mc and hadr.risk: the estimators and the closed
forms share no code, so each route keeps checking the other.
"""

from __future__ import annotations

import numpy as np

from ._rng import check_int, check_seed, ordered_map
from .mc import mc_expected
from .mechanisms import PrivacyParams
from .risk import _LocalProfile
from .tabulation import FrequencyTable


def upper_bound_findings(
    table: FrequencyTable, params: PrivacyParams, reps: int, seed: int, *, threads: int = 1
) -> dict:
    """Check the two-term expected value against simulation.

    For homogeneous cells the two-term value is exact. For heterogeneous
    cells its second term covers only the extreme configuration
    {n-1, 1, 0, ...}, and the simulated disclosure frequency can exceed it;
    each such cell (excess beyond 3 standard errors) is reported as a
    finding rather than treated as a simulation failure.

    The noise is i.i.d. across categories and the scenarios are symmetric
    in them, so cells with the same sorted counts have the same event law.
    Each sorted configuration of the local profile is simulated once, on
    the counts and substream of its lowest-index cell, and judged once,
    against its two-term value; every cell that holds it shares the verdict.
    """
    reps = check_int(reps, "reps")
    check_seed(seed)
    counts, sizes, keys = table.counts, table.sizes(), table.keys()
    local = _LocalProfile(counts)
    mixed = local.present.sum(axis=1) > 1
    first = local.first[mixed].tolist()
    closed = local.expected(params).tolist()

    def run(i):
        n = int(sizes[i])
        return mc_expected(n, counts[i] / n, params, reps, seed, threads=1, block_offset=i << 32)

    found = {}
    for g, est in zip(np.flatnonzero(mixed).tolist(), ordered_map(run, first, threads)):
        excess = est.value - closed[g]
        if est.se > 0 and excess > 3.0 * est.se:
            found[g] = {"mc_value": est.value, "closed_form": closed[g], "se": est.se,
                        "excess_in_se": excess / est.se}
    rows = local.row.tolist()
    violations = [{"key": list(keys[i]), **found[g]} for i, g in enumerate(rows) if g in found]
    return {"checked_cells": int(mixed[local.row].sum()), "reps": reps, "violations": violations}
