"""The upper-bound audit: the two-term expected value against simulation.

The agreement tests use fixed seeds, so they are deterministic.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import hadr.audit
from conftest import make_homog_table, make_table
from hadr import PrivacyParams, evaluate_measure, mc_expected, upper_bound_findings
from hadr.risk import _LocalProfile
from test_mc import BAD_REPS

LAP1 = PrivacyParams("laplace", 1.0)
REPS = 200_000


def zero_values(local, params):
    """Two-term values of 0 for every configuration at every privacy setting."""
    return np.zeros(len(local.first))


def test_upper_bound_findings_catches_known_violation():
    """(1,1) is the known case where the printed second term undercounts."""
    t = make_table([(1, 1), (0, 9)])
    report = upper_bound_findings(t, LAP1, REPS, seed=41)
    assert report["checked_cells"] == 1  # homogeneous cells are exact and skipped
    assert report["reps"] == REPS
    assert len(report["violations"]) == 1
    v = report["violations"][0]
    assert v["key"] == ["c0"]
    assert v["excess_in_se"] > 3.0
    assert v["mc_value"] > v["closed_form"]
    # factor-2 undercount of the second term at (1,1): excess is about t2
    assert v["mc_value"] - v["closed_form"] == pytest.approx(0.1056, abs=0.01)


def test_upper_bound_findings_all_homogeneous():
    t = make_homog_table([2, 5, 9], k=2)
    report = upper_bound_findings(t, LAP1, 10_000, seed=43)
    assert report == {"checked_cells": 0, "reps": 10_000, "violations": []}


def test_upper_bound_findings_simulates_each_sorted_configuration_once(monkeypatch):
    """Cells with the same sorted counts share the estimate of the lowest-index one."""
    rows = [(3, 1, 0), (1, 3, 0), (0, 1, 3), (2, 2, 0), (3, 1, 0)]
    t = make_table(rows)
    reps = 4096
    # with zero closed forms every cell is a finding, so each cell's estimate shows
    monkeypatch.setattr(_LocalProfile, "expected", zero_values)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["block_offset"])
        return mc_expected(*args, **kwargs)

    monkeypatch.setattr(hadr.audit, "mc_expected", counted)
    report = upper_bound_findings(t, LAP1, reps, seed=53)
    assert sorted(calls) == [0, 3 << 32]  # (0,1,3) on cell 0's stream, (0,2,2) on cell 3's
    assert report["checked_cells"] == 5
    found = {v["key"][0]: v for v in report["violations"]}
    assert sorted(found) == ["c0", "c1", "c2", "c3", "c4"]
    for first, members in ((0, (1, 2, 4)), (3, ())):
        direct = mc_expected(4, np.array(rows[first]) / 4, LAP1, reps, 53, block_offset=first << 32)
        for i in (first, *members):
            assert (found[f"c{i}"]["mc_value"], found[f"c{i}"]["se"]) == (direct.value, direct.se)
    for threads in (2, 64):
        assert upper_bound_findings(t, LAP1, reps, seed=53, threads=threads) == report


@pytest.mark.parametrize(
    "reps,seed", [(r, 1) for r in BAD_REPS] + [(10, -1), (10, "x"), (10, 1.0)]
)
def test_audit_checks_reps_and_seed_without_heterogeneous_cells(reps, seed):
    """With nothing to simulate, the audit still rejects bad reps and seeds."""
    with pytest.raises(ValueError, match="must be"):
        upper_bound_findings(make_homog_table([2, 5, 9]), LAP1, reps, seed)


def test_permuted_cells_share_one_closed_form():
    """(1,1,4) and (4,1,1) share a configuration, and the audit judges it once,
    against the expected measure's own value on the lowest-index cell."""
    t = make_table([(1, 1, 4), (4, 1, 1)])
    report = upper_bound_findings(t, LAP1, 20_000, seed=5)
    assert report["checked_cells"] == 2
    found = report["violations"]
    assert [v["key"] for v in found] == [["c0"], ["c1"]]
    assert found[0]["closed_form"] == found[1]["closed_form"]
    one_cell = evaluate_measure("expected", LAP1, table=make_table([(1, 1, 4)]))
    assert found[0]["closed_form"] == one_cell.value


@pytest.mark.parametrize("params", [LAP1, PrivacyParams("gaussian_pdp", 1.0, 1e-6)])
def test_each_closed_form_is_the_expected_measure_of_its_lowest_index_cell(monkeypatch, params):
    """Every configuration's closed form in the audit is the expected measure
    of its lowest-index cell alone, to 1e-14: a moment sum over many
    configurations can differ in the last bit from the same sum over one."""
    rng = np.random.default_rng(71)
    rows = [r for r in map(tuple, rng.integers(0, 6, size=(80, 4)).tolist())
            if sum(x > 0 for x in r) > 1]
    rows += [r[::-1] for r in rows[:20]]
    t = make_table(rows)

    def above_every_closed_form(*args, **kwargs):  # so each cell is a finding
        return SimpleNamespace(value=2.0, se=1e-3)

    monkeypatch.setattr(hadr.audit, "mc_expected", above_every_closed_form)
    report = upper_bound_findings(t, params, 10, seed=1)
    assert report["checked_cells"] == len(report["violations"]) == len(rows)
    local = _LocalProfile(t.counts)
    for i, v in enumerate(report["violations"]):
        lowest = t.counts[local.first[local.row[i]]]
        one_cell = evaluate_measure("expected", params, table=make_table([lowest.tolist()]))
        assert v["closed_form"] == pytest.approx(one_cell.value, rel=1e-14, abs=0)
