"""The package's public surface."""

import ast
from pathlib import Path

import hadr

# Every public name. A change to the library's API is a deliberate edit here.
PUBLIC_API = [
    "CellSizeModel",
    "DirichletFit",
    "FrequencyTable",
    "LocalRisk",
    "MEASURES",
    "MECHANISMS",
    "McEstimate",
    "PRESENCE_THRESHOLD",
    "PrivacyParams",
    "RiskPoint",
    "RiskValue",
    "SanitizedTable",
    "TvdReport",
    "cross_tabulate",
    "evaluate_measure",
    "fit_dirichlet_mom",
    "fit_negbin",
    "fit_poisson",
    "invert_epsilon",
    "local_risk",
    "mc_expected",
    "mc_global",
    "mc_global_variant",
    "mc_local",
    "mc_shrinkage",
    "mc_threshold_dr",
    "mechanism_noise",
    "postprocess_counts",
    "read_sanitized",
    "read_table",
    "risk_curve",
    "sanitize",
    "tabulate_csv",
    "upper_bound_findings",
    "utility_report",
    "write_curve_csv",
    "write_mc_json",
    "write_sanitized",
    "write_table",
    "write_tvd_csv",
]


def test_every_export_resolves_once():
    assert len(set(hadr.__all__)) == len(hadr.__all__)
    missing = [name for name in hadr.__all__ if not hasattr(hadr, name)]
    assert missing == []


def test_public_api_is_pinned():
    assert sorted(hadr.__all__) == PUBLIC_API


def test_oracles_import_only_two_names_from_hadr():
    """The oracles stay independent of the code they check: from hadr they
    take the RiskValue result type and the TAIL_MASS constant, nothing else."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken += [a.name for a in node.names if a.name.split(".")[0] == "hadr"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hadr":
            taken += [a.name for a in node.names]
    assert sorted(taken) == ["RiskValue", "TAIL_MASS"]
