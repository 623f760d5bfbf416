"""The package's public surface."""

import ast
from pathlib import Path

import hadr

# Every public name. A change to the library's API is a deliberate edit here.
PUBLIC_API = [
    "CellSizeModel",
    "DirichletFit",
    "FrequencyTable",
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


def test_only_main_and_the_manifest_open_files_for_writing():
    """Verbs return their output text: cli.main writes it, then _manifest the manifest.

    Every call of ``open`` whose mode is not a constant read mode counts as
    a write, named by its module and innermost enclosing function.
    """
    writers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            reads = [isinstance(m, ast.Constant) and set(m.value) <= set("rbt") for m in modes]
            if reads and not all(reads):
                writers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(hadr.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert writers == ["cli._manifest", "cli.main"]
