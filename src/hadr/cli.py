"""Command-line front door for the risk pipeline.

Verbs map onto the library modules: tabulate (CSV to table JSON), risk
(closed-form curves), sanitize (one noisy release), utility (TVD over
marginals), estimate (hyperparameters), mc (simulation oracles), invert
(epsilon for a target risk).

Every file-producing run leaves a ``<output>.manifest.json`` next to its
output, recording the verb, all input arguments, the seed, and library
versions; with the seed pinned, output bytes are reproducible from the
manifest alone. Exit codes: 0 success, 1 domain error (message names the
violated precondition), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys

import numpy as np

from . import __version__
from .estimation import (
    dirichlet_to_json,
    fit_dirichlet_mom,
    fit_negbin,
    fit_poisson,
    size_model_from_json,
    size_model_to_json,
)
from .mc import (
    THRESHOLD_MODES,
    mc_expected,
    mc_global,
    mc_global_variant,
    mc_local,
    mc_shrinkage,
    mc_threshold_dr,
    write_mc_json,
)
from .mechanisms import MECHANISMS, PrivacyParams, sanitize, write_sanitized
from .risk import MEASURES, invert_epsilon, risk_curve, write_curve_csv
from .tabulation import read_table, tabulate_csv, write_table
from .utility import utility_report, write_tvd_csv

# Execution knobs that do not influence output bytes stay out of the
# manifest so reruns with different parallelism compare byte-identical.
_MANIFEST_EXCLUDE = {"verb", "threads", "func"}


def _manifest(output_path: str, args: argparse.Namespace, seed=None) -> None:
    import scipy  # the package alone, for its version; no submodule is loaded

    recorded = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in _MANIFEST_EXCLUDE and v is not None
    }
    payload = {
        "command": args.verb,
        "arguments": recorded,
        "seed": seed,
        "versions": {
            "hadr": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "outputs": [os.path.basename(output_path)],
    }
    with open(str(output_path) + ".manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _parse_grid(text: str) -> np.ndarray:
    """Grid syntax lo:hi:logN (log-spaced) or lo:hi:linN (linear)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid {text!r} is not of the form lo:hi:logN or lo:hi:linN")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"grid {text!r} has non-numeric bounds") from None
    tag = parts[2]
    if tag[:3] not in ("log", "lin") or not tag[3:].isdigit():
        raise ValueError(f"grid {text!r} must end in logN or linN")
    n = int(tag[3:])
    if n < 1:
        raise ValueError("grid needs at least one point")
    if n == 1:
        if lo != hi:
            raise ValueError("a single-point grid needs lo == hi")
        return np.array([lo])
    if not lo < hi:
        raise ValueError("grid needs lo < hi")
    if tag[:3] == "log":
        if lo <= 0:
            raise ValueError("log grid needs lo > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _parse_list(text: str, what: str, kind=float) -> tuple:
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError:
        noun = "numbers" if kind is float else "integers"
        raise ValueError(f"{what} must be a comma-separated list of {noun}") from None


def _seed_for(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    seed = int.from_bytes(os.urandom(8), "big")
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _load_table(args: argparse.Namespace):
    if getattr(args, "table", None) is None:
        raise ValueError("this operation requires --table")
    return read_table(args.table)


def _resolve_alpha(args: argparse.Namespace, table):
    if args.alpha is not None and args.estimate_alpha:
        raise ValueError("give either --alpha or --estimate-alpha, not both")
    if args.alpha is not None:
        return _parse_list(args.alpha, "--alpha")
    if args.estimate_alpha:
        if table is None:
            table = _load_table(args)
        return fit_dirichlet_mom(table).alpha
    return None


def _resolve_size_model(args: argparse.Namespace, table):
    if args.size_model is not None and args.fit_sizes:
        raise ValueError("give either --size-model or --fit-sizes, not both")
    if args.size_model is not None:
        with open(args.size_model) as fh:
            return size_model_from_json(fh.read())
    if args.fit_sizes:
        if table is None:
            table = _load_table(args)
        if args.size_family == "negbin":
            return fit_negbin(table.sizes())
        return fit_poisson(table.sizes())
    return None


def _measure_inputs(args: argparse.Namespace) -> dict:
    """The measure inputs of risk_curve and invert_epsilon from the model flags;
    mc reads the ones its estimator needs."""
    table = read_table(args.table) if args.table else None
    alpha = _resolve_alpha(args, table)
    size_model = _resolve_size_model(args, table)
    n_categories = args.categories
    if n_categories is None and table is not None:
        n_categories = table.n_categories
    return dict(
        table=table,
        alpha=alpha,
        size_model=size_model,
        n_categories=n_categories,
        zero_truncated=args.zero_truncated,
    )


def _cmd_tabulate(args) -> int:
    bins = []
    for spec in args.bin or []:
        col, sep, width = spec.partition(":")
        if not sep:
            raise ValueError(f"--bin {spec!r} must be column:width")
        try:
            bins.append((col, float(width)))
        except ValueError:
            raise ValueError(f"--bin {spec!r} has a non-numeric width") from None
    qids = [q for q in args.qids.split(",") if q]
    table = tabulate_csv(args.input, qids, args.sensitive, bins=bins)
    write_table(table, args.output)
    _manifest(args.output, args)
    print(
        f"{table.n_cells} cells, {table.n_categories} categories of "
        f"{table.sensitive_name!r}, {table.dropped_rows} rows dropped"
    )
    return 0


def _risk_params(args) -> list:
    eps_grid = _parse_grid(args.epsilon_grid)
    if args.mechanism == "laplace":
        if args.delta is not None or args.delta_grid is not None:
            raise ValueError("the laplace mechanism takes no delta")
        return [PrivacyParams("laplace", float(e)) for e in eps_grid]
    if args.delta is not None and args.delta_grid is not None:
        raise ValueError("give either --delta or --delta-grid, not both")
    if args.delta is not None:
        deltas = [args.delta]
    elif args.delta_grid is not None:
        deltas = [float(d) for d in _parse_grid(args.delta_grid)]
    else:
        raise ValueError(f"mechanism {args.mechanism!r} requires --delta or --delta-grid")
    return [
        PrivacyParams(args.mechanism, float(e), float(d)) for e in eps_grid for d in deltas
    ]


def _cmd_risk(args) -> int:
    inputs = _measure_inputs(args)
    points = risk_curve(args.measure, _risk_params(args), **inputs)
    write_curve_csv(points, args.output)
    _manifest(args.output, args)
    print(f"{len(points)} curve points -> {args.output}")
    return 0


def _cmd_sanitize(args) -> int:
    table = _load_table(args)
    params = PrivacyParams(args.mechanism, args.epsilon, args.delta)
    seed = _seed_for(args)
    write_sanitized(sanitize(table, params, seed), args.output)
    _manifest(args.output, args, seed=seed)
    print(f"sanitized {table.n_cells} cells -> {args.output}")
    return 0


def _cmd_utility(args) -> int:
    table = _load_table(args)
    params = PrivacyParams(args.mechanism, args.epsilon, args.delta)
    seed = _seed_for(args)
    ks = _parse_list(args.ks, "--ks", int)
    report = utility_report(table, params, ks, args.reps, seed, threads=args.threads)
    write_tvd_csv(report, args.output)
    _manifest(args.output, args, seed=seed)
    print(f"{len(report.rows)} marginals x {report.reps} reps -> {args.output}")
    return 0


def _cmd_estimate(args) -> int:
    table = _load_table(args)
    if args.what == "alpha":
        text = dirichlet_to_json(fit_dirichlet_mom(table))
    elif args.family == "negbin":
        if args.zero_truncated:
            raise ValueError("the zero-truncated fit applies to the poisson family")
        text = size_model_to_json(fit_negbin(table.sizes()))
    else:
        text = size_model_to_json(fit_poisson(table.sizes(), zero_truncated=args.zero_truncated))
    with open(args.output, "w") as fh:
        fh.write(text)
    _manifest(args.output, args)
    print(text, end="")
    return 0


def _cmd_mc(args) -> int:
    params = PrivacyParams(args.mechanism, args.epsilon, args.delta)
    seed = _seed_for(args)
    inputs = _measure_inputs(args)
    table, alpha, size_model = inputs["table"], inputs["alpha"], inputs["size_model"]
    est_name = args.estimator
    if est_name == "local":
        if args.cell is None:
            raise ValueError("estimator 'local' requires --cell")
        est = mc_local(
            np.array(_parse_list(args.cell, "--cell", int)),
            params,
            args.reps,
            seed,
            threads=args.threads,
        )
    elif est_name == "expected":
        if args.n is None or args.p is None:
            raise ValueError("estimator 'expected' requires --n and --p")
        est = mc_expected(
            args.n, _parse_list(args.p, "--p"), params, args.reps, seed,
            threads=args.threads,
        )
    elif est_name == "shrinkage":
        if args.n is None or alpha is None:
            raise ValueError("estimator 'shrinkage' requires --n and --alpha")
        est = mc_shrinkage(args.n, alpha, params, args.reps, seed, threads=args.threads)
    elif est_name == "global":
        if alpha is None or size_model is None:
            raise ValueError("estimator 'global' requires --alpha and a size model")
        est = mc_global(alpha, size_model, params, args.reps, seed, threads=args.threads)
    elif est_name == "global_variant":
        k = inputs["n_categories"]
        if size_model is None or k is None:
            raise ValueError(
                "estimator 'global_variant' requires a size model and --categories"
            )
        est = mc_global_variant(size_model, params, k, args.reps, seed, threads=args.threads)
    else:
        if table is None:
            raise ValueError("estimator 'threshold' requires --table")
        est = mc_threshold_dr(
            table, params, args.reps, seed, mode=args.mode, threads=args.threads
        )
    write_mc_json(est, args.output)
    _manifest(args.output, args, seed=seed)
    print(f"value {est.value:.6g} (se {est.se:.3g}, reps {est.reps}) -> {args.output}")
    return 0


def _cmd_invert(args) -> int:
    inputs = _measure_inputs(args)
    res = invert_epsilon(args.measure, args.target_risk, args.mechanism, delta=args.delta, **inputs)
    print(f"epsilon {res.epsilon:.6f} achieves risk {res.risk:.6g} (target {res.target:g})")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(dataclasses.asdict(res), fh, separators=(",", ":"))
            fh.write("\n")
        _manifest(args.output, args)
    return 0


def _add_mechanism_flags(p: argparse.ArgumentParser, *, grid: bool) -> None:
    p.add_argument("--mechanism", required=True, choices=MECHANISMS)
    if grid:
        p.add_argument(
            "--epsilon-grid",
            required=True,
            help="epsilon grid, lo:hi:logN (log-spaced) or lo:hi:linN",
        )
        p.add_argument("--delta", type=float, help="single delta for gaussian mechanisms")
        p.add_argument("--delta-grid", help="delta grid, same lo:hi:logN syntax")
    else:
        p.add_argument("--epsilon", type=float, required=True)
        p.add_argument("--delta", type=float, help="delta for gaussian mechanisms")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", help="Dirichlet concentration, comma-separated")
    p.add_argument(
        "--estimate-alpha", action="store_true", help="fit alpha from --table by moments"
    )
    p.add_argument("--size-model", help="path to a size-model JSON")
    p.add_argument(
        "--fit-sizes", action="store_true", help="fit the size model from --table"
    )
    p.add_argument("--size-family", choices=["poisson", "negbin"], default="poisson")
    p.add_argument("--categories", type=int, help="K for the global variant; default: the table's")
    p.add_argument(
        "--zero-truncated",
        action="store_true",
        help="renormalize the size series over sizes >= 1",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadr",
        description="Disclosure risk from homogeneity attack on noisy frequency tables.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("tabulate", help="cross-tabulate a CSV into a table JSON")
    p.add_argument("--input", required=True, help="CSV file with a header row")
    p.add_argument("--qids", required=True, help="comma-separated QID column names")
    p.add_argument("--sensitive", required=True, help="sensitive column name")
    p.add_argument(
        "--bin",
        action="append",
        metavar="COLUMN:WIDTH",
        help="bin a numeric column into fixed-width intervals (repeatable)",
    )
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_tabulate)

    p = sub.add_parser(
        "risk",
        help="closed-form risk curve over a privacy grid",
        epilog="output CSV columns: epsilon,delta,mechanism,measure,value,"
        "scenario1_component,scenario8_component",
    )
    p.add_argument("--table", help="table JSON from tabulate")
    p.add_argument("--measure", required=True, choices=MEASURES)
    _add_mechanism_flags(p, grid=True)
    _add_model_flags(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_risk)

    p = sub.add_parser("sanitize", help="release one noisy version of a table")
    p.add_argument("--table", required=True)
    _add_mechanism_flags(p, grid=False)
    p.add_argument("--seed", type=int, help="generated and printed when omitted")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_sanitize)

    p = sub.add_parser(
        "utility",
        help="TVD of k-way marginals over repeated sanitizations",
        epilog="output CSV columns: k,marginal,tvd_mean,tvd_q1,tvd_median,tvd_q3",
    )
    p.add_argument("--table", required=True)
    _add_mechanism_flags(p, grid=False)
    p.add_argument("--ks", default="1,2,3", help="marginal sizes, comma-separated")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, help="generated and printed when omitted")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_utility)

    p = sub.add_parser("estimate", help="fit hyperparameters from a table")
    p.add_argument("--table", required=True)
    p.add_argument("--what", required=True, choices=["alpha", "sizes"])
    p.add_argument("--family", choices=["poisson", "negbin"], default="poisson")
    p.add_argument(
        "--zero-truncated",
        action="store_true",
        help="poisson fit accounting for unobserved empty cells",
    )
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser(
        "mc",
        help="Monte-Carlo oracle estimates",
        epilog='output JSON: {"value","se","reps","scenarios"} plus "mode" for threshold',
    )
    p.add_argument(
        "--estimator",
        required=True,
        choices=["local", "expected", "shrinkage", "global", "global_variant", "threshold"],
    )
    p.add_argument("--table", help="table JSON (threshold estimator, fits)")
    p.add_argument("--cell", help="cell counts for 'local', comma-separated")
    p.add_argument("--n", type=int, help="cell size for 'expected'/'shrinkage'")
    p.add_argument("--p", help="probability vector for 'expected', comma-separated")
    _add_mechanism_flags(p, grid=False)
    _add_model_flags(p)
    p.add_argument("--mode", choices=list(THRESHOLD_MODES), default="hard")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, help="generated and printed when omitted")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("invert", help="largest epsilon keeping risk at or below a target")
    p.add_argument("--table", help="table JSON from tabulate")
    p.add_argument("--measure", default="expected", choices=MEASURES)
    p.add_argument("--mechanism", required=True, choices=MECHANISMS)
    p.add_argument("--delta", type=float)
    p.add_argument("--target-risk", type=float, required=True)
    _add_model_flags(p)
    p.add_argument("--output", help="optional result JSON (plus manifest)")
    p.set_defaults(func=_cmd_invert)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
