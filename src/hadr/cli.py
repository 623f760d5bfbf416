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
    SIZE_FAMILIES,
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
    mc_to_json,
)
from .mechanisms import MECHANISMS, PrivacyParams, sanitize, sanitized_to_json
from .risk import MEASURES, curve_to_csv, invert_epsilon, risk_curve
from .tabulation import read_table, table_to_json, tabulate_csv
from .utility import tvd_report_to_csv, utility_report

# Execution knobs that do not influence output bytes stay out of the
# manifest so reruns with different parallelism compare byte-identical.
_MANIFEST_EXCLUDE = {"verb", "threads", "func"}

# The most (epsilon, delta) points one risk curve may hold; a grid is checked
# against it before its array is built.
MAX_GRID_POINTS = 100_000

# Verbs that draw noise: main calibrates their mechanism and fixes their seed.
_SEEDED = ("sanitize", "utility", "mc")


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
    with open(str(output_path) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _parse_grid(text: str, flag: str, others: int = 1) -> np.ndarray:
    """Grid syntax lo:hi:logN (log-spaced) or lo:hi:linN (linear); N times
    ``others``, the points of the grid this one multiplies, is capped."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{flag} {text!r} is not of the form lo:hi:logN or lo:hi:linN")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"{flag} {text!r} has non-numeric bounds") from None
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"{flag} {text!r} has non-finite bounds")
    tag, count = parts[2][:3], parts[2][3:]
    if tag not in ("log", "lin") or not count.isdecimal():
        raise ValueError(f"{flag} {text!r} must end in logN or linN")
    count = count.lstrip("0") or "0"  # int() refuses strings of over 4,300 digits
    if len(count) > len(str(MAX_GRID_POINTS)) or int(count) * others > MAX_GRID_POINTS:
        raise ValueError(f"{flag} {text!r} exceeds the cap of {MAX_GRID_POINTS} curve points")
    n = int(count)
    if n < 1:
        raise ValueError(f"{flag} {text!r} needs at least one point")
    if n == 1:
        if lo != hi:
            raise ValueError(f"{flag} {text!r} is a single-point grid and needs lo == hi")
        return np.array([lo])
    if not lo < hi:
        raise ValueError(f"{flag} {text!r} needs lo < hi")
    if tag == "log":
        if lo <= 0:
            raise ValueError(f"{flag} {text!r} is a log grid and needs lo > 0")
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


# The inputs each measure (risk, invert), mc estimator and estimate --what value
# reads, named as messages name them; a run requires all but the _DEFAULTED ones.
_READS = {
    ("measure", "local"): ("--table",),
    ("measure", "expected"): ("--table",),
    ("measure", "shrinkage"): ("--table", "--alpha"),
    ("measure", "global"): ("--alpha", "a size model", "--zero-truncated"),
    ("measure", "global_variant"): ("a size model", "--categories", "--zero-truncated"),
    ("estimator", "local"): ("--cell",),
    ("estimator", "expected"): ("--n", "--p"),
    ("estimator", "shrinkage"): ("--n", "--alpha"),
    ("estimator", "global"): ("--alpha", "a size model"),
    ("estimator", "global_variant"): ("a size model", "--categories"),
    ("estimator", "threshold"): ("--table", "--mode"),
    ("--what", "alpha"): ("--table",),
    ("--what", "sizes"): ("--table", "--family", "--zero-truncated"),
}
# The flags that supply an input, where that is more than the input's own flag.
_SUPPLIES = {
    "--alpha": ("--alpha", "--estimate-alpha"),
    "a size model": ("--size-model", "--fit-sizes", "--size-family"),
    "--categories": ("--categories", "--table"),
}
# The inputs a run may leave unset: --mode is then hard, --family poisson,
# --zero-truncated off.
_DEFAULTED = ("--mode", "--family", "--zero-truncated")
# Pairs of flags that give one input two ways, and the flags that fit an input
# from the table.
_EITHER = (("--alpha", "--estimate-alpha"), ("--size-model", "--fit-sizes"),
           ("--delta", "--delta-grid"))
_FITS = ("--estimate-alpha", "--fit-sizes")
# The comma-separated list flags and the type of their entries, parsed once here
# too, so that a bad list is refused before a seeded verb prints its seed.
_LISTS = {"--alpha": float, "--cell": int, "--p": float, "--ks": int}


def _check_reads(args: argparse.Namespace) -> None:
    """Refuse a run for its flags alone, before any file is read or seed drawn: in its
    row, a flag the row does not read (a row reads --table if it lists it or an input
    in _SUPPLIES, which the table can fill), an _EITHER pair, a fit without --table,
    a missing input; then the fit family, the mechanism's delta and the lists."""
    given = {"--" + key.replace("_", "-") for key, value in vars(args).items()
             if value is not None and value is not False}
    flags = set().union(*_READS.values(), *_SUPPLIES.values())
    for (kind, name), needs in _READS.items():
        if getattr(args, kind.lstrip("-"), None) == name:
            reads = {flag for need in needs for flag in _SUPPLIES.get(need, (need,))}
            if not _SUPPLIES.keys().isdisjoint(needs):
                reads.add("--table")
            unread = sorted((given - reads) & flags)
            if unread:
                raise ValueError(f"{unread[0]} is not read by {kind} {name!r}")
            if "--size-family" in given and "--fit-sizes" not in given:
                raise ValueError("--size-family is read only with --fit-sizes")
            for pair in _EITHER:
                if given.issuperset(pair):
                    raise ValueError(f"give either {pair[0]} or {pair[1]}, not both")
            for fit in _FITS:
                if fit in given and "--table" not in given:
                    raise ValueError(f"{fit} requires --table")
            required = [need for need in needs if need not in _DEFAULTED]
            if any(given.isdisjoint(_SUPPLIES.get(need, (need,))) for need in required):
                raise ValueError(f"{kind} {name!r} requires {' and '.join(required)}")
    if getattr(args, "family", None) == "negbin" and args.zero_truncated:
        raise ValueError("the zero-truncated fit applies to the poisson family")
    mechanism, deltas = getattr(args, "mechanism", None), given & {"--delta", "--delta-grid"}
    if mechanism == "laplace" and deltas:
        raise ValueError("the laplace mechanism takes no delta")
    if mechanism not in (None, "laplace") and not deltas:
        grid = " or --delta-grid" if hasattr(args, "delta_grid") else ""
        raise ValueError(f"mechanism {mechanism!r} requires --delta{grid}")
    for flag, entry in _LISTS.items():
        if flag in given:
            _parse_list(getattr(args, flag[2:]), flag, entry)


def _measure_inputs(args: argparse.Namespace) -> dict:
    """The inputs of risk_curve, invert_epsilon and the mc estimators from the model flags."""
    alpha = None if args.alpha is None else _parse_list(args.alpha, "--alpha")
    table = read_table(args.table) if args.table else None
    size_model, zero_truncated = None, getattr(args, "zero_truncated", False)
    if args.estimate_alpha:
        alpha = fit_dirichlet_mom(table).alpha
    if args.size_model is not None:
        with open(args.size_model, encoding="utf-8") as fh:
            size_model = size_model_from_json(fh.read())
    elif args.fit_sizes and args.size_family == "negbin":
        size_model = fit_negbin(table.sizes())
    elif args.fit_sizes:
        size_model = fit_poisson(table.sizes(), zero_truncated=zero_truncated)
    n_categories = table.n_categories if args.categories is None and table else args.categories
    return dict(table=table, alpha=alpha, size_model=size_model, n_categories=n_categories,
                zero_truncated=zero_truncated)


def _utf8(text: str, flag: str) -> str:
    """A column name given as an argument, read as UTF-8 whatever the locale."""
    try:
        return text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeError:
        raise ValueError(f"{flag} {text!r} is not UTF-8") from None


def _cmd_tabulate(args) -> tuple[str, str]:
    # the names are stored back decoded, so the manifest records what the verb used
    args.bin = args.bin and [_utf8(spec, "--bin") for spec in args.bin]
    bins = []
    for spec in args.bin or []:
        col, sep, width = spec.partition(":")
        if not sep:
            raise ValueError(f"--bin {spec!r} must be column:width")
        try:
            bins.append((col, float(width)))
        except ValueError:
            raise ValueError(f"--bin {spec!r} has a non-numeric width") from None
    args.qids, args.sensitive = _utf8(args.qids, "--qids"), _utf8(args.sensitive, "--sensitive")
    qids = [q for q in args.qids.split(",") if q]
    table = tabulate_csv(args.input, qids, args.sensitive, bins=bins)
    return table_to_json(table), (
        f"{table.n_cells} cells, {table.n_categories} categories of "
        f"{table.sensitive_name!r}, {table.dropped_rows} rows dropped"
    )


def _cmd_risk(args) -> tuple[str, str]:
    eps_grid = _parse_grid(args.epsilon_grid, "--epsilon-grid")  # grids are refused before the read
    deltas = [args.delta]
    if args.delta_grid is not None:
        deltas = [float(d) for d in _parse_grid(args.delta_grid, "--delta-grid", len(eps_grid))]
    inputs = _measure_inputs(args)
    # calibrated after the read, so a Gaussian's scipy.special reuses the memory it freed
    params = [PrivacyParams(args.mechanism, float(e), d) for e in eps_grid for d in deltas]
    points = risk_curve(args.measure, params, **inputs)
    return curve_to_csv(points), f"{len(points)} curve points -> {args.output}"


def _cmd_sanitize(args, params, seed) -> tuple[str, str]:
    table = read_table(args.table)
    text = sanitized_to_json(sanitize(table, params, seed))
    return text, f"sanitized {table.n_cells} cells -> {args.output}"


def _cmd_utility(args, params, seed) -> tuple[str, str]:
    ks = _parse_list(args.ks, "--ks", int)
    table = read_table(args.table)
    report = utility_report(table, params, ks, args.reps, seed, threads=args.threads)
    summary = f"{len(report.rows)} marginals x {report.reps} reps -> {args.output}"
    return tvd_report_to_csv(report), summary


def _cmd_estimate(args) -> tuple[str, str]:
    table = read_table(args.table)
    if args.what == "alpha":
        text = dirichlet_to_json(fit_dirichlet_mom(table))
    elif args.family == "negbin":
        text = size_model_to_json(fit_negbin(table.sizes()))
    else:
        text = size_model_to_json(fit_poisson(table.sizes(), zero_truncated=args.zero_truncated))
    return text, text.rstrip("\n")


def _cmd_mc(args, params, seed) -> tuple[str, str]:
    inputs = _measure_inputs(args)
    shared = dict(reps=args.reps, seed=seed, threads=args.threads)
    if args.estimator == "local":
        est = mc_local(np.array(_parse_list(args.cell, "--cell", int)), params, **shared)
    elif args.estimator == "expected":
        est = mc_expected(args.n, _parse_list(args.p, "--p"), params, **shared)
    elif args.estimator == "shrinkage":
        est = mc_shrinkage(args.n, inputs["alpha"], params, **shared)
    elif args.estimator == "global":
        est = mc_global(inputs["alpha"], inputs["size_model"], params, **shared)
    elif args.estimator == "global_variant":
        est = mc_global_variant(inputs["size_model"], params, inputs["n_categories"], **shared)
    else:
        est = mc_threshold_dr(inputs["table"], params, mode=args.mode or "hard", **shared)
    summary = f"value {est.value:.6g} (se {est.se:.3g}, reps {est.reps}) -> {args.output}"
    return mc_to_json(est), summary


def _cmd_invert(args) -> tuple[str, str]:
    inputs = _measure_inputs(args)
    res = invert_epsilon(args.measure, args.target_risk, args.mechanism, delta=args.delta, **inputs)
    text = json.dumps(dataclasses.asdict(res), separators=(",", ":")) + "\n"
    return text, f"epsilon {res.epsilon:.6f} achieves risk {res.risk:.6g} (target {res.target:g})"


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
    p.add_argument("--size-family", choices=SIZE_FAMILIES, help="with --fit-sizes; unset: poisson")
    p.add_argument("--categories", type=int, help="K for the global variant; default: the table's")


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
    p.set_defaults(func=_cmd_risk)

    p = sub.add_parser("sanitize", help="release one noisy version of a table")
    p.add_argument("--table", required=True)
    _add_mechanism_flags(p, grid=False)
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
    p.set_defaults(func=_cmd_utility)

    p = sub.add_parser("estimate", help="fit hyperparameters from a table")
    p.add_argument("--table", required=True)
    p.add_argument("--what", required=True, choices=["alpha", "sizes"])
    p.add_argument("--family", choices=SIZE_FAMILIES, help="read by --what sizes; unset: poisson")
    p.add_argument(
        "--zero-truncated",
        action="store_true",
        help="poisson fit accounting for unobserved empty cells",
    )
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser(
        "mc",
        help="Monte-Carlo oracle estimates",
        epilog='output JSON: {"value","se","reps","scenarios"} plus "mode" for threshold',
    )
    p.add_argument("--estimator", required=True, choices=[n for k, n in _READS if k == "estimator"])
    p.add_argument("--table", help="table JSON (threshold estimator, fits)")
    p.add_argument("--cell", help="cell counts for 'local', comma-separated")
    p.add_argument("--n", type=int, help="cell size for 'expected'/'shrinkage'")
    p.add_argument("--p", help="probability vector for 'expected', comma-separated")
    _add_mechanism_flags(p, grid=False)
    _add_model_flags(p)
    p.add_argument("--mode", choices=list(THRESHOLD_MODES), help="read by threshold; unset: hard")
    p.add_argument("--reps", type=int, required=True)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("invert", help="largest epsilon keeping risk at or below a target")
    p.add_argument("--table", help="table JSON from tabulate")
    p.add_argument("--measure", default="expected", choices=MEASURES)
    p.add_argument("--mechanism", required=True, choices=MECHANISMS)
    p.add_argument("--delta", type=float)
    p.add_argument("--target-risk", type=float, required=True)
    _add_model_flags(p)
    p.set_defaults(func=_cmd_invert)

    for verb in _SEEDED:
        p = sub.choices[verb]
        p.add_argument("--seed", type=int, help="generated and printed when omitted")
        if verb != "sanitize":
            p.add_argument("--threads", type=int, default=1)
    for verb, p in sub.choices.items():
        required = verb != "invert"
        p.add_argument("--output", required=required,
                       help=None if required else "optional result JSON (plus manifest)")
    for verb in ("risk", "invert"):  # not mc: its global draws are always zero-truncated
        sub.choices[verb].add_argument(
            "--zero-truncated", action="store_true",
            help="renormalize the size series over sizes >= 1",
        )
    return parser


def main(argv=None) -> int:
    """Run one verb, then write its output, then its manifest, then print its summary line."""
    args = build_parser().parse_args(argv)
    try:
        _check_reads(args)
        seed = None
        if args.verb in _SEEDED:
            params = PrivacyParams(args.mechanism, args.epsilon, args.delta)
            seed = _seed_for(args)
            text, summary = args.func(args, params, seed)
        else:
            text, summary = args.func(args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            _manifest(args.output, args, seed=seed)
        try:
            print(summary)
        except UnicodeEncodeError:  # escape what stdout's encoding cannot hold
            encoding = sys.stdout.encoding
            print(summary.encode(encoding, "backslashreplace").decode(encoding))
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
