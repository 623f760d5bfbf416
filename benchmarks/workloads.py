"""The three workloads: their inputs, operation sequences and output checks.

* ingest: tabulate a 1M-row CSV. Tabulation does nearly all the work and
  memory grows with rows; risk, mc and utility do nothing, so changes
  there must show no change here.
* tune: what a custodian does to pick epsilon on a 27,000-cell table
  whose cells share few sizes: estimate, five risk curves, two
  inversions, one release and its utility. mc does nothing.
* verify: every MC estimator at fixed replicates on nproc threads, plus
  the upper-bound audit. Closed forms run only inside the checks.

Each ``prepare`` writes the inputs and returns the operations plus what
the checks need. Each ``check`` reads one repetition's outputs and
returns per-operation failure messages and the exact workload-property
counts, which must repeat between repetitions. Checks test the outputs'
content, not their bytes, except where the program promises bytes: the
same sanitize seed must give the same file.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import gen
import reference as ref

GRID = "0.01:100:log50"
ADP_GRID = "0.01:0.99:log50"  # the analytic Gaussian calibration needs epsilon < 1
TARGET = 0.05
REL_TOL = 1e-9
SE_LIMIT = 4.0
K = gen.K
ALPHA = ",".join(str(a) for a in gen.TUNE_ALPHA)


def _grid_values(text: str) -> np.ndarray:
    lo, hi, tag = text.split(":")
    return np.geomspace(float(lo), float(hi), int(tag[3:]))


def _table_stats(counts: np.ndarray) -> dict:
    sizes = counts.sum(axis=1)
    return {
        "cells": int(counts.shape[0]),
        "distinct_sizes": int(np.unique(sizes).size),
        "homogeneous_cells": int(((counts > 0).sum(axis=1) == 1).sum()),
    }


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-15


class Failures(dict):
    """op name -> list of failed-check messages."""

    def expect(self, op: str, ok: bool, message: str) -> None:
        if not ok:
            self.setdefault(op, []).append(message)

    def guard(self, op: str, fn):
        """Run one op's checks; an unreadable or malformed output fails that op."""
        try:
            fn()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.expect(op, False, f"unreadable output: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------- ingest

def prepare_ingest(seed: int, inputs: str, threads: int):
    path = os.path.join(inputs, "data.csv")
    truth = gen.ingest_csv(seed, path)
    ops = [{
        "name": "tabulate", "group": "tabulate",
        "argv": ["tabulate", "--input", path, "--qids", "age,zip,sex,race",
                 "--sensitive", "dx", "--bin", f"age:{gen.AGE_WIDTH}",
                 "--output", "{rep}/table.json"],
    }]
    return ops, {"truth": truth}


def check_ingest(rep: str, ctx: dict):
    fails, props = Failures(), {"rows": gen.INGEST_ROWS}

    def table():
        doc = _load_json(os.path.join(rep, "table.json"))
        fails.expect("tabulate", doc["qid_names"] == ["age", "zip", "sex", "race"], "qid names")
        fails.expect("tabulate", sorted(doc["categories"]) == list(gen.CATEGORIES), "categories")
        got = {}
        for cell in doc["cells"]:
            for cat, c in zip(doc["categories"], cell["counts"]):
                if c:
                    got[(tuple(cell["key"]), cat)] = c
        fails.expect("tabulate", got == ctx["truth"], "cross-tabulation differs from the truth")
        counts = np.array([c["counts"] for c in doc["cells"]])
        props.update(_table_stats(counts))

    fails.guard("tabulate", table)
    return fails, props


# ------------------------------------------------------------------ tune

def prepare_tune(seed: int, inputs: str, threads: int):
    table = os.path.join(inputs, "table.json")
    counts = gen.tune_table(seed, table)
    sizes = "{rep}/sizes.json"

    def risk(measure, mechanism, model, grid=GRID, delta=None):
        argv = ["risk", "--measure", measure, "--mechanism", mechanism,
                "--epsilon-grid", grid, "--output", f"{{rep}}/risk_{measure}.csv"] + model
        if delta is not None:
            argv += ["--delta", repr(delta)]
        return {"name": f"risk.{measure}", "group": "risk_curve", "argv": argv,
                "mechanism": mechanism, "grid": grid, "delta": delta}

    fitted = ["--table", table, "--estimate-alpha", "--fit-sizes", "--size-family", "negbin",
              "--zero-truncated"]
    ops = [
        {"name": "estimate.alpha", "group": "estimate",
         "argv": ["estimate", "--table", table, "--what", "alpha",
                  "--output", "{rep}/alpha.json"]},
        {"name": "estimate.sizes", "group": "estimate",
         "argv": ["estimate", "--table", table, "--what", "sizes", "--family", "negbin",
                  "--output", sizes]},
        risk("local", "laplace", ["--table", table]),
        risk("expected", "gaussian_pdp", ["--table", table], delta=1e-6),
        risk("shrinkage", "laplace", ["--table", table, "--estimate-alpha"]),
        risk("global", "gaussian_adp", fitted, grid=ADP_GRID, delta=1e-6),
        risk("global_variant", "laplace",
             ["--size-model", sizes, "--categories", str(K), "--zero-truncated"]),
        {"name": "invert.expected", "group": "invert",
         "argv": ["invert", "--table", table, "--measure", "expected", "--mechanism", "laplace",
                  "--target-risk", str(TARGET), "--output", "{rep}/invert_expected.json"]},
        {"name": "invert.global", "group": "invert",
         "argv": ["invert", "--table", table, "--estimate-alpha", "--size-model", sizes,
                  "--zero-truncated", "--measure", "global", "--mechanism", "laplace",
                  "--target-risk", str(TARGET), "--output", "{rep}/invert_global.json"]},
        {"name": "sanitize", "group": "release",
         "argv": ["sanitize", "--table", table, "--mechanism", "gaussian_pdp", "--epsilon", "1",
                  "--delta", "1e-06", "--seed", str(seed), "--output", "{rep}/sanitized.json"]},
        {"name": "utility", "group": "release",
         "argv": ["utility", "--table", table, "--mechanism", "laplace", "--epsilon", "1",
                  "--ks", "1,2", "--reps", "20", "--seed", str(seed),
                  "--output", "{rep}/utility.csv"]},
    ]
    return ops, {"counts": counts, "ops": ops, "first_sanitized": None}


def _check_curve(fails, op, rows, reference):
    name, mechanism = op["name"], op["mechanism"]
    eps = _grid_values(op["grid"])
    fails.expect(name, len(rows) == eps.size, f"{len(rows)} rows, expected {eps.size}")
    for i, row in enumerate(rows):
        v, s1, s8 = float(row["value"]), float(row["scenario1_component"]), float(
            row["scenario8_component"])
        fails.expect(name, 0.0 <= v <= 1.0, f"value {v} outside [0, 1]")
        fails.expect(name, _close(v, s1 + s8, 1e-10), f"value {v} != {s1} + {s8}")
        fails.expect(name, row["mechanism"] == mechanism, "mechanism column")
        fails.expect(name, _close(float(row["epsilon"]), float(eps[i]), 1e-11), "epsilon column")
        if reference is not None and i < len(reference):
            fails.expect(name, _close(v, float(reference[i])),
                         f"eps {eps[i]:.6g}: {v!r} vs reference {float(reference[i])!r}")


def check_tune(rep: str, ctx: dict):
    fails = Failures()
    counts = ctx["counts"]
    props = _table_stats(counts)
    ops = {op["name"]: op for op in ctx["ops"]}
    alpha_ref = ref.dirichlet_mom(counts)
    size_fit = gen.negbin_fit(counts.sum(axis=1))

    def estimate_alpha():
        alpha = _load_json(os.path.join(rep, "alpha.json"))["alpha"]
        ok = len(alpha) == K and all(_close(a, b) for a, b in zip(alpha, alpha_ref))
        fails.expect("estimate.alpha", ok, f"alpha {alpha} vs moments {alpha_ref.tolist()}")

    def estimate_sizes():
        model = _load_json(os.path.join(rep, "sizes.json"))
        ok = model["family"] == "negbin" and all(
            _close(model[k], size_fit[k]) for k in ("lambda", "r"))
        fails.expect("estimate.sizes", ok, f"size model {model} vs moments {size_fit}")

    fails.guard("estimate.alpha", estimate_alpha)
    fails.guard("estimate.sizes", estimate_sizes)

    eps_points = 0
    for measure in ("local", "expected", "shrinkage", "global", "global_variant"):
        op = ops[f"risk.{measure}"]

        def curve(op=op, measure=measure):
            nonlocal eps_points
            rows = _read_csv(os.path.join(rep, f"risk_{measure}.csv"))
            eps_points += len(rows)
            eps = _grid_values(op["grid"])
            reference = None
            if measure == "expected":
                reference = ref.expected_curve(counts, op["mechanism"], eps, op["delta"])[:, 0]
            elif measure == "global_variant":
                reference = ref.global_variant_curve(
                    size_fit["r"], size_fit["lambda"], K, op["mechanism"], eps, op["delta"])
            _check_curve(fails, op, rows, reference)

        fails.guard(op["name"], curve)
    props["eps_points"] = eps_points

    def inversion(measure):
        name = f"invert.{measure}"
        res = _load_json(os.path.join(rep, f"invert_{measure}.json"))
        eps = float(res["epsilon"])
        fails.expect(name, res["risk"] <= TARGET, f"risk {res['risk']} above target")
        if measure == "expected":
            again = ref.expected_curve(counts, "laplace", [eps], None)[0, 0]
        else:
            again = ref.global_measure(alpha_ref, size_fit["r"], size_fit["lambda"],
                                       "laplace", eps, None)[0]
        fails.expect(name, again <= TARGET * (1 + REL_TOL),
                     f"reference risk {again} at epsilon {eps} above target")

    for measure in ("expected", "global"):
        fails.guard(f"invert.{measure}", lambda m=measure: inversion(m))

    def sanitize():
        path = os.path.join(rep, "sanitized.json")
        with open(path, "rb") as fh:
            raw = fh.read()
        if ctx["first_sanitized"] is None:
            ctx["first_sanitized"] = raw
        fails.expect("sanitize", raw == ctx["first_sanitized"],
                     "same seed gave different sanitized bytes")
        doc = json.loads(raw)
        noisy = np.array([c["noisy_counts"] for c in doc["cells"]], dtype=float)
        fails.expect("sanitize", noisy.shape == counts.shape, "shape")
        noise = (noisy - counts).ravel()
        sigma = ref.noise_scale("gaussian_pdp", 1.0, 1e-6)
        bound = 5.0 * sigma / math.sqrt(noise.size)
        fails.expect("sanitize", abs(noise.mean()) < bound, f"noise mean {noise.mean()}")
        fails.expect("sanitize", abs(noise.std() / sigma - 1.0) < 0.05,
                     f"noise sd {noise.std()} vs sigma {sigma}")

    def utility():
        rows = _read_csv(os.path.join(rep, "utility.csv"))
        fails.expect("utility", [r["k"] for r in rows] == ["1"] * 3 + ["2"] * 3, "marginals")
        for r in rows:
            q = [float(r[c]) for c in ("tvd_q1", "tvd_median", "tvd_q3")]
            ok = 0 <= q[0] <= q[1] <= q[2] <= 1 and 0 <= float(r["tvd_mean"]) <= 1
            fails.expect("utility", ok, f"tvd row {r}")
        props["marginals_x_reps"] = len(rows) * 20

    fails.guard("sanitize", sanitize)
    fails.guard("utility", utility)
    return fails, props


# ---------------------------------------------------------------- verify

def prepare_verify(seed: int, inputs: str, threads: int):
    table = os.path.join(inputs, "table.json")
    tune_counts = gen.tune_table(seed, table)
    audit = os.path.join(inputs, "audit.json")
    audit_counts = gen.audit_table(seed, audit)
    model = gen.negbin_fit(tune_counts.sum(axis=1))
    sizes = os.path.join(inputs, "sizes.json")
    with open(sizes, "w") as fh:
        json.dump(model, fh)

    def mc(estimator, reps, mechanism, epsilon, extra, delta=None, i=0):
        argv = ["mc", "--estimator", estimator, "--mechanism", mechanism, "--epsilon",
                repr(epsilon), "--reps", str(reps), "--seed", str(seed * 100 + i),
                "--threads", str(threads), "--output", f"{{rep}}/mc_{estimator}.json"] + extra
        if delta is not None:
            argv += ["--delta", repr(delta)]
        return {"name": f"mc.{estimator}", "group": "mc", "argv": argv, "reps": reps,
                "mechanism": mechanism, "epsilon": epsilon, "delta": delta}

    cell, n_exp, p_exp, n_shr = [6, 2, 1, 0], 12, [0.5, 0.25, 0.25, 0.0], 8
    ops = [
        mc("local", 1_000_000, "laplace", 1.0, ["--cell", ",".join(map(str, cell))], i=1),
        mc("expected", 1_000_000, "gaussian_pdp", 1.0,
           ["--n", str(n_exp), "--p", ",".join(map(str, p_exp))], delta=1e-6, i=2),
        mc("shrinkage", 1_000_000, "laplace", 0.5, ["--n", str(n_shr), "--alpha", ALPHA], i=3),
        mc("global", 200_000, "gaussian_adp", 0.5, ["--alpha", ALPHA, "--size-model", sizes],
           delta=1e-6, i=4),
        mc("global_variant", 200_000, "laplace", 1.0,
           ["--size-model", sizes, "--categories", str(K)], i=5),
        mc("threshold", 20, "laplace", 1.0, ["--table", table], i=6),
        {"name": "audit", "group": "audit",
         "audit": {"table": audit, "mechanism": "laplace", "epsilon": 1.0, "reps": 20_000,
                   "seed": seed * 100 + 7, "threads": threads,
                   "output": "{rep}/audit.json"}},
    ]
    ctx = {"ops": ops, "cell": cell, "n_exp": n_exp, "p_exp": p_exp, "n_shr": n_shr,
           "model": model, "tune_counts": tune_counts, "audit_counts": audit_counts}
    return ops, ctx


def check_verify(rep: str, ctx: dict):
    fails = Failures()
    alpha = list(gen.TUNE_ALPHA)
    model = ctx["model"]
    tune_stats = _table_stats(ctx["tune_counts"])
    audit_stats = _table_stats(ctx["audit_counts"])
    props = {k: tune_stats[k] + audit_stats[k] for k in tune_stats}
    heterogeneous = {
        f"s{i:03d}" for i, row in enumerate(ctx["audit_counts"]) if (row > 0).sum() > 1
    }
    mc_reps = 0

    def closed_form(op):
        """(whether the total is exact, closed form); the scenario-1 tally otherwise."""
        est, mech, eps, delta = op["name"][3:], op["mechanism"], op["epsilon"], op["delta"]
        if est == "local":
            return True, ref.local_event(ctx["cell"], mech, eps, delta)
        if est == "expected":
            return False, ref.scenario1_single(ctx["n_exp"], ctx["p_exp"], mech, eps, delta)
        if est == "shrinkage":
            return False, ref.scenario1_shrinkage(ctx["n_shr"], alpha, mech, eps, delta)
        if est == "global":
            return False, ref.global_measure(alpha, model["r"], model["lambda"], mech, eps,
                                             delta)[1]
        curve = ref.global_variant_curve(model["r"], model["lambda"], K, mech, [eps], delta)
        return True, float(curve[0])

    for op in ctx["ops"]:
        if op["group"] != "mc":
            continue

        def estimate(op=op):
            nonlocal mc_reps
            name = op["name"]
            res = _load_json(os.path.join(rep, f"{name.replace('.', '_')}.json"))
            reps = int(res["reps"])
            mc_reps += reps
            tallies = [int(res["scenarios"][str(i)]) for i in range(1, 9)]
            cells = ctx["tune_counts"].shape[0] if name == "mc.threshold" else 1
            fails.expect(name, reps == op["reps"], f"reps {reps}")
            fails.expect(name, sum(tallies) == reps * cells, "scenario tallies do not sum")
            fails.expect(name, 0.0 <= res["value"] <= 1.0, f"value {res['value']}")
            if name == "mc.threshold":
                return  # no closed form: the record-level reading is MC-only
            total, closed = closed_form(op)
            if total:
                value, se = res["value"], res["se"]
            else:
                value = tallies[0] / reps
                se = math.sqrt(max(value * (1 - value), 1e-12) / reps)
            fails.expect(name, abs(value - closed) <= SE_LIMIT * se,
                         f"MC {value} vs closed form {closed}: {(value - closed) / se:+.2f} SE")

        fails.guard(op["name"], estimate)

    def audit():
        report = _load_json(os.path.join(rep, "audit.json"))
        fails.expect("audit", report["checked_cells"] == len(heterogeneous),
                     f"checked {report['checked_cells']} cells, {len(heterogeneous)} heterogeneous")
        fails.expect("audit", report["reps"] == 20_000, "reps")
        keys = {v["key"][0] for v in report["violations"]}
        fails.expect("audit", keys <= heterogeneous, "finding on a homogeneous cell")
        props["audit_findings"] = len(report["violations"])
        props["mc_reps"] = mc_reps + report["reps"] * report["checked_cells"]

    fails.guard("audit", audit)
    return fails, props


WORKLOADS = {
    "ingest": (prepare_ingest, check_ingest),
    "tune": (prepare_tune, check_tune),
    "verify": (prepare_verify, check_verify),
}
