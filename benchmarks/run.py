"""Benchmark of the hadr pipeline: one workload, one seed, one result line.

Usage, from the repository root:

    python3 benchmarks/run.py --workload {ingest,tune,verify} --seed N \
        --seconds S --trace {0,1}

The seed makes the inputs; the program sees only the generated files.
Generation is never timed. With --trace 0 the run measures set-up time
(a fresh interpreter's ``import hadr.cli``, several times), then runs the
workload's operation sequence through ``hadr.cli.main`` in one fresh
worker process, repeated for at least S seconds, and reports medians
over repetitions and the worker's peak RSS. With --trace 1 the worker
alternates untraced and traced repetitions and the run reports per-layer
self time (as a share of the traced workload time), call counts, the
workload-property counts and the tracing overhead.

Every repetition's outputs are checked. The report lines name every
metric with its unit and sample count; the last line is the JSON result.
The run exits non-zero without a result when the program's sources are
missing or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150

# End-to-end stage timings, each the sum of one group of operations.
STAGES = {
    "ingest": ("tabulate",),
    "tune": ("estimate", "risk_curve", "invert", "release"),
    "verify": ("mc", "audit"),
}
CLI_VERBS = ("tabulate", "estimate", "risk", "invert", "sanitize", "utility", "mc", "audit")
MC_ESTIMATORS = ("local", "expected", "shrinkage", "global", "global_variant", "threshold_dr")
PROPERTIES = ("rows", "cells", "distinct_sizes", "homogeneous_cells", "eps_points",
              "inversion_evals", "mc_reps", "mc_blocks", "marginals_x_reps")


def measure_setup(samples: int) -> list[float]:
    """Seconds a fresh interpreter spends in ``import hadr.cli``."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "t = time.perf_counter()\n"
        "import hadr.cli\n"
        "print(repr(time.perf_counter() - t))\n"
    )
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=30, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_worker(plan: dict, workdir: str) -> dict:
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
                   timeout=WORKER_TIMEOUT_S, check=True)
    with open(result_path) as fh:
        return json.load(fh)


def check_reps(reps, check, ctx):
    """Check every repetition's outputs.

    Returns (attempted, failure messages, property counts per repetition).
    An operation fails when it exits non-zero, raises or fails a check.
    """
    attempted, messages, props = 0, [], []
    for rep in reps:
        fails, counts = check(rep["dir"], ctx)
        for op in rep["ops"]:
            attempted += 1
            why = fails.get(op["name"], [])
            if op["code"] != 0:
                why = [f"exit {op['code']}: {op['stderr'].strip()}"] + why
            if why:
                messages.append(f"{op['name']}: {'; '.join(why[:3])}")
        props.append(counts)
    return attempted, messages, props


def end_to_end(workload, ops, reps, setup, peak_rss_mb):
    """Report rows (name, value, unit, samples) and the result-line metrics."""
    group = {op["name"]: op["group"] for op in ops}
    rows = [
        ("setup_s", statistics.median(setup), "s", len(setup)),
        ("workload_s", statistics.median(r["workload_s"] for r in reps), "s", len(reps)),
        ("peak_rss_mb", peak_rss_mb, "MB", 1),
    ]
    metrics = {name: {"value": v, "unit": unit} for name, v, unit, _ in rows}
    for stage in STAGES[workload]:
        per_rep = [sum(o["seconds"] for o in r["ops"] if group[o["name"]] == stage) for r in reps]
        rows.append((f"{stage}_s", statistics.median(per_rep), "s", len(per_rep)))
    return rows, metrics


def layer_totals(rep: dict) -> dict:
    """Per-group [self seconds, calls] and MC inclusive seconds of one traced repetition."""
    import tracer

    agg = {g: [0.0, 0] for g in list(tracer.LAYERS) + [f"cli.{v}" for v in CLI_VERBS]}
    mc_total = {e: 0.0 for e in MC_ESTIMATORS}
    inversion_evals = 0
    for s in rep["spans"]:
        name = s["name"]
        if name.startswith("mc.") and name[3:] in mc_total:
            if not s["op"].startswith("mc."):
                agg["mc.upper_bound_findings"][0] += s["self_s"]  # the audit's per-cell runs
                continue
            mc_total[name[3:]] += s["total_s"]
        agg[name][0] += s["self_s"]
        agg[name][1] += 1
        if name == "risk.evaluate_measure" and s["op"].startswith("invert."):
            inversion_evals += 1
    return {"agg": agg, "mc_total": mc_total, "inversion_evals": inversion_evals}


def per_layer(ops, reps, props):
    """Report rows and result-line metrics of a traced run; fills ``props``.

    Returns (rows, metrics, call counts repeat between traced repetitions).
    """
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    layers = [layer_totals(r) for r in traced]
    traced_s = statistics.median(r["workload_s"] for r in traced)
    n = len(traced)
    rows, metrics, repeat = [], {}, True
    for name in layers[0]["agg"]:
        if name == "rng.block_generator":
            continue  # counted as work.mc_blocks
        self_s = statistics.median(lt["agg"][name][0] for lt in layers)
        calls = layers[0]["agg"][name][1]
        repeat &= all(lt["agg"][name][1] == calls for lt in layers)
        share = {"value": 100.0 * self_s / traced_s, "unit": "%"}
        if name.startswith("cli."):
            rows.append((f"{name}_self_s", self_s, "s", n))
            metrics[f"{name}_self_pct"] = share
            continue
        rows += [(f"{name}_s", self_s, "s", n), (f"{name}_calls", calls, "count", n)]
        metrics[f"{name}_pct"] = share
        metrics[f"{name}_calls"] = {"value": calls, "unit": "count"}
        if name == "risk.evaluate_measure" and calls:
            rows.append(("risk.point_ms", 1e3 * self_s / calls, "ms", n))
    reps_of = {op["name"]: op.get("reps") for op in ops}
    for est in MC_ESTIMATORS:
        total = statistics.median(lt["mc_total"][est] for lt in layers)
        reps_run = reps_of.get(f"mc.{est.removesuffix('_dr')}")
        if reps_run and total > 0:
            rows.append((f"mc.{est}_reps_per_s", reps_run / total, "1/s", n))
    overhead = traced_s - statistics.median(r["workload_s"] for r in untraced)
    rows.append(("trace.overhead_s", overhead, "s", len(reps)))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    props["inversion_evals"] = layers[0]["inversion_evals"]
    props["mc_blocks"] = layers[0]["agg"]["rng.block_generator"][1]
    for p in PROPERTIES:
        props.setdefault(p, 0)
        metrics[f"work.{p}"] = {"value": props[p], "unit": "count"}
    repeat &= all(lt["inversion_evals"] == props["inversion_evals"] for lt in layers)
    return rows, metrics, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(STAGES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hadr", "cli.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import numpy as np
    import scipy

    import workloads

    prepare, check = workloads.WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    try:
        ops, ctx = prepare(args.seed, inputs, threads)
        setup = [] if args.trace else measure_setup(SETUP_SAMPLES)
        plan = {"src": SRC, "workdir": workdir, "seconds": args.seconds,
                "trace": bool(args.trace), "ops": ops}
        result = run_worker(plan, workdir)
        reps = result["reps"]
        attempted, messages, props_seen = check_reps(reps, check, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  nproc {threads}  python {platform.python_version()}  "
          f"numpy {np.__version__}  scipy {scipy.__version__}")
    for m in messages[:20]:
        print(f"FAILED {m}")
    repeat = all(p == props_seen[0] for p in props_seen)
    props = dict(props_seen[0])
    if args.trace:
        rows, metrics, calls_repeat = per_layer(ops, reps, props)
        repeat &= calls_repeat
    else:
        rows, metrics = end_to_end(
            args.workload, ops, [r for r in reps if not r["traced"]], setup, result["peak_rss_mb"])
    failed = len(messages)
    rows.append(("fail_ratio", failed / attempted, "ratio", attempted))

    for name, value, unit, n in rows:
        if unit == "ratio":
            note = f"({failed} of {n} operations)"
        else:
            note = "" if unit in ("count", "MB") else f"(median of {n})"
        print(f"  {name:40s} {value:14.6g} {unit:6s} {note}")
    print("  counts: " + "  ".join(f"{k}={v}" for k, v in props.items()))
    if not repeat:
        print(f"FAILED workload-property counts differ between repetitions: {props_seen}")
    print(json.dumps({"correct": failed == 0 and repeat, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
