"""Runs one workload's operation sequence repeatedly and times it.

Usage: python3 worker.py PLAN_JSON RESULT_JSON

The plan lists the operations (CLI argument vectors, or the library
audit), the source directory to import the program from, the minimum
measuring time and whether to trace. Repetitions run until that time is
spent, and at least twice, so outputs can be compared between them. In a
traced plan, untraced and traced repetitions alternate, so the trace
overhead is measured in the same process. Each repetition writes its
outputs under its own directory; the caller checks them afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

MIN_REPS = 2


def _expand(value, rep_dir: str):
    """Substitute the repetition's output directory for ``{rep}``."""
    if isinstance(value, str):
        return value.replace("{rep}", rep_dir)
    if isinstance(value, list):
        return [_expand(v, rep_dir) for v in value]
    if isinstance(value, dict):
        return {k: _expand(v, rep_dir) for k, v in value.items()}
    return value


def _run_op(op: dict, rep_dir: str, tracer) -> tuple[int, str]:
    """Execute one operation; return (exit code, captured stderr)."""
    import hadr
    import hadr.cli

    if "argv" in op:
        argv = _expand(op["argv"], rep_dir)
        name, call = f"cli.{argv[0]}", lambda: hadr.cli.main(argv)
    else:
        audit = _expand(op["audit"], rep_dir)
        name = "cli.audit"

        def call():
            table = hadr.read_table(audit["table"])
            params = hadr.PrivacyParams(audit["mechanism"], audit["epsilon"], audit.get("delta"))
            report = hadr.upper_bound_findings(
                table, params, audit["reps"], audit["seed"], threads=audit["threads"])
            with open(audit["output"], "w") as fh:
                json.dump(report, fh)
            return 0

    if tracer is not None:
        call = tracer.span(name, call)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return call(), err.getvalue()
        except SystemExit as exc:  # argparse rejects a usage error this way
            return (exc.code if isinstance(exc.code, int) else 2), err.getvalue()
        except Exception as exc:  # an operation that raises counts as failed
            return -1, f"{type(exc).__name__}: {exc}"


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import hadr.cli  # noqa: F401  (import cost is set-up, measured separately)

    tracer_mod = None
    if plan["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracer_mod

    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < plan["seconds"]:
        index = len(reps)
        rep_dir = os.path.join(plan["workdir"], f"rep{index}")
        os.makedirs(rep_dir, exist_ok=True)
        traced = tracer_mod is not None and index % 2 == 1
        tracer = tracer_mod.Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        ops = []
        t0 = time.perf_counter()
        try:
            for op in plan["ops"]:
                if tracer is not None:
                    tracer.op = op["name"]
                a = time.perf_counter()
                code, err = _run_op(op, rep_dir, tracer)
                ops.append({"name": op["name"], "seconds": time.perf_counter() - a,
                            "code": code, "stderr": err[-2000:]})
        finally:
            if tracer is not None:
                tracer.remove()
        rep = {"dir": rep_dir, "traced": traced, "workload_s": time.perf_counter() - t0,
               "ops": ops}
        if tracer is not None:
            rep["spans"] = [
                {"name": s.name, "op": s.op, "self_s": self_s, "total_s": s.end - s.start}
                for s, self_s in tracer_mod.self_times(tracer.spans)
            ]
            rep["absent"] = tracer.absent
        reps.append(rep)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump({"reps": reps, "peak_rss_mb": peak_kb / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
