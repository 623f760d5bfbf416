"""In-memory span tracing around the program's public functions.

The benchmark wraps each layer's public functions from outside the
package: the wrapper replaces the function in its defining module and in
every ``hadr`` module that imported the same object, so calls through
``hadr.cli`` and between layers are both seen. Spans (name, start, end,
parent) stay in memory until the traced repetition ends. A span opened on
a pool thread with no open span of its own takes the main thread's
innermost open span as its parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# Metric group -> (module, attribute) names wrapped for it. A dotted
# attribute names a method of a class in that module.
LAYERS = {
    "tabulation.load_csv": [("tabulation", "load_csv")],
    "tabulation.bin_numeric": [("tabulation", "bin_numeric")],
    "tabulation.cross_tabulate": [("tabulation", "cross_tabulate")],
    "tabulation.write_table": [("tabulation", "write_table")],
    "tabulation.read_table": [("tabulation", "read_table")],
    "estimation.fit_dirichlet_mom": [("estimation", "fit_dirichlet_mom")],
    "estimation.fit_negbin": [("estimation", "fit_negbin")],
    "estimation.size_model": [
        ("estimation", "CellSizeModel.pmf"),
        ("estimation", "CellSizeModel.tail_quantile"),
        ("estimation", "CellSizeModel.truncated_ppf"),
        ("estimation", "CellSizeModel.zero_mass"),
    ],
    "risk.evaluate_measure": [("risk", "evaluate_measure")],
    "risk.risk_curve": [("risk", "risk_curve")],
    "risk.invert_epsilon": [("risk", "invert_epsilon")],
    "risk.expected_risk_cells": [("risk", "expected_risk_cells")],
    "risk.write_curve_csv": [("risk", "write_curve_csv")],
    "mechanisms.noise_model": [("mechanisms", "noise_model")],
    "mechanisms.sanitize": [("mechanisms", "sanitize")],
    "mechanisms.mechanism_noise": [("mechanisms", "mechanism_noise")],
    "mechanisms.write_sanitized": [("mechanisms", "write_sanitized")],
    "special.norm_cdf": [("special", "norm_cdf")],
    "special.inv_norm_cdf": [("special", "inv_norm_cdf")],
    "utility.utility_report": [("utility", "utility_report")],
    "utility.write_tvd_csv": [("utility", "write_tvd_csv")],
    "mc.local": [("mc", "mc_local")],
    "mc.expected": [("mc", "mc_expected")],
    "mc.shrinkage": [("mc", "mc_shrinkage")],
    "mc.global": [("mc", "mc_global")],
    "mc.global_variant": [("mc", "mc_global_variant")],
    "mc.threshold_dr": [("mc", "mc_threshold_dr")],
    "mc.upper_bound_findings": [("mc", "upper_bound_findings")],
    "mc.write_mc_json": [("mc", "write_mc_json")],
    "rng.block_generator": [("_rng", "block_generator")],
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end, self.parent, self.op = name, start, None, parent, op


class Tracer:
    """Records spans while installed; restores every patched name on removal."""

    def __init__(self, package: str = "hadr"):
        self.package = package
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = None
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            s = Span(name, time.perf_counter(), parent, self.op)
            self.spans.append(s)
            stack.append(s)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                s.end = time.perf_counter()

        return traced

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if (n == self.package or n.startswith(self.package + ".")) and m is not None
        ]
        for group, targets in LAYERS.items():
            for mod_name, attr in targets:
                label = f"{mod_name}.{attr}"
                try:
                    module = importlib.import_module(f"{self.package}.{mod_name}")
                except ImportError:
                    self.absent.append(label)
                    continue
                owner_name, _, meth = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, meth, None) if owner is not None else None
                if not callable(original):
                    self.absent.append(label)
                    continue
                wrapped = self.span(group, original)
                self._set(owner, meth, wrapped)
                if owner_name:
                    continue
                for other in modules:
                    if other is not module and getattr(other, meth, None) is original:
                        self._set(other, meth, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans) -> list[tuple[Span, float]]:
    """(span, self time): duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(id(s), ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s, (s.end - s.start) - covered))
    return out
