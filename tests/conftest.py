import re
from pathlib import Path

import numpy as np
import pytest

from hadr import FrequencyTable
from hadr.tabulation import table_to_json

# Acceptance results keyed by criterion number; filled in by the report hook
# below and printed as one line per criterion after the run.
_ACCEPTANCE: dict = {}
_CAVEATS: dict = {}

_CRITERION_RE = re.compile(r"test_acceptance\.py::test_criterion_0*(\d+)_(\w+)")


def record_caveat(number: int, message: str) -> None:
    _CAVEATS[number] = message


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _CRITERION_RE.search(report.nodeid)
    if m is None:
        return
    _ACCEPTANCE[int(m.group(1))] = (m.group(2), report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        name, outcome = _ACCEPTANCE[number]
        label = "PASS" if outcome == "passed" else "FAIL"
        line = f"[criterion {number}] {name.replace('_', ' ')}: {label}"
        if number in _CAVEATS:
            line += f"  (caveat: {_CAVEATS[number]})"
        terminalreporter.write_line(line)


def make_table(rows, categories=None, qid_names=("g",)) -> FrequencyTable:
    """Table from a counts matrix, a list of per-cell count rows or an array,
    which the constructor checks as given; keys are generated."""
    k = len(rows[0])
    if categories is None:
        categories = tuple(f"y{j}" for j in range(k))
    width = len(str(len(rows) - 1))
    return FrequencyTable(
        qid_names=tuple(qid_names),
        sensitive_name="y",
        categories=tuple(categories),
        keys=[(f"c{i:0{width}d}",) * len(qid_names) for i in range(len(rows))],
        counts=rows,
    )


def write_table(table, path) -> None:
    """Write the table JSON file that ``hadr tabulate`` would write for ``table``."""
    Path(path).write_text(table_to_json(table), encoding="utf-8")


def cells_of(table) -> dict:
    """Each cell key with its counts as a tuple."""
    return {key: tuple(c) for key, c in zip(table.keys(), table.counts.tolist())}


def make_homog_table(sizes, k=2) -> FrequencyTable:
    """All-homogeneous table; each cell's records sit on a rotating category."""
    rows = []
    for i, n in enumerate(sizes):
        row = [0] * k
        row[i % k] = int(n)
        rows.append(tuple(row))
    return make_table(rows, categories=tuple(f"y{j}" for j in range(k)))


def random_table(rng: np.random.Generator, m=8, k=2, n_max=30) -> FrequencyTable:
    rows = []
    for _ in range(m):
        n = int(rng.integers(1, n_max + 1))
        counts = rng.multinomial(n, np.full(k, 1.0 / k))
        rows.append(tuple(int(c) for c in counts))
    return make_table(rows)


def recording_pool():
    """A serial stand-in for ThreadPoolExecutor plus the max_workers values it was given."""
    seen = []

    class Pool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    return Pool, seen


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
