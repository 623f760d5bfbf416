"""Cross-tabulation of microdata into QID-by-sensitive frequency tables.

A table cell collects the records that share one combination of
quasi-identifier (QID) values and stores the frequency of each sensitive
category inside that group. Cells with no records are never materialized,
so every cell has size n >= 1. A cell is homogeneous when all of its mass
sits on a single category; the support of a cell is the set of categories
with positive count.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

DEFAULT_MISSING_TOKENS = ("", "?", "NA")


@dataclass
class RawDataset:
    """Column-named rows; entries are str, float, or None for missing.

    ``rows`` may be any iterable, such as the row stream of ``tabulate_csv``;
    ``cross_tabulate`` walks it once.
    """

    column_names: list[str]
    rows: Iterable[list]

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise ValueError(f"no column named {name!r}") from None


@dataclass(frozen=True)
class CellRecord:
    """One QID combination with its per-category sensitive counts."""

    key: tuple[str, ...]
    counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class CellClass:
    homogeneous: bool
    category: int | None
    support: tuple[int, ...]


def classify_cell(cell: CellRecord) -> CellClass:
    """Return the cell's support and whether it is homogeneous."""
    support = tuple(k for k, c in enumerate(cell.counts) if c >= 1)
    if not support:
        raise ValueError("cell has no records")
    if len(support) == 1:
        return CellClass(homogeneous=True, category=support[0], support=support)
    return CellClass(homogeneous=False, category=None, support=support)


@dataclass(frozen=True)
class FrequencyTable:
    """Validated collection of cells over a fixed category list.

    Cells are normalized to lexicographic key order at construction, which
    makes serialization canonical. ``dropped_rows`` records how many input
    rows were discarded for missing values during cross-tabulation; it is
    not part of the file format.
    """

    qid_names: tuple[str, ...]
    sensitive_name: str
    categories: tuple[str, ...]
    cells: tuple[CellRecord, ...]
    dropped_rows: int = field(default=0, compare=False)

    def __post_init__(self):
        if len(self.categories) < 2:
            raise ValueError("sensitive attribute must take at least 2 categories")
        if not self.cells:
            raise ValueError("table has no cells")
        if len(set(self.categories)) != len(self.categories):
            raise ValueError("duplicate sensitive categories")
        k = len(self.categories)
        seen = set()
        for cell in self.cells:
            if len(cell.key) != len(self.qid_names):
                raise ValueError("cell key length does not match qid_names")
            if cell.key in seen:
                raise ValueError(f"duplicate cell key {cell.key!r}")
            seen.add(cell.key)
            if len(cell.counts) != k:
                raise ValueError("cell counts length does not match categories")
            if any((not isinstance(c, (int, np.integer))) or c < 0 for c in cell.counts):
                raise ValueError("cell counts must be non-negative integers")
            if cell.n < 1:
                raise ValueError(f"cell {cell.key!r} is empty")
        object.__setattr__(self, "cells", tuple(sorted(self.cells, key=lambda c: c.key)))

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    def counts_matrix(self) -> np.ndarray:
        return np.array([c.counts for c in self.cells], dtype=np.int64)

    def sizes(self) -> np.ndarray:
        return np.array([c.n for c in self.cells], dtype=np.int64)

    def keys(self) -> tuple[tuple[str, ...], ...]:
        return tuple(c.key for c in self.cells)


def cross_tabulate(dataset: RawDataset, qid_columns, sensitive_column: str) -> FrequencyTable:
    """Build the QID-by-sensitive frequency table from raw rows.

    Rows with a missing value in any selected column are dropped (the count
    is kept on the returned table). Values are compared as strings, and the
    categories of the sensitive attribute are sorted, so the table depends
    only on the multiset of rows, not on their order.
    """
    qid_columns = list(qid_columns)
    if not qid_columns:
        raise ValueError("at least one QID column is required")
    if len(set(qid_columns)) != len(qid_columns):
        raise ValueError("duplicate QID columns")
    if sensitive_column in qid_columns:
        raise ValueError("sensitive column cannot also be a QID")
    columns = [dataset.column_index(c) for c in qid_columns + [sensitive_column]]

    tally = Counter(map(itemgetter(*columns), dataset.rows))
    dropped = 0
    counts: dict[tuple[str, ...], Counter] = {}
    for used, c in tally.items():
        if None in used:
            dropped += c
            continue
        key = tuple(map(str, used[:-1]))
        counts.setdefault(key, Counter())[str(used[-1])] += c
    if not counts:
        raise ValueError("no complete rows to tabulate")
    categories = sorted(set().union(*counts.values()))
    if len(categories) < 2:
        raise ValueError("sensitive attribute must take at least 2 categories")
    cells = tuple(
        CellRecord(key=key, counts=tuple(by_cat[cat] for cat in categories))
        for key, by_cat in counts.items()
    )
    return FrequencyTable(
        qid_names=tuple(qid_columns),
        sensitive_name=sensitive_column,
        categories=tuple(categories),
        cells=cells,
        dropped_rows=dropped,
    )


@functools.lru_cache(maxsize=4096)
def _bin_label(text: str, width: float) -> str:
    """Label "lo-hi" of the half-open bin [k*width, (k+1)*width) holding text.

    Cached because a numeric column repeats few distinct values; an error
    names the value only, and the caller adds its column and line.
    """
    try:
        k = float(text) / width
    except ValueError:
        raise ValueError(f"unparseable numeric value {text!r}") from None
    if not math.isfinite(k):
        raise ValueError(f"no finite bin for value {text!r}")
    k = math.floor(k)
    return f"{k * width:g}-{(k + 1) * width:g}"


def _csv_rows(reader, header, binned, missing):
    """Stripped rows of ``reader`` with missing tokens as None and bins labelled."""
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ValueError(
                f"ragged row at line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        vals = [None if v in missing else v for v in map(str.strip, row)]
        for i, width in binned.items():
            if vals[i] is not None:
                try:
                    vals[i] = _bin_label(vals[i], width)
                except ValueError as exc:
                    raise ValueError(f"{exc} in column {header[i]!r} at line {lineno}") from None
        yield vals


def tabulate_csv(
    path, qid_columns, sensitive_column: str, bins=(), missing_tokens=DEFAULT_MISSING_TOKENS
) -> FrequencyTable:
    """Cross-tabulate an RFC-4180-style delimited file with a header row.

    The file is read once and no row is kept. Fields are compared after
    stripping whitespace; tokens in ``missing_tokens`` are missing in any
    column. Each ``(column, width)`` in ``bins`` replaces a numeric column
    by the label "lo-hi" of its lower-inclusive bin anchored at 0: value v
    falls in [k*width, (k+1)*width) with k = floor(v / width). A binned
    value that does not parse or is not finite raises, naming its column
    and line, whether or not the column is tabulated.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError("empty input: missing header row") from None
        dataset = RawDataset(column_names=header, rows=())
        binned: dict[int, float] = {}
        for column, width in bins:
            if not width > 0:
                raise ValueError("bin width must be positive")
            if width == math.inf:
                raise ValueError("bin width must be finite")
            i = dataset.column_index(column)
            if i in binned:
                raise ValueError(f"column {column!r} is binned twice")
            binned[i] = float(width)
        dataset.rows = _csv_rows(reader, header, binned, {str(t) for t in missing_tokens})
        return cross_tabulate(dataset, qid_columns, sensitive_column)


def expand_table(table: FrequencyTable) -> RawDataset:
    """Inverse of cross_tabulate up to row order: one row per record."""
    rows = []
    for cell in table.cells:
        for k, c in enumerate(cell.counts):
            rows.extend([list(cell.key) + [table.categories[k]]] * c)
    return RawDataset(
        column_names=list(table.qid_names) + [table.sensitive_name],
        rows=rows,
    )


def table_to_json(table: FrequencyTable) -> str:
    """Canonical single-line JSON; cells in lexicographic key order."""
    doc = {
        "qid_names": list(table.qid_names),
        "sensitive_name": table.sensitive_name,
        "categories": list(table.categories),
        "cells": [{"key": list(c.key), "counts": list(map(int, c.counts))} for c in table.cells],
    }
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n"


def check_header(doc, what: str) -> None:
    """Reject a table-shaped JSON document whose header is malformed.

    ``what`` names the format in messages. Types are compared exactly,
    since bool is a subclass of int; a missing name field raises KeyError.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("cells", []), list):
        raise ValueError(f"{what} must be an object whose 'cells' is a list")
    for name in ("qid_names", "categories"):
        names = doc[name]
        if type(names) is not list or not set(map(type, names)) <= {str}:
            raise ValueError(f"{what} '{name}' must be a list of strings, got {names!r}")
    if type(doc["sensitive_name"]) is not str:
        raise ValueError(f"{what} 'sensitive_name' must be a string")


def table_from_json(text: str) -> FrequencyTable:
    """Parse the table JSON; malformed fields are rejected, never coerced.

    Types are compared exactly, since bool is a subclass of int. The
    per-cell checks are written out in the loop, without a call per cell,
    because table reads dominate the closed-form workloads.
    """
    doc = json.loads(text)
    try:
        check_header(doc, "table JSON")
        cells = []
        for i, cell in enumerate(doc["cells"]):
            if not isinstance(cell, dict):
                raise ValueError(f"table JSON cell {i} is not an object")
            key, counts = cell["key"], cell["counts"]
            if type(key) is not list or not set(map(type, key)) <= {str}:
                raise ValueError(f"table JSON cell {i}: 'key' must be a list of strings, got {key!r}")
            if type(counts) is not list or not set(map(type, counts)) <= {int}:
                raise ValueError(
                    f"table JSON cell {i}: 'counts' must be a list of integers, got {counts!r}"
                )
            cells.append(CellRecord(key=tuple(key), counts=tuple(counts)))
        return FrequencyTable(
            qid_names=tuple(doc["qid_names"]),
            sensitive_name=doc["sensitive_name"],
            categories=tuple(doc["categories"]),
            cells=tuple(cells),
        )
    except KeyError as exc:
        raise ValueError(f"table JSON is missing field {exc}") from None


def write_table(table: FrequencyTable, path) -> None:
    with open(path, "w") as fh:
        fh.write(table_to_json(table))


def read_table(path) -> FrequencyTable:
    with open(path) as fh:
        return table_from_json(fh.read())
