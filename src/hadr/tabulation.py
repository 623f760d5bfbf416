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
import gc
import json
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, lt

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


_INT64_MAX = int(np.iinfo(np.int64).max)


def _counts_array(keys: tuple, counts, k: int) -> np.ndarray:
    """The counts as a fresh int64 (cells, k) array with one row per key.

    Every check runs over the whole array; only a count that is not an
    int64 integer sends the check through the entries one by one.
    """
    if len(counts) != len(keys):
        raise ValueError("cell keys and counts differ in length")
    try:
        arr = np.array(counts)
    except ValueError:  # rows of unequal length
        arr = np.empty(0)
    if arr.shape != (len(keys), k):
        raise ValueError("cell counts length does not match categories")
    if arr.dtype.kind != "i":
        for key, row in zip(keys, counts):
            for c in row:
                if not isinstance(c, (int, np.integer)) or c < 0:
                    raise ValueError("cell counts must be non-negative integers")
                if c > _INT64_MAX:
                    raise ValueError(f"cell {key!r} has a count that does not fit int64")
    arr = arr.astype(np.int64, copy=False)
    if (arr < 0).any():
        raise ValueError("cell counts must be non-negative integers")
    # partial sums of non-negative entries wrap to a negative value first
    wrapped = (np.cumsum(arr, axis=1) < 0).any(axis=1)
    if wrapped.any():
        key = keys[int(np.argmax(wrapped))]
        raise ValueError(f"cell {key!r} has a size that does not fit int64")
    return arr


class FrequencyTable:
    """Validated cells over a fixed category list, stored as columns.

    ``keys()`` holds the cell keys in lexicographic order and ``counts``
    the matching read-only int64 array of shape (cells, categories). Cells
    given in any order are sorted once at construction, which makes
    serialization canonical. ``dropped_rows`` records how many input rows
    were discarded for missing values during cross-tabulation; it is not
    part of the file format or of equality.
    """

    def __init__(self, qid_names, sensitive_name, categories, keys, counts, dropped_rows=0):
        self.qid_names = tuple(qid_names)
        self.sensitive_name = sensitive_name
        self.categories = tuple(categories)
        self.dropped_rows = dropped_rows
        if len(self.categories) < 2:
            raise ValueError("sensitive attribute must take at least 2 categories")
        keys = tuple(map(tuple, keys))
        if not keys:
            raise ValueError("table has no cells")
        if len(set(self.categories)) != len(self.categories):
            raise ValueError("duplicate sensitive categories")
        if set(map(len, keys)) != {len(self.qid_names)}:
            raise ValueError("cell key length does not match qid_names")
        if not set(map(type, chain.from_iterable(keys))) <= {str}:
            bad = next(key for key in keys if not set(map(type, key)) <= {str})
            raise ValueError(f"cell key {bad!r} holds a value that is not a string")
        counts = _counts_array(keys, counts, len(self.categories))
        sizes = counts.sum(axis=1)
        if not sizes.all():
            raise ValueError(f"cell {keys[int(np.argmin(sizes))]!r} is empty")
        if not all(map(lt, keys, keys[1:])):
            order = sorted(range(len(keys)), key=keys.__getitem__)
            keys = tuple(map(keys.__getitem__, order))
            dup = next((a for a, b in zip(keys, keys[1:]) if a == b), None)
            if dup is not None:
                raise ValueError(f"duplicate cell key {dup!r}")
            counts, sizes = counts[order], sizes[order]
        counts.flags.writeable = sizes.flags.writeable = False
        self._keys, self.counts, self._sizes = keys, counts, sizes

    def __eq__(self, other):
        if not isinstance(other, FrequencyTable):
            return NotImplemented
        head = (self.qid_names, self.sensitive_name, self.categories, self._keys)
        other_head = (other.qid_names, other.sensitive_name, other.categories, other._keys)
        return head == other_head and np.array_equal(self.counts, other.counts)

    @property
    def n_cells(self) -> int:
        return len(self._keys)

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    def sizes(self) -> np.ndarray:
        return self._sizes

    def keys(self) -> tuple[tuple[str, ...], ...]:
        return self._keys


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
    return FrequencyTable(
        qid_names=tuple(qid_columns),
        sensitive_name=sensitive_column,
        categories=tuple(categories),
        keys=tuple(counts),
        counts=[[by_cat[cat] for cat in categories] for by_cat in counts.values()],
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


def table_to_json(table: FrequencyTable) -> str:
    """Canonical single-line JSON; cells in lexicographic key order.

    The bytes are those of ``json.dumps(doc, separators=(",", ":"),
    ensure_ascii=False)``, written with one format string per cell.
    """
    enc = json.encoder.encode_basestring
    row = '{"key":[%s],"counts":[' + ",".join(["%d"] * table.n_categories) + "]}"
    cells = ",".join(
        row % (",".join(map(enc, key)), *c) for key, c in zip(table.keys(), table.counts.tolist())
    )
    return '{"qid_names":[%s],"sensitive_name":%s,"categories":[%s],"cells":[%s]}\n' % (
        ",".join(map(enc, table.qid_names)),
        enc(table.sensitive_name),
        ",".join(map(enc, table.categories)),
        cells,
    )


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


def _first_bad_cell(cells) -> None:
    """Raise for the first cell that fails the table JSON's type checks."""
    for i, cell in enumerate(cells):
        if not isinstance(cell, dict):
            raise ValueError(f"table JSON cell {i} is not an object")
        key, counts = cell["key"], cell["counts"]
        if type(key) is not list or not set(map(type, key)) <= {str}:
            raise ValueError(f"table JSON cell {i}: 'key' must be a list of strings, got {key!r}")
        if type(counts) is not list or not set(map(type, counts)) <= {int}:
            raise ValueError(
                f"table JSON cell {i}: 'counts' must be a list of integers, got {counts!r}"
            )


def table_from_json(text: str) -> FrequencyTable:
    """Parse the table JSON; malformed fields are rejected, never coerced.

    Types are compared exactly, since bool is a subclass of int. The type
    checks run over the whole document at once (the key strings inside the
    table constructor), and only when they fail are the cells walked to
    name the first bad one; the table checks run over the whole counts
    array. Table reads dominate the closed-form workloads.
    """
    # The parse allocates a dict and two lists per cell and makes no
    # reference cycles, yet those allocations set off a cyclic collection of
    # the whole heap that costs about as much as the parse itself. Reference
    # counting frees the containers, so the collector is paused meanwhile.
    collecting = gc.isenabled()
    gc.disable()
    try:
        doc = json.loads(text)
        check_header(doc, "table JSON")
        cells = doc["cells"]
        try:
            keys = list(map(itemgetter("key"), cells))
            counts = list(map(itemgetter("counts"), cells))
            typed = (
                set(map(type, keys)) | set(map(type, counts)) <= {list}
                and set(map(type, chain.from_iterable(counts))) <= {int}
            )
        except (KeyError, TypeError):  # a missing field, or a cell that is not an object
            typed = False
        if not typed:
            _first_bad_cell(cells)
        try:
            return FrequencyTable(
                doc["qid_names"], doc["sensitive_name"], doc["categories"], keys, counts
            )
        except ValueError:
            # the constructor checks the key strings; a bad one is named
            # here as a bad cell, ahead of any other fault of the table
            _first_bad_cell(cells)
            raise
    except KeyError as exc:
        raise ValueError(f"table JSON is missing field {exc}") from None
    finally:
        if collecting:
            gc.enable()


def write_table(table: FrequencyTable, path) -> None:
    with open(path, "w") as fh:
        fh.write(table_to_json(table))


def read_table(path) -> FrequencyTable:
    with open(path) as fh:
        return table_from_json(fh.read())
