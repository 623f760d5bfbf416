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
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import is_, itemgetter, lt

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


# Rows read and counted at a time: between chunks only the distinct values
# and the distinct code rows are kept.
_CHUNK_ROWS = 1 << 16


def _gc_paused(fn):
    """Wrap ``fn``, a pass that makes no reference cycles, to run with the collector paused.

    Such a pass allocates many lists, tuples and dicts, which set off
    collections of the whole heap that cost about as much as the pass
    itself; reference counting frees what the pass drops. The collector
    resumes only after the frame of ``fn`` has released its locals, so
    none of them is left for it to scan.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()

    return paused


class _Codes(dict):
    """Memo from a raw value to the integer code of its label.

    ``clean`` maps a raw value to its label, or to None when the value is
    missing, and runs once per distinct raw value. Code 0 is missing and
    ``labels[c]`` is the label of code c > 0; raw values with equal labels
    share a code.
    """

    def __init__(self, clean):
        super().__init__()
        self._clean = clean
        self._code_of = {None: 0}
        self.labels = [None]

    def __missing__(self, raw):
        label = self._clean(raw)
        code = self._code_of.get(label)
        if code is None:
            code = self._code_of[label] = len(self.labels)
            self.labels.append(label)
        self[raw] = code
        return code

    def codes(self, values, n: int) -> np.ndarray:
        """The codes of the n raw ``values``."""
        return np.fromiter(map(self.__getitem__, values), np.int64, n)


def _fold(codes: np.ndarray, cards) -> np.ndarray:
    """One int64 per column of ``codes``, equal exactly where the columns are.

    Row j holds codes below cards[j], read as mixed-radix digits. Where the
    next digit would overflow int64, the key so far is first replaced by
    its rank among the distinct keys, so a key stays below the number of
    columns times a card.
    """
    key, bound = codes[0], cards[0]
    for row, card in zip(codes[1:], cards[1:]):
        if bound * card > _INT64_MAX:
            _, key = np.unique(key, return_inverse=True)
            bound = int(key.max()) + 1
        key = key * card + row
        bound *= card
    return key


def _merge(seen, tally, codes, cards):
    """The distinct columns of ``seen`` and ``codes`` with their counts.

    Column j of ``seen`` counts tally[j] records and each of ``codes`` one.
    A function of its own, so that its temporaries are freed before the
    next chunk is read.
    """
    both = np.concatenate([seen, codes], axis=1)
    _, first, where = np.unique(_fold(both, cards), return_index=True, return_inverse=True)
    # float weights add up exactly: no input has 2**53 records
    weights = np.concatenate([tally, np.ones(codes.shape[1], np.int64)])
    return both[:, first], np.bincount(where, weights).astype(np.int64)


@_gc_paused
def _tally(chunks, memos, qid_names, sensitive_name) -> FrequencyTable:
    """The frequency table of the code arrays that ``chunks`` yields.

    A chunk has one row per QID column and then one for the sensitive
    column, coded by ``memos`` in that order, and one column per record.
    Between chunks only the distinct code columns and their counts are
    kept, so memory grows with the distinct cells, not with the records.
    """
    seen = np.zeros((len(memos), 0), np.int64)
    tally = np.zeros(0, np.int64)
    for codes in chunks:
        seen, tally = _merge(seen, tally, codes, [len(memo.labels) for memo in memos])

    complete = seen.all(axis=0)
    dropped = int(tally[~complete].sum())
    seen, tally = seen[:, complete], tally[complete]
    if not tally.size:
        raise ValueError("no complete rows to tabulate")
    labels = [memo.labels for memo in memos]
    present = sorted(set(seen[-1].tolist()), key=labels[-1].__getitem__)
    if len(present) < 2:
        raise ValueError("sensitive attribute must take at least 2 categories")
    category = np.zeros(len(labels[-1]), np.int64)
    category[present] = np.arange(len(present))
    key = _fold(seen[:-1], [len(label) for label in labels[:-1]])
    _, first, cell = np.unique(key, return_index=True, return_inverse=True)
    counts = np.zeros((len(first), len(present)), np.int64)
    counts[cell, category[seen[-1]]] = tally  # each (cell, category) occurs once
    qid_codes = seen[:-1, first].tolist()
    return FrequencyTable(
        qid_names=qid_names,
        sensitive_name=sensitive_name,
        categories=[labels[-1][c] for c in present],
        keys=zip(*(map(label.__getitem__, row) for label, row in zip(labels, qid_codes))),
        counts=counts,
        dropped_rows=dropped,
    )


def _used_columns(dataset: RawDataset, qid_columns, sensitive_column: str):
    """The QID names and the indices of the QID columns, then the sensitive one."""
    qid_columns = list(qid_columns)
    if not qid_columns:
        raise ValueError("at least one QID column is required")
    if len(set(qid_columns)) != len(qid_columns):
        raise ValueError("duplicate QID columns")
    if sensitive_column in qid_columns:
        raise ValueError("sensitive column cannot also be a QID")
    columns = [dataset.column_index(c) for c in qid_columns + [sensitive_column]]
    return tuple(qid_columns), columns


def cross_tabulate(dataset: RawDataset, qid_columns, sensitive_column: str) -> FrequencyTable:
    """Build the QID-by-sensitive frequency table from raw rows.

    Rows with a missing value (None) in any selected column are dropped
    (the count is kept on the returned table). Values are compared as
    their ``str()``, so 1 and "1" fall in one cell while 1 and 1.0 do not,
    and the categories of the sensitive attribute are sorted, so the table
    depends only on the multiset of rows, not on their order.
    """
    qid_names, columns = _used_columns(dataset, qid_columns, sensitive_column)
    memos = [_Codes(str) for _ in columns]
    rows = iter(dataset.rows)

    def chunks():
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            n = len(chunk)
            codes = np.empty((len(columns), n), np.int64)
            for j, (i, memo) in enumerate(zip(columns, memos)):
                values = list(map(itemgetter(i), chunk))
                codes[j] = memo.codes(map(str, values), n)
                codes[j, np.fromiter(map(is_, values, repeat(None)), bool, n)] = 0
            yield codes

    return _tally(chunks(), memos, qid_names, sensitive_column)


def _bin_label(text: str, width: float) -> str:
    """Label "lo-hi" of the half-open bin [k*width, (k+1)*width) holding text.

    An error names the value only; the caller adds its column and line.
    """
    try:
        k = float(text) / width
    except ValueError:
        raise ValueError(f"unparseable numeric value {text!r}") from None
    if not math.isfinite(k):
        raise ValueError(f"no finite bin for value {text!r}")
    k = math.floor(k)
    return f"{k * width:g}-{(k + 1) * width:g}"


def _clean_field(field: str, missing, width) -> str | None:
    """The stripped field, None if it is a missing token, or its bin label."""
    value = field.strip()
    if value in missing:
        return None
    return value if width is None else _bin_label(value, width)


def _first_fault(rows, header, binned, missing, start: int) -> None:
    """Raise for the first faulty row of ``rows``, whose first is at line ``start``.

    A row is faulty when it is ragged or a binned field in it, missing
    tokens aside, has no bin; the message names the line and, for a bin,
    the column.
    """
    for lineno, row in enumerate(rows, start):
        if len(row) != len(header):
            raise ValueError(
                f"ragged row at line {lineno}: expected {len(header)} fields, got {len(row)}"
            ) from None
        for i, width in binned.items():
            try:
                _clean_field(row[i], missing, width)
            except ValueError as exc:
                raise ValueError(f"{exc} in column {header[i]!r} at line {lineno}") from None


def _csv_chunks(reader, header, binned, missing, memos, columns):
    """Code arrays of ``columns`` (see ``_tally``), one chunk of rows at a time.

    ``memos`` holds a memo for every used or binned column, so a binned
    value without a bin raises even in a column that is not tabulated. A
    chunk with a fault is replayed row by row, which raises the first fault
    in row order.
    """
    chunk, lineno = [], 2
    while True:
        try:
            chunk.extend(islice(reader, _CHUNK_ROWS))
        except (csv.Error, ValueError) as exc:
            # a fault in a row read before a parse or decode error comes first
            _first_fault(chunk, header, binned, missing, lineno)
            if isinstance(exc, csv.Error):  # not a ValueError: name the row that failed
                raise ValueError(f"{exc} at line {lineno + len(chunk)}") from None
            raise
        if not chunk:
            return
        n = len(chunk)
        try:
            if set(map(len, chunk)) != {len(header)}:
                raise ValueError("ragged row")
            codes = {i: memo.codes(map(itemgetter(i), chunk), n) for i, memo in memos.items()}
        except ValueError:
            _first_fault(chunk, header, binned, missing, lineno)
            raise
        chunk.clear()  # the rows are freed before the codes are counted
        lineno += n
        yield np.array([codes[i] for i in columns])


def tabulate_csv(
    path, qid_columns, sensitive_column: str, bins=(), missing_tokens=DEFAULT_MISSING_TOKENS
) -> FrequencyTable:
    """Cross-tabulate an RFC-4180-style delimited file with a header row.

    The file is read once, 2**16 rows at a time, and only the QID, the
    sensitive and the binned columns are looked at. Each distinct field of
    a column is cleaned once and coded as an integer, so memory holds one
    chunk of rows besides the distinct values and the distinct cells. The
    cyclic garbage collector is paused during the pass.

    Fields are compared after stripping whitespace; tokens in
    ``missing_tokens`` are missing in any column. Each ``(column, width)``
    in ``bins`` replaces a numeric column by the label "lo-hi" of its
    lower-inclusive bin anchored at 0: value v falls in [k*width,
    (k+1)*width) with k = floor(v / width). A ragged row, and a binned
    value that does not parse or is not finite, raise with the line of the
    first such row and, for a value, its column, whether or not the column
    is tabulated. A row the csv module cannot parse (say, a field over its
    field size limit) raises ValueError with its line, unless an earlier
    row has one of those faults.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError("empty input: missing header row") from None
        except csv.Error as exc:
            raise ValueError(f"{exc} at line 1") from None
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
        qid_names, columns = _used_columns(dataset, qid_columns, sensitive_column)
        missing = {str(t) for t in missing_tokens}
        memos = {
            i: _Codes(functools.partial(_clean_field, missing=missing, width=binned.get(i)))
            for i in (*columns, *binned)
        }
        chunks = _csv_chunks(reader, header, binned, missing, memos, columns)
        return _tally(chunks, [memos[i] for i in columns], qid_names, sensitive_column)


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


@_gc_paused  # the parse allocates a dict and two lists per cell
def table_from_json(text: str) -> FrequencyTable:
    """Parse the table JSON; malformed fields are rejected, never coerced.

    Types are compared exactly, since bool is a subclass of int. The type
    checks run over the whole document at once (the key strings inside the
    table constructor), and only when they fail are the cells walked to
    name the first bad one; the table checks run over the whole counts
    array. Table reads dominate the closed-form workloads.
    """
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


def write_table(table: FrequencyTable, path) -> None:
    with open(path, "w") as fh:
        fh.write(table_to_json(table))


def read_table(path) -> FrequencyTable:
    with open(path) as fh:
        return table_from_json(fh.read())
