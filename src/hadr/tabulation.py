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
from itertools import chain, islice
from operator import itemgetter, lt

import numpy as np

MISSING_TOKENS = frozenset(("", "?", "NA"))

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


def check_keys(keys, n_qids: int) -> None:
    """Raise unless every cell key is a sequence of ``n_qids`` strings."""
    if set(map(len, keys)) - {n_qids}:
        raise ValueError("cell key length does not match qid_names")
    if not set(map(type, chain.from_iterable(keys))) <= {str}:
        bad = next(key for key in keys if not set(map(type, key)) <= {str})
        raise ValueError(f"cell key {bad!r} holds a value that is not a string")


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
        check_keys(keys, len(self.qid_names))
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
        self.clean = clean
        self._code_of = {None: 0}
        self.labels = [None]

    def __missing__(self, raw):
        label = self.clean(raw)
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
def _tally(rows, header, memos, columns, lineno: int, value=None) -> FrequencyTable:
    """The frequency table of ``rows`` over the QID ``columns`` and then the sensitive one.

    ``_chunks``, which takes the same arguments, codes the rows a chunk at
    a time into arrays with one row per column of ``columns`` and one
    column per record. Between chunks only the distinct code columns and
    their counts are kept, so memory grows with the distinct cells, not
    with the records. The table takes its names from ``header``.
    """
    seen = np.zeros((len(columns), 0), np.int64)
    tally = np.zeros(0, np.int64)
    labels = [memos[i].labels for i in columns]  # grown in place as the memos meet new values
    for codes in _chunks(rows, header, memos, columns, lineno, value):
        seen, tally = _merge(seen, tally, codes, list(map(len, labels)))

    complete = seen.all(axis=0)
    dropped = int(tally[~complete].sum())
    seen, tally = seen[:, complete], tally[complete]
    if not tally.size:
        raise ValueError("no complete rows to tabulate")
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
        qid_names=[header[i] for i in columns[:-1]],
        sensitive_name=header[columns[-1]],
        categories=[labels[-1][c] for c in present],
        keys=zip(*(map(label.__getitem__, row) for label, row in zip(labels, qid_codes))),
        counts=counts,
        dropped_rows=dropped,
    )


def _column_index(column_names, name: str) -> int:
    try:
        return column_names.index(name)
    except ValueError:
        raise ValueError(f"no column named {name!r}") from None


def _used_columns(column_names, qid_columns, sensitive_column: str) -> list[int]:
    """The indices of the QID columns, then of the sensitive one."""
    qid_columns = list(qid_columns)
    if not qid_columns:
        raise ValueError("at least one QID column is required")
    if len(set(qid_columns)) != len(qid_columns):
        raise ValueError("duplicate QID columns")
    if sensitive_column in qid_columns:
        raise ValueError("sensitive column cannot also be a QID")
    return [_column_index(column_names, c) for c in qid_columns + [sensitive_column]]


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


def _clean_field(field: str, width) -> str | None:
    """The stripped field, None if it is a missing token, or its bin label."""
    value = field.strip()
    if value in MISSING_TOKENS:
        return None
    return value if width is None else _bin_label(value, width)


def _first_fault(rows, header, memos, start: int) -> None:
    """Raise for the first faulty row of ``rows``, whose first is at line ``start``.

    A row is faulty when it is ragged or the ``clean`` of a memo in
    ``memos`` raises on its field; the message names the line and, for a
    field, the column. Memos are tried in their order in ``memos``.
    """
    for lineno, row in enumerate(rows, start):
        if len(row) != len(header):
            raise ValueError(
                f"ragged row at line {lineno}: expected {len(header)} fields, got {len(row)}"
            ) from None
        for i, memo in memos.items():
            try:
                memo.clean(row[i])
            except ValueError as exc:
                raise ValueError(f"{exc} in column {header[i]!r} at line {lineno}") from None


def _chunks(rows, header, memos, columns, lineno: int, value=None):
    """Code arrays of ``columns`` for ``_tally``, one chunk of ``rows`` at a time.

    ``rows`` yields one sequence of fields per name in ``header``, the
    first of them numbered ``lineno``. ``memos`` holds the memo of every
    column to code: the used ones and any other whose fields must be
    checked. ``value``, when given, maps each field of those columns
    before its memo sees it. A chunk with a fault is replayed row by row,
    which raises the first fault in row order.
    """
    rows, chunk = iter(rows), []
    while True:
        try:
            chunk.extend(islice(rows, _CHUNK_ROWS))
        except (csv.Error, ValueError) as exc:
            # a fault in a row read before a parse or decode error comes first
            _first_fault(chunk, header, memos, lineno)
            if isinstance(exc, csv.Error):  # not a ValueError: name the row that failed
                raise ValueError(f"{exc} at line {lineno + len(chunk)}") from None
            raise
        if not chunk:
            return
        n = len(chunk)
        try:
            if set(map(len, chunk)) != {len(header)}:
                raise ValueError("ragged row")
            fields = {i: map(itemgetter(i), chunk) for i in memos}
            if value is not None:
                fields = {i: map(value, column) for i, column in fields.items()}
            codes = {i: memo.codes(fields[i], n) for i, memo in memos.items()}
        except ValueError:
            _first_fault(chunk, header, memos, lineno)
            raise
        chunk.clear()  # the rows are freed before the codes are counted
        lineno += n
        yield np.array([codes[i] for i in columns])


def cross_tabulate(column_names, rows, qid_columns, sensitive_column: str) -> FrequencyTable:
    """Build the QID-by-sensitive frequency table from in-memory rows.

    ``rows`` may be any iterable of sequences, each holding one value per
    name in ``column_names``; it is walked once, 2**16 rows at a time, as
    ``tabulate_csv`` walks a file. A row of any other length raises
    ValueError naming it as a line, counted from 1. Rows with a missing
    value (None) in any selected column are dropped (the count is kept on
    the returned table). Values are compared as their ``str()``, so 1 and
    "1" fall in one cell while 1 and 1.0 do not, and the categories of the
    sensitive attribute are sorted, so the table depends only on the
    multiset of rows, not on their order.
    """
    columns = _used_columns(column_names, qid_columns, sensitive_column)
    memos = {i: _Codes(lambda label: label) for i in columns}
    return _tally(rows, column_names, memos, columns, 1, lambda v: None if v is None else str(v))


def tabulate_csv(path, qid_columns, sensitive_column: str, bins=()) -> FrequencyTable:
    """Cross-tabulate an RFC-4180-style delimited file with a header row.

    The file is read once, 2**16 rows at a time, and only the QID, the
    sensitive and the binned columns are looked at. Each distinct field of
    a column is cleaned once and coded as an integer, so memory holds one
    chunk of rows besides the distinct values and the distinct cells. The
    cyclic garbage collector is paused during the pass.

    Fields are compared after stripping whitespace; the tokens in
    ``MISSING_TOKENS`` ("", "?" and "NA") are missing in any column. Each
    ``(column, width)`` in ``bins`` replaces a numeric column by the label
    "lo-hi" of its lower-inclusive bin anchored at 0: value v falls in
    [k*width, (k+1)*width) with k = floor(v / width). A ragged row, and a
    binned value that does not parse or is not finite, raise with the line
    of the first such row and, for a value, its column, whether or not the
    column is tabulated. A row the csv module cannot parse (say, a field
    over its field size limit) raises ValueError with its line, unless an
    earlier row has one of those faults.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError("empty input: missing header row") from None
        except csv.Error as exc:
            raise ValueError(f"{exc} at line 1") from None
        binned: dict[int, float] = {}
        for column, width in bins:
            if not width > 0:
                raise ValueError("bin width must be positive")
            if width == math.inf:
                raise ValueError("bin width must be finite")
            i = _column_index(header, column)
            if i in binned:
                raise ValueError(f"column {column!r} is binned twice")
            binned[i] = float(width)
        columns = _used_columns(header, qid_columns, sensitive_column)
        # binned columns first, so a row's first bad bin is found in ``bins`` order
        memos = {
            i: _Codes(functools.partial(_clean_field, width=binned.get(i)))
            for i in (*binned, *columns)
        }
        return _tally(reader, header, memos, columns, 2)


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


def read_cells(text: str, what: str, field: str, number_types) -> tuple[dict, list, list]:
    """Parse a table-shaped JSON document into (doc, cell keys, cell values).

    The document is an object with the string lists 'qid_names' and
    'categories', the string 'sensitive_name' and the list 'cells'. Each
    cell is an object whose 'key' is a list of strings and whose ``field``
    is a list of one number per category, a number being a value whose
    type is in ``number_types``. Types are compared exactly, since bool is
    a subclass of int; malformed fields are rejected, never coerced. The
    cell checks run over the whole document at once, and only when they
    fail are the cells walked to name the first bad one. ``what`` names
    the format in messages.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("cells", []), list):
        raise ValueError(f"{what} must be an object whose 'cells' is a list")
    try:
        for name in ("qid_names", "categories"):
            names = doc[name]
            if type(names) is not list or not set(map(type, names)) <= {str}:
                raise ValueError(f"{what} '{name}' must be a list of strings, got {names!r}")
        if type(doc["sensitive_name"]) is not str:
            raise ValueError(f"{what} 'sensitive_name' must be a string")
        cells, k = doc["cells"], len(doc["categories"])
        try:
            keys = list(map(itemgetter("key"), cells))
            values = list(map(itemgetter(field), cells))
            typed = (
                set(map(type, keys)) | set(map(type, values)) <= {list}
                and set(map(len, values)) <= {k}
                and set(map(type, chain.from_iterable(values))) <= number_types
                and set(map(type, chain.from_iterable(keys))) <= {str}
            )
        except (KeyError, TypeError):  # a missing field, or a cell that is not an object
            typed = False
        if not typed:
            noun = "numbers" if float in number_types else "integers"
            for i, cell in enumerate(cells):
                if not isinstance(cell, dict):
                    raise ValueError(f"{what} cell {i} is not an object")
                key, vals = cell["key"], cell[field]
                if type(key) is not list or not set(map(type, key)) <= {str}:
                    raise ValueError(
                        f"{what} cell {i}: 'key' must be a list of strings, got {key!r}"
                    )
                if type(vals) is not list or not set(map(type, vals)) <= number_types:
                    raise ValueError(
                        f"{what} cell {i}: '{field}' must be a list of {noun}, got {vals!r}"
                    )
                if len(vals) != k:
                    raise ValueError(
                        f"{what} cell {i}: '{field}' must hold {k} values, got {vals!r}"
                    )
    except KeyError as exc:
        raise ValueError(f"{what} is missing field {exc}") from None
    return doc, keys, values


@_gc_paused  # the parse allocates a dict and two lists per cell
def table_from_json(text: str) -> FrequencyTable:
    """Parse the table JSON, whose cells hold 'counts', as ``read_cells`` reads it.

    The table checks then run over the whole counts array. Table reads
    dominate the closed-form workloads.
    """
    doc, keys, counts = read_cells(text, "table JSON", "counts", {int})
    return FrequencyTable(doc["qid_names"], doc["sensitive_name"], doc["categories"], keys, counts)


def write_table(table: FrequencyTable, path) -> None:
    with open(path, "w") as fh:
        fh.write(table_to_json(table))


def read_table(path) -> FrequencyTable:
    with open(path) as fh:
        return table_from_json(fh.read())
