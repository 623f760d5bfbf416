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
from reprlib import repr as _brief  # bounded: echoed input values may be huge

import numpy as np

from ._rng import INT64_MAX, check_cells

MISSING_TOKENS = frozenset(("", "?", "NA"))


def check_schema(qid_names, sensitive_name, categories, keys):
    """Check the schema of a table or a release, naming a faulty key by its index.

    The sensitive name is a string; QID names, categories and keys are
    tuples or lists of strings, never a str: distinct QID names, none equal
    to the sensitive name, 2 or more distinct categories, 1 or more
    distinct keys of one string per QID. Returns them as tuples, with the
    order that sorts the keys (None if sorted).
    """
    for name, names in (("qid_names", qid_names), ("categories", categories)):
        if type(names) not in (tuple, list) or not set(map(type, names)) <= {str}:
            raise ValueError(f"'{name}' must be a sequence of strings, got {_brief(names)}")
    if type(sensitive_name) is not str:
        raise ValueError(f"'sensitive_name' must be a string, got {_brief(sensitive_name)}")
    for i, name in enumerate(qid_names):
        if name in qid_names[:i]:
            raise ValueError(f"duplicate QID name {_brief(name)}")
    if sensitive_name in qid_names:
        raise ValueError(f"sensitive name {_brief(sensitive_name)} is also a QID name")
    if len(categories) < 2:
        raise ValueError("sensitive attribute must take at least 2 categories")
    if len(set(categories)) != len(categories):
        raise ValueError("duplicate sensitive categories")
    keys, n = tuple(keys), len(qid_names)
    if not keys:
        raise ValueError("table has no cells")
    if not (
        set(map(type, keys)) <= {tuple, list}
        and set(map(len, keys)) == {n}
        and set(map(type, chain.from_iterable(keys))) <= {str}
    ):
        for i, key in enumerate(keys):
            if type(key) not in (tuple, list) or len(key) != n or not set(map(type, key)) <= {str}:
                raise ValueError(f"cell {i}: 'key' must hold one string per QID, got {_brief(key)}")
    keys, order = tuple(map(tuple, keys)), None
    if not all(map(lt, keys, keys[1:])):
        order = sorted(range(len(keys)), key=keys.__getitem__)
        dup = next((keys[a] for a, b in zip(order, order[1:]) if keys[a] == keys[b]), None)
        if dup is not None:
            raise ValueError(f"duplicate cell key {_brief(dup)}")
    return tuple(qid_names), tuple(categories), keys, order


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
        self.qid_names, self.categories, keys, order = check_schema(
            qid_names, sensitive_name, categories, keys
        )
        self.sensitive_name = sensitive_name
        self.dropped_rows = dropped_rows
        if len(counts) != len(keys):
            raise ValueError("cell keys and counts differ in length")
        counts = check_cells(counts, len(self.categories), lambda i: f"cell {_brief(keys[i])}")
        sizes = counts.sum(axis=1)
        if order is not None:
            keys = tuple(map(keys.__getitem__, order))
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


# Rows parsed and coded at a time, and rows whose codes fill the buffer that is
# merged: between merges only the distinct values and code columns are kept.
_BATCH_ROWS, _CHUNK_ROWS = 1 << 12, 1 << 16


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
        if bound * card > INT64_MAX:
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
    keys, where = np.unique(_fold(both, cards), return_inverse=True)  # sorts unstably: faster
    first = np.empty(keys.size, np.intp)
    first[where] = np.arange(where.size)  # any column of a key stands for it: _fold is injective
    # float weights add up exactly: no input has 2**53 records
    weights = np.concatenate([tally, np.ones(codes.shape[1], np.int64)])
    return both.take(first, axis=1), np.bincount(where, weights).astype(np.int64)


@_gc_paused
def _tally(rows, header, memos, columns, lineno: int) -> FrequencyTable:
    """The frequency table of ``rows`` over the QID ``columns`` and then the sensitive one.

    ``_chunks``, which takes the same arguments, codes the rows 4,096 at a
    time into a buffer with one row per column of ``columns`` and one column
    per record. Every 2**16 records only the distinct code columns and their
    counts are kept, so memory grows with the distinct cells, not with the
    records. The table takes its names from ``header``.
    """
    seen = np.zeros((len(columns), 0), np.int64)
    tally = np.zeros(0, np.int64)
    labels = [memos[i].labels for i in columns]  # grown in place as the memos meet new values
    for codes in _chunks(rows, header, memos, columns, lineno):
        seen, tally = _merge(seen, tally, codes, list(map(len, labels)))

    complete = seen.all(axis=0)
    dropped = int(tally[~complete].sum())
    seen, tally = seen[:, complete], tally[complete]
    if not tally.size:
        raise ValueError("no complete rows to tabulate")
    present = sorted(set(seen[-1].tolist()), key=labels[-1].__getitem__)
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
    # each bound as :g writes it where that reads back exactly, else with more digits
    bounds = (k * width, (k + 1) * width)
    return "-".join(next(s for p in range(6, 18) if float(s := f"{b:.{p}g}") == b) for b in bounds)


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


def _chunks(rows, header, memos, columns, lineno: int):
    """Code arrays of ``columns`` for ``_tally``, one chunk of ``rows`` at a time.

    ``rows`` yields one sequence of fields per name in ``header``, the
    first of them numbered ``lineno``. ``memos`` holds the memo of every
    column to code: the used ones and any other whose fields must be
    checked. Rows are read and coded ``_BATCH_ROWS`` at a time, and a batch
    with a fault is replayed row by row, which raises the first fault in
    row order. The codes fill one int64 buffer of ``_CHUNK_ROWS`` records,
    yielded each time it is full and in part at the end.
    """
    rows, batch = iter(rows), []
    buffer, filled = np.empty((len(columns), _CHUNK_ROWS), np.int64), 0
    while True:
        try:
            batch.extend(islice(rows, min(_BATCH_ROWS, _CHUNK_ROWS - filled)))
        except (csv.Error, ValueError) as exc:
            # a fault in a row read before a parse or decode error comes first
            _first_fault(batch, header, memos, lineno)
            if isinstance(exc, csv.Error):  # not a ValueError: name the row that failed
                raise ValueError(f"{exc} at line {lineno + len(batch)}") from None
            raise
        if not batch:
            if filled:
                yield buffer[:, :filled]
            return
        n = len(batch)
        try:
            if set(map(len, batch)) != {len(header)}:
                raise ValueError("ragged row")
            codes = {i: memo.codes(map(itemgetter(i), batch), n) for i, memo in memos.items()}
        except ValueError:
            _first_fault(batch, header, memos, lineno)
            raise
        batch.clear()  # the rows are freed before a merge
        lineno += n
        buffer[:, filled : filled + n] = [codes[i] for i in columns]
        filled = (filled + n) % _CHUNK_ROWS
        if not filled:  # the buffer is full
            yield buffer


def cross_tabulate(column_names, rows, qid_columns, sensitive_column: str) -> FrequencyTable:
    """Build the QID-by-sensitive frequency table from in-memory rows.

    ``rows`` may be any iterable of sequences, each holding one value per
    name in ``column_names``; it is walked once, 4,096 rows at a time, as
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
    rows = ([None if v is None else str(v) for v in row] for row in rows)
    return _tally(rows, column_names, memos, columns, 1)


def tabulate_csv(path, qid_columns, sensitive_column: str, bins=()) -> FrequencyTable:
    """Cross-tabulate an RFC-4180-style delimited file with a header row.

    The file is read once, 4,096 rows at a time, and only the QID, the
    sensitive and the binned columns are looked at. Each distinct field of
    a column is cleaned once and coded as an integer into a buffer merged
    every 2**16 rows, so memory holds one batch of rows and one code buffer
    besides the distinct values and cells. The cyclic garbage collector is
    paused during the pass.

    Fields are compared after stripping whitespace; the tokens in
    ``MISSING_TOKENS`` ("", "?" and "NA") are missing in any column. Each
    ``(column, width)`` in ``bins`` replaces a numeric column by the label
    "lo-hi" of its lower-inclusive bin anchored at 0: value v falls in
    [k*width, (k+1)*width) with k = floor(v / width), each bound written as
    ``:g`` writes it unless that loses digits. A ragged row, and a
    binned value that does not parse or is not finite, raise with the line
    of the first such row and, for a value, its column, whether or not the
    column is tabulated. A row the csv module cannot parse (say, a field
    over its field size limit) raises ValueError with its line, unless an
    earlier row has one of those faults. A leading byte-order mark is dropped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    """Canonical single-line JSON; cells in lexicographic key order, as ``write_cells`` writes."""
    schema = (table.qid_names, table.sensitive_name, table.categories, table.keys())
    return write_cells(schema, (), "counts", "%d", table.counts)


def write_cells(schema, fields, field: str, fmt: str, values: np.ndarray) -> str:
    """Single-line JSON of a table-shaped document, as ``read_cells`` reads it.

    ``schema`` is (qid_names, sensitive_name, categories, keys); ``fields``
    holds the document's other fields, each a '"name":value' string, written
    after 'categories'; cell i's ``field`` holds row i of ``values``, each
    entry written by the %-format ``fmt``. The bytes are those of
    ``json.dumps(doc, separators=(",", ":"), ensure_ascii=False)``, written
    with one format string per cell.
    """
    qid_names, sensitive_name, categories, keys = schema
    enc = json.encoder.encode_basestring
    row = '{"key":[%s],"' + field + '":[' + ",".join([fmt] * len(categories)) + "]}"
    cells = ",".join(
        row % (",".join(map(enc, key)), *vals) for key, vals in zip(keys, values.tolist())
    )
    head = '"qid_names":[%s],"sensitive_name":%s,"categories":[%s]' % (
        ",".join(map(enc, qid_names)), enc(sensitive_name), ",".join(map(enc, categories))
    )
    return '{%s,"cells":[%s]}\n' % (",".join([head, *fields]), cells)


def read_cells(text: str, what: str, field: str, number_types) -> tuple[dict, tuple, list]:
    """Parse a table-shaped JSON document into (doc, schema, cell values).

    The document is an object with 'qid_names', 'sensitive_name', the list
    'categories' and the list 'cells'. Each cell is an object with a 'key'
    and a ``field`` that is a list of one number per category, a number
    being a value whose type is in ``number_types``. Types are compared
    exactly, since bool is a subclass of int; malformed values are
    rejected, never coerced. The cell checks run over the whole document
    at once, and only when they fail are the cells walked to name the
    first bad one. ``schema``, the names, categories and keys as read, is
    left to ``check_schema``. ``what`` names the format in messages.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("cells", []), list):
        raise ValueError(f"{what} must be an object whose 'cells' is a list")
    try:
        cells, categories = doc["cells"], doc["categories"]
        if type(categories) is not list:
            raise ValueError(f"{what} 'categories' must be a list, got {_brief(categories)}")
        k = len(categories)
        try:
            keys = list(map(itemgetter("key"), cells))
            values = list(map(itemgetter(field), cells))
            typed = (
                set(map(type, values)) <= {list}
                and set(map(len, values)) <= {k}
                and set(map(type, chain.from_iterable(values))) <= number_types
            )
        except (KeyError, TypeError):  # a missing field, or a cell that is not an object
            typed = False
        if not typed:
            noun = "numbers" if float in number_types else "integers"
            for i, cell in enumerate(cells):
                if not isinstance(cell, dict):
                    raise ValueError(f"{what} cell {i} is not an object")
                _, vals = cell["key"], cell[field]  # a missing 'key' is named first
                if type(vals) is not list or not set(map(type, vals)) <= number_types:
                    raise ValueError(
                        f"{what} cell {i}: '{field}' must be a list of {noun}, got {_brief(vals)}"
                    )
                if len(vals) != k:
                    raise ValueError(
                        f"{what} cell {i}: '{field}' must hold {k} values, got {_brief(vals)}"
                    )
        return doc, (doc["qid_names"], doc["sensitive_name"], categories, keys), values
    except KeyError as exc:
        raise ValueError(f"{what} is missing field {exc}") from None


def read_number(value, what: str, name: str, nullable: bool = False) -> float | None:
    """The JSON number ``value`` of field ``name`` as a float, a null as None if ``nullable``;
    a bool, a str or an integer beyond a double is refused. ``what`` names the format."""
    if value is None and nullable:
        return None
    if type(value) not in (int, float):
        noun = "a number or null" if nullable else "a number"
        raise ValueError(f"{what} '{name}' must be {noun}, got {_brief(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} '{name}' is too large for a double") from None


@_gc_paused  # the parse allocates a dict and two lists per cell
def table_from_json(text: str) -> FrequencyTable:
    """Parse the table JSON, whose cells hold 'counts', as ``read_cells`` reads it.

    The table checks then run over the whole counts array. Table reads
    dominate the closed-form workloads.
    """
    _, schema, counts = read_cells(text, "table JSON", "counts", {int})
    arr = np.array(counts)  # int64 unless a count lies beyond it: the list then names its cell
    counts = arr if arr.dtype == np.int64 else counts  # the list is freed before the checks
    return FrequencyTable(*schema, counts)


def read_table(path) -> FrequencyTable:
    with open(path, encoding="utf-8") as fh:
        return table_from_json(fh.read())
