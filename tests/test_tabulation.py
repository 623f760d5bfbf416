"""Ingestion, cross-tabulation, and the canonical table JSON format."""

import csv
import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from conftest import cells_of, make_table, write_table
from hadr import (
    FrequencyTable,
    cross_tabulate,
    read_table,
    tabulate_csv,
)
from hadr import PrivacyParams, mechanisms, read_sanitized, sanitize, tabulation
from hadr.mechanisms import SanitizedTable, sanitized_from_json, sanitized_to_json
from hadr.tabulation import _fold, _merge, check_schema, table_from_json, table_to_json

# (rows per batch, rows per chunk): 3 does not divide 7, 4 overruns a chunk of
# 2 unless a batch is capped by the room left in the chunk; then the defaults
BATCH_CHUNK = [
    pytest.param((batch, chunk), id=f"batch{batch}-chunk{chunk}")
    for batch, chunk in [(1, 1), (3, 7), (4, 2), (tabulation._BATCH_ROWS, tabulation._CHUNK_ROWS)]
]


def _batch_and_chunk(monkeypatch, batch_chunk):
    batch, chunk = batch_chunk
    monkeypatch.setattr(tabulation, "_BATCH_ROWS", batch)
    monkeypatch.setattr(tabulation, "_CHUNK_ROWS", chunk)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_basic(tmp_path):
    path = write_csv(tmp_path, "a,b,y\n1,x,u\n2,x,v\n")
    t = tabulate_csv(path, ["a", "b"], "y", bins=[("a", 1.0)])
    assert t.qid_names == ("a", "b") and t.sensitive_name == "y"
    assert t.categories == ("u", "v")
    assert cells_of(t) == {("1-2", "x"): (1, 0), ("2-3", "x"): (0, 1)}
    # a leading byte-order mark is dropped, as spreadsheet exports write one
    bom = write_csv(tmp_path, "\ufeffa,b,y\n1,x,u\n2,x,v\n", name="bom.csv")
    bom_table = tabulate_csv(bom, ["a", "b"], "y", bins=[("a", 1.0)])
    assert table_to_json(bom_table) == table_to_json(t)
    # while a U+FEFF inside a field is kept
    inner = write_csv(tmp_path, "\ufeffa,b,y\n1,\ufeffx,u\n2,x,v\n", name="inner.csv")
    assert ("1-2", "\ufeffx") in tabulate_csv(inner, ["a", "b"], "y", bins=[("a", 1.0)]).keys()


def test_load_csv_missing_header(tmp_path):
    path = write_csv(tmp_path, "")
    with pytest.raises(ValueError, match="header"):
        tabulate_csv(path, ["a"], "b")


def test_load_csv_ragged_row_names_line(tmp_path):
    path = write_csv(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="line 3"):
        tabulate_csv(path, ["a"], "b")


def test_load_csv_bad_number_names_column_and_line(tmp_path):
    path = write_csv(tmp_path, "a,b\n1,x\noops,y\n")
    with pytest.raises(ValueError, match="unparseable numeric value 'oops' in column 'a' at line 3"):
        tabulate_csv(path, ["b"], "a", bins=[("a", 1.0)])


def test_load_csv_missing_tokens(tmp_path):
    path = write_csv(tmp_path, "a,b\n?,x\n,y\nNA,z\n5,w\n6,x\n")
    t = tabulate_csv(path, ["a"], "b", bins=[("a", 1.0)])
    assert t.dropped_rows == 3
    assert cells_of(t) == {("5-6",): (1, 0), ("6-7",): (0, 1)}


def test_bin_numeric_labels(tmp_path):
    path = write_csv(tmp_path, "age,y\n17,u\n25,v\n,w\n")
    t = tabulate_csv(path, ["age"], "y", bins=[("age", 5.0)])
    assert cells_of(t) == {("15-20",): (1, 0), ("25-30",): (0, 1)}
    assert t.dropped_rows == 1


def test_bin_labels_keep_distinct_bins_apart(tmp_path):
    """With 6 significant digits both bins would be 1.23457e+06-1.23457e+06."""
    path = write_csv(tmp_path, "inc,y\n1234567,u\n1234568,v\n")
    t = tabulate_csv(path, ["inc"], "y", bins=[("inc", 1.0)])
    assert cells_of(t) == {("1234567-1234568",): (1, 0), ("1234568-1234569",): (0, 1)}
    # a bound is written as :g writes it wherever that reads back exactly
    path = write_csv(tmp_path, "inc,y\n1000010,u\n0.25,v\n", name="g.csv")
    t = tabulate_csv(path, ["inc"], "y", bins=[("inc", 10.0)])
    assert set(t.keys()) == {("1.00001e+06-1.00002e+06",), ("0-10",)}


def test_bin_numeric_rejects_bad_width(tmp_path):
    path = write_csv(tmp_path, "age,y\n17,u\n25,v\n")
    with pytest.raises(ValueError, match="width must be positive"):
        tabulate_csv(path, ["age"], "y", bins=[("age", 0.0)])
    with pytest.raises(ValueError, match="width must be finite"):
        tabulate_csv(path, ["age"], "y", bins=[("age", math.inf)])


def test_tabulate_csv_rejects_unknown_bin_column(tmp_path):
    path = write_csv(tmp_path, "age,y\n17,u\n25,v\n")
    with pytest.raises(ValueError, match="no column named 'height'"):
        tabulate_csv(path, ["age"], "y", bins=[("height", 5.0)])


def test_tabulate_csv_rejects_column_binned_twice(tmp_path):
    path = write_csv(tmp_path, "age,y\n17,u\n25,v\n")
    with pytest.raises(ValueError, match="'age' is binned twice"):
        tabulate_csv(path, ["age"], "y", bins=[("age", 5.0), ("age", 10.0)])


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400", "1e308"])
def test_tabulate_csv_rejects_non_finite_bin_values(tmp_path, value):
    """1e308 is finite, but its bin index at width 1e-10 is not."""
    path = write_csv(tmp_path, f"age,y\n17,u\n{value},v\n")
    message = f"no finite bin for value '{value}' in column 'age' at line 3"
    with pytest.raises(ValueError, match=message):
        tabulate_csv(path, ["y"], "age", bins=[("age", 1e-10)])


def test_tabulate_csv_parses_bins_of_unused_columns(tmp_path):
    path = write_csv(tmp_path, "g,h,y\na,1,u\nb,x,v\n")
    assert cells_of(tabulate_csv(path, ["g"], "y")) == {("a",): (1, 0), ("b",): (0, 1)}
    with pytest.raises(ValueError, match="'h' at line 3"):
        tabulate_csv(path, ["g"], "y", bins=[("h", 1.0)])


def _counted_by_hand(path, qids, sensitive, bins, missing=("", "?", "NA")):
    """{(key, category): count} and dropped rows, from csv and Counter alone."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = [h.strip() for h in rows[0]]
    tally, dropped = Counter(), 0
    for row in rows[1:]:
        rec = {h: (None if v.strip() in missing else v.strip()) for h, v in zip(header, row)}
        for col, width in bins:
            if rec[col] is not None:
                lo = math.floor(float(rec[col]) / width)
                rec[col] = f"{lo * width:g}-{(lo + 1) * width:g}"
        used = [rec[q] for q in qids] + [rec[sensitive]]
        if None in used:
            dropped += 1
        else:
            tally[tuple(used[:-1]), used[-1]] += 1
    return dict(tally), dropped


def _messy_csv(tmp_path):
    """400 rows with padded fields, missing tokens and negative ages."""
    rng = random.Random(20_260_418)
    tokens = ["", "?", "NA", " ? ", "  "]
    lines = ["age, zip ,note,y"]
    for _ in range(400):
        age = rng.choice(["-7.5", "-0.25", "0", " 3.75 ", "12", "19.999", "-2", "44.5"] + tokens)
        zip_ = rng.choice([" z1", "z2 ", " z3 ", "z1"] + tokens[:3])
        note = rng.choice(["ok", " x ", "oops"] + tokens)
        y = rng.choice(["u", " v", "w ", "u"] + tokens[:3])
        lines.append(f"{age},{zip_},{note},{y}")
    return write_csv(tmp_path, "\n".join(lines) + "\n")


def _check_against_hand_count(path, bins):
    t = tabulate_csv(path, ["age", "zip"], "y", bins=bins)
    truth, dropped = _counted_by_hand(path, ["age", "zip"], "y", bins)
    got = {
        (key, cat): n
        for key, counts in zip(t.keys(), t.counts.tolist())
        for cat, n in zip(t.categories, counts)
        if n
    }
    assert got == truth
    assert t.dropped_rows == dropped > 0
    assert t.categories == ("u", "v", "w")
    return t


def test_tabulate_csv_matches_hand_count_on_messy_input(tmp_path):
    t = _check_against_hand_count(_messy_csv(tmp_path), [("age", 2.5)])
    assert {"-7.5--5", "-2.5-0", "0-2.5", "17.5-20"} <= {key[0] for key in t.keys()}


@pytest.mark.parametrize("batch_chunk", BATCH_CHUNK)
def test_tabulate_csv_chunks_match_hand_count(tmp_path, monkeypatch, batch_chunk):
    _batch_and_chunk(monkeypatch, batch_chunk)
    path = _messy_csv(tmp_path)
    _check_against_hand_count(path, [("age", 2.5)])
    _check_against_hand_count(path, [])


def _faulty_csv(tmp_path, faults):
    """Columns a, b (both binned) and y over 30 rows; ``faults`` maps line to row."""
    lines = ["a,b,y"] + [f"{i % 5},{i % 3},{'uv'[i % 2]}" for i in range(30)]
    for lineno, row in faults.items():
        lines[lineno - 1] = row
    return write_csv(tmp_path, "\n".join(lines) + "\n")


@pytest.mark.parametrize("batch_chunk", BATCH_CHUNK)
@pytest.mark.parametrize(
    "faults,qids,message",
    [
        ({12: "1,2", 14: "x,1,u"}, ["a"], "ragged row at line 12: expected 3 fields, got 2"),
        ({12: "1,2,u,v", 14: "1"}, ["a"], "ragged row at line 12: expected 3 fields, got 4"),
        ({12: "1,oops,u", 14: "1"}, ["a"],
         "unparseable numeric value 'oops' in column 'b' at line 12"),
        # row order decides, not column order: b's fault on line 10 comes first
        ({10: "1,inf,u", 11: "nan,1,u"}, ["a", "b"],
         "no finite bin for value 'inf' in column 'b' at line 10"),
        ({10: "1, x ,u", 11: "1,2"}, ["a"],
         "unparseable numeric value 'x' in column 'b' at line 10"),
        ({25: "1,2"}, ["a", "b"], "ragged row at line 25: expected 3 fields, got 2"),
        # a fault in a row read before a parse error comes first
        ({11: "z,1,u", 13: "1,1," + "y" * 200_000}, ["a"],
         "unparseable numeric value 'z' in column 'a' at line 11"),
        # a parse error without an earlier fault names its own line
        ({13: "1,1," + "y" * 200_000}, ["a"],
         "field larger than field limit (131072) at line 13"),
    ],
)
def test_tabulate_csv_chunks_report_the_first_fault(
    tmp_path, monkeypatch, batch_chunk, faults, qids, message
):
    """The fault found first in row order is named, at any batch and chunk size."""
    _batch_and_chunk(monkeypatch, batch_chunk)
    path = _faulty_csv(tmp_path, faults)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tabulate_csv(path, qids, "y", bins=[("a", 1.0), ("b", 1.0)])


def test_csv_parse_error_in_the_header_is_a_value_error(tmp_path):
    path = _faulty_csv(tmp_path, {1: "a,b," + "y" * 200_000})
    with pytest.raises(ValueError, match=r"^field larger than field limit \(131072\) at line 1$"):
        tabulate_csv(path, ["a"], "y")


def test_cross_tabulate_counts_and_drops():
    rows = (("a", "u"), ("a", "u"), ("a", "v"), ("b", "u"), (None, "u"), ("b", None))
    t = cross_tabulate(("g", "y"), rows, ["g"], "y")
    assert t.dropped_rows == 2
    assert t.categories == ("u", "v")
    assert cells_of(t) == {("a",): (2, 1), ("b",): (1, 0)}


def test_cross_tabulate_validations():
    names, rows = ("g", "y"), (("a", "u"),)
    with pytest.raises(ValueError):
        cross_tabulate(names, rows, [], "y")
    with pytest.raises(ValueError):
        cross_tabulate(names, rows, ["g", "g"], "y")
    with pytest.raises(ValueError):
        cross_tabulate(names, rows, ["y"], "y")
    with pytest.raises(ValueError):
        cross_tabulate(names, rows, ["missing"], "y")
    # a single observed category cannot make a 2-category table
    with pytest.raises(ValueError):
        cross_tabulate(names, rows, ["g"], "y")


@pytest.mark.parametrize("batch_chunk", BATCH_CHUNK)
@pytest.mark.parametrize("bad,got", [(("b",), 1), (("b", "u", "w"), 3), ((), 0)])
def test_cross_tabulate_ragged_row_names_the_row(monkeypatch, batch_chunk, bad, got):
    """A row of the wrong length is named as a line, counted from 1, as in a CSV file."""
    _batch_and_chunk(monkeypatch, batch_chunk)
    rows = iter([("a", "u"), ("a", "v"), bad, ("b", "u"), ("c",)])
    message = f"^ragged row at line 3: expected 2 fields, got {got}$"
    with pytest.raises(ValueError, match=message):
        cross_tabulate(("g", "y"), rows, ["g"], "y")


@pytest.mark.parametrize("batch_chunk", BATCH_CHUNK)
def test_cross_tabulate_keys_are_str_of_values(monkeypatch, batch_chunk):
    """Values that compare equal but print differently stay apart."""
    _batch_and_chunk(monkeypatch, batch_chunk)
    rows = [(1, "u"), (1.0, "v"), (True, "u"), ("1", "v"), (0.0, "u"), (-0.0, "v"),
            (None, "u"), ("None", "v"), (2, 1), (2, 1.0), (2, "1")]
    t = cross_tabulate(("g", "y"), rows, ["g"], "y")
    assert t.categories == ("1", "1.0", "u", "v")
    assert cells_of(t) == {
        ("1",): (0, 0, 1, 1),
        ("1.0",): (0, 0, 0, 1),
        ("True",): (0, 0, 1, 0),
        ("0.0",): (0, 0, 1, 0),
        ("-0.0",): (0, 0, 0, 1),
        ("None",): (0, 0, 0, 1),
        ("2",): (2, 1, 0, 0),
    }
    assert t.dropped_rows == 1


def test_fold_keys_equal_where_columns_are_without_overflow():
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 3, size=(4, 200))
    for cards in ([3, 3, 3, 3], [2**40, 2**40, 3, 2**40]):  # the latter needs ranks
        key = _fold(codes, cards)
        assert key.min() >= 0
        _, pattern = np.unique(key, return_inverse=True)
        _, truth = np.unique(codes, axis=1, return_inverse=True)
        assert np.array_equal(pattern, truth.ravel())


@pytest.mark.parametrize("cards", [[3, 4, 2], [2**40, 2**40, 3, 2**40]])  # the latter needs ranks
def test_merge_counts_each_distinct_column_over_any_chunking(cards):
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 400))
        codes = rng.integers(0, np.minimum(cards, 3)[:, None], size=(len(cards), n))
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 4), replace=False))
        seen, tally = np.zeros((len(cards), 0), np.int64), np.zeros(0, np.int64)
        for chunk in np.split(codes, cuts, axis=1):
            seen, tally = _merge(seen, tally, chunk, cards)
        assert tally.dtype == np.int64
        merged = Counter(dict(zip(map(tuple, seen.T.tolist()), tally.tolist())))
        assert len(merged) == seen.shape[1]  # each column once
        assert merged == Counter(map(tuple, codes.T.tolist()))


def test_table_invariants():
    with pytest.raises(ValueError):
        FrequencyTable(
            qid_names=("g",),
            sensitive_name="y",
            categories=("u",),
            keys=[("a",)],
            counts=[(1,)],
        )
    with pytest.raises(ValueError, match="duplicate"):
        FrequencyTable(
            qid_names=("g",),
            sensitive_name="y",
            categories=("u", "v"),
            keys=[("a",), ("a",)],
            counts=[(1, 0), (0, 1)],
        )
    with pytest.raises(ValueError):
        FrequencyTable(
            qid_names=("g",),
            sensitive_name="y",
            categories=("u", "v"),
            keys=[("a",)],
            counts=[(0, 0)],
        )


def test_cells_sorted_canonically():
    t = FrequencyTable(
        qid_names=("g",),
        sensitive_name="y",
        categories=("u", "v"),
        keys=[("b",), ("a",)],
        counts=[(1, 0), (0, 2)],
    )
    assert t.keys() == (("a",), ("b",))


def test_json_round_trip_bytes(tmp_path):
    t = make_table([(3, 1), (0, 7), (2, 2)])
    path = tmp_path / "t.json"
    write_table(t, path)
    text = path.read_text()
    assert text.endswith("\n")
    t2 = read_table(path)
    assert t2 == t
    assert table_to_json(t2) == text


def test_table_from_json_missing_field():
    with pytest.raises(ValueError, match="cells"):
        table_from_json(json.dumps({"qid_names": ["g"], "sensitive_name": "y", "categories": ["a", "b"]}))


@pytest.mark.parametrize(
    "cell,field",
    [
        ({"key": ["a"], "counts": [2.7, 1]}, "counts"),
        ({"key": ["a"], "counts": [True, 1]}, "counts"),
        ({"key": ["a"], "counts": 3}, "counts"),
        ({"key": ["a"], "counts": "31"}, "counts"),
        ({"key": 3, "counts": [2, 1]}, "key"),
        ({"key": ["a", 3], "counts": [2, 1]}, "key"),
        ("a", "not an object"),
    ],
)
def test_table_from_json_rejects_malformed_cell(cell, field):
    doc = {
        "qid_names": ["g"],
        "sensitive_name": "y",
        "categories": ["u", "v"],
        "cells": [{"key": ["b"], "counts": [1, 0]}, cell],
    }
    with pytest.raises(ValueError, match=f"cell 1.*{field}"):
        table_from_json(json.dumps(doc))


def test_table_from_json_rejects_non_object():
    for text in ("[]", '{"cells": 3}'):
        with pytest.raises(ValueError, match="object"):
            table_from_json(text)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("qid_names", "g", "'qid_names' must be a"),
        ("categories", "y0y1", "'categories' must be a"),
        ("categories", ["y0", 1], "'categories' must be a"),
        ("sensitive_name", 5, "'sensitive_name' must be a"),
        ("qid_names", ["g", "g"], r"^duplicate QID name 'g'$"),
        ("sensitive_name", "g", r"^sensitive name 'g' is also a QID name$"),
    ],
)
def test_table_from_json_rejects_mistyped_names(field, value, message):
    doc = json.loads(table_to_json(make_table([(3, 1)])))
    doc[field] = value  # a string would otherwise split into characters
    with pytest.raises(ValueError, match=message):
        table_from_json(json.dumps(doc))


def _table_doc():
    return json.loads(table_to_json(make_table([(3, 1), (0, 7)])))


def _sanitized_doc():
    table = make_table([(3, 1), (0, 7)])
    return json.loads(sanitized_to_json(sanitize(table, PrivacyParams("laplace", 1.0), seed=9)))


# what check_schema says of a key that is not a sequence of one string per QID
KEY_RULE = "'key' must hold one string per QID"

# format: (reader, document, its name in messages, the cell field, its noun)
JSON_FORMATS = {
    "table": (table_from_json, _table_doc, "table JSON", "counts", "integers"),
    "sanitized": (
        sanitized_from_json, _sanitized_doc, "sanitized table JSON", "noisy_counts", "numbers"
    ),
}


@pytest.mark.parametrize(
    "cell,message",
    [
        ("c1", "{what} cell 1 is not an object"),
        ({"key": 3, "v": [1, 2]}, f"cell 1: {KEY_RULE}, got 3"),
        ({"key": ["c1", 3], "v": [1, 2]}, f"cell 1: {KEY_RULE}, got ['c1', 3]"),
        ({"key": ["c1"], "v": "12"}, "{what} cell 1: '{field}' must be a list of {noun}, got '12'"),
        (
            {"key": ["c1"], "v": [True, 2]},
            "{what} cell 1: '{field}' must be a list of {noun}, got [True, 2]",
        ),
        (
            {"key": ["c1"], "v": [1, None]},
            "{what} cell 1: '{field}' must be a list of {noun}, got [1, None]",
        ),
        ({"key": ["c1"], "v": [1]}, "{what} cell 1: '{field}' must hold 2 values, got [1]"),
        (
            {"key": ["c1"], "v": [1, 2, 3]},
            "{what} cell 1: '{field}' must hold 2 values, got [1, 2, 3]",
        ),
        ({"key": ["c1"]}, "{what} is missing field '{field}'"),
        ({"v": [1, 2]}, "{what} is missing field 'key'"),
    ],
    ids=["not-object", "key-int", "key-holds-int", "values-str", "values-bool", "values-null",
         "values-short", "values-long", "no-values", "no-key"],
)
@pytest.mark.parametrize("later_fault", [False, True])
@pytest.mark.parametrize("fmt", list(JSON_FORMATS))
def test_json_readers_name_the_first_malformed_cell(fmt, later_fault, cell, message):
    """Table and sanitized JSON share one cell reader and one schema check, and so
    one set of messages.

    Alone, the bad cell must fail the whole-document checks; with a later
    cell that fails the same check (the reader's, or for a key the
    schema's), the walk must still report the first.
    """
    read, make_doc, what, field, noun = JSON_FORMATS[fmt]
    doc = make_doc()
    if isinstance(cell, dict):
        cell = {field if name == "v" else name: value for name, value in cell.items()}
    doc["cells"][1] = cell
    if later_fault:
        doc["cells"].append("c2" if message.startswith("{what}") else {"key": [2], field: [1, 2]})
    with pytest.raises(ValueError) as exc:
        read(json.dumps(doc))
    assert str(exc.value) == message.format(what=what, field=field, noun=noun)


@pytest.mark.parametrize("fmt", list(JSON_FORMATS))
def test_json_readers_refuse_deeply_nested_documents(fmt):
    """A document nested too deeply for the JSON decoder is a ValueError naming
    the format, not a RecursionError."""
    read, _, what, _, _ = JSON_FORMATS[fmt]
    with pytest.raises(ValueError) as exc:
        read("[" * 100_000)  # far beyond any interpreter's recursion limit
    assert str(exc.value) == f"{what} is nested too deeply"


def test_a_read_checks_the_schema_once(tmp_path, monkeypatch):
    """read_table and read_sanitized each run check_schema once, in the constructor."""
    calls = []

    def counted(*args):
        calls.append(args)
        return check_schema(*args)

    table = make_table([(3, 1), (0, 7)])
    write_table(table, tmp_path / "t.json")
    release = sanitized_to_json(sanitize(table, PrivacyParams("laplace", 1.0), 9))
    (tmp_path / "s.json").write_text(release, encoding="utf-8")
    monkeypatch.setattr(tabulation, "check_schema", counted)
    monkeypatch.setattr(mechanisms, "check_schema", counted)
    assert read_table(tmp_path / "t.json") == table and len(calls) == 1
    assert read_sanitized(tmp_path / "s.json").keys == table.keys() and len(calls) == 2


def expand_table(table: FrequencyTable) -> list:
    """Inverse of cross_tabulate up to row order: one row per record."""
    rows = []
    for key, counts in zip(table.keys(), table.counts.tolist()):
        for k, c in enumerate(counts):
            rows.extend([list(key) + [table.categories[k]]] * c)
    return rows


def test_expand_table_inverse():
    t = make_table([(3, 1), (0, 7)])
    rows = expand_table(t)
    names = list(t.qid_names) + [t.sensitive_name]
    t2 = cross_tabulate(names, rows, list(t.qid_names), t.sensitive_name)
    assert cells_of(t2) == cells_of(t)
    assert t2.categories == t.categories
    assert len(rows) == int(t.sizes().sum())


def test_counts_matrix_and_sizes():
    t = make_table([(3, 1), (0, 7)])
    assert t.counts.dtype == np.int64
    assert t.counts.tolist() == [[3, 1], [0, 7]]
    assert t.sizes().tolist() == [4, 7]
    assert t.n_cells == 2 and t.n_categories == 2


def test_counts_are_one_read_only_array():
    t = make_table([(3, 1), (0, 7)])
    assert t.sizes() is t.sizes()
    with pytest.raises(ValueError, match="read-only"):
        t.counts[0, 0] = 5
    with pytest.raises(ValueError, match="read-only"):
        t.sizes()[0] = 5
    assert t.counts.tolist() == [[3, 1], [0, 7]]


def test_constructor_copies_its_counts():
    counts = np.array([[3, 1], [0, 7]])
    t = FrequencyTable(("g",), "y", ("u", "v"), [("a",), ("b",)], counts)
    counts[0, 0] = 9
    assert t.counts.tolist() == [[3, 1], [0, 7]] and counts.flags.writeable


def test_unsorted_input_sorted_with_rows_permuted():
    keys = [("b", "x"), ("a", "z"), ("b", "a"), ("a", "y")]
    counts = [(1, 0, 0), (0, 2, 0), (0, 0, 3), (4, 4, 0)]
    t = FrequencyTable(("g", "h"), "y", ("u", "v", "w"), keys, counts)
    assert t.keys() == (("a", "y"), ("a", "z"), ("b", "a"), ("b", "x"))
    assert t.counts.tolist() == [[4, 4, 0], [0, 2, 0], [0, 0, 3], [1, 0, 0]]
    assert t.sizes().tolist() == [8, 2, 3, 1]
    assert t == FrequencyTable(("g", "h"), "y", ("u", "v", "w"), t.keys(), t.counts)


def test_duplicate_key_found_after_sorting():
    with pytest.raises(ValueError, match=r"^duplicate cell key \('b',\)$"):
        FrequencyTable(("g",), "y", ("u", "v"), [("b",), ("a",), ("b",)], [(1, 0), (0, 1), (2, 2)])


# a list is checked entry by entry, so True is refused rather than read as 1;
# an array of another dtype than signed integer is too
NOT_COUNT = r"^cell \('a',\) counts must be non-negative integers"


# (keys, counts, message) of a table whose counts break a rule only a table has
COUNT_FAULTS = [
    ([("a",)], [(1, 0), (0, 1)], "keys and counts differ in length"),
    ([("a",), ("b",)], [(1, 0), (1,)], "counts length does not match categories"),
    ([("a",)], np.ones((1, 3), dtype=int), "counts length does not match categories"),
    ([("a",)], [(1.0, 2)], "non-negative integers"),
    ([("a",)], [("1", 2)], "non-negative integers"),
    ([("a",)], [(-1, 2)], "non-negative integers"),
    ([("a",)], [(-(2**70), 2)], "non-negative integers"),
    ([("a",)], [(True, 2)], NOT_COUNT + ", got True$"),
    ([("a",)], [(True, False)], NOT_COUNT + ", got True$"),
    ([("a",)], [(np.True_, 2)], NOT_COUNT),
    ([("a",)], np.array([[True, True]]), NOT_COUNT),
    ([("a",)], np.array([[1.0, 2.0]]), NOT_COUNT),
    ([("a",)], np.array([[-1, 2]]), r"^cell counts must be non-negative integers$"),
    ([("b",), ("a",)], [(1, 0), (0, 0)], r"^cell \('a',\) is empty$"),
    ([("a",)], [(2**63, 0)], r"^cell \('a',\) has a count that does not fit int64$"),
    ([("a",)], np.array([[2**63, 0]], dtype=np.uint64), "count that does not fit int64"),
    ([("a",)], [(2**62, 2**62)], r"^cell \('a',\) has a size that does not fit int64$"),
]

# (schema fields that differ from a valid one-cell table, message): rules that a
# release obeys as well, since both constructors call check_schema
SCHEMA_FAULTS = [
    (dict(keys=[]), r"^table has no cells$"),
    (dict(keys=[("a", "b")]), rf"^cell 0: {KEY_RULE}, got \('a', 'b'\)$"),
    (dict(keys=[(1,)]), rf"^cell 0: {KEY_RULE}, got \(1,\)$"),
    (dict(keys=[("a",), (None,)]), rf"^cell 1: {KEY_RULE}, got \(None,\)$"),
    # a str is refused, never split into characters
    (
        dict(qid_names="gh", categories="uv", keys=["ab"]),
        r"^'qid_names' must be a sequence of strings, got 'gh'$",
    ),
    (dict(categories="uv"), r"^'categories' must be a sequence of strings, got 'uv'$"),
    (dict(qid_names=("g", "h"), keys=["ab"]), rf"^cell 0: {KEY_RULE}, got 'ab'$"),
    (dict(sensitive_name=5, categories=(1, 2)), r"^'categories' must be a sequence of strings"),
    (dict(sensitive_name=5), r"^'sensitive_name' must be a string, got 5$"),
    (dict(categories=("u",)), r"^sensitive attribute must take at least 2 categories$"),
    (dict(categories=("u", "u")), r"^duplicate sensitive categories$"),
    (dict(keys=[("a",), ("a",)]), r"^duplicate cell key \('a',\)$"),
    (dict(qid_names=("g", "g"), keys=[("a", "b")]), r"^duplicate QID name 'g'$"),
    (dict(sensitive_name="g"), r"^sensitive name 'g' is also a QID name$"),
]


@pytest.mark.parametrize(
    "fields,message",
    [(dict(keys=k, counts=c), m) for k, c, m in COUNT_FAULTS] + SCHEMA_FAULTS,
)
def test_constructor_rejects(fields, message):
    """A table refuses each fault, and a release each schema fault, with the same message."""
    args = dict(qid_names=("g",), sensitive_name="y", categories=("u", "v"), keys=[("a",)])
    args = {**args, "counts": [(1, 2)], **fields}
    with pytest.raises(ValueError, match=message):
        FrequencyTable(**args)
    if "counts" not in fields:
        del args["counts"]
        noisy = np.ones((len(args["keys"]), 2))
        with pytest.raises(ValueError, match=message):
            SanitizedTable(**args, noisy=noisy, params=PrivacyParams("laplace", 1.0), seed=3)


def test_largest_int64_size_accepted():
    t = FrequencyTable(("g",), "y", ("u", "v"), [("a",)], [(2**63 - 2, 1)])
    assert t.sizes().tolist() == [2**63 - 1]


@pytest.mark.parametrize(
    "counts,message",
    [
        ([2**70, 1], r"cell \('b',\) has a count that does not fit int64"),
        ([2**63, 0], r"cell \('b',\) has a count that does not fit int64"),
        ([-1, 2**63], r"cell \('b',\) counts must be non-negative integers, got -1"),
        ([2**62, 2**62], r"cell \('b',\) has a size that does not fit int64"),
    ],
)
def test_table_from_json_rejects_counts_beyond_int64(counts, message):
    doc = {
        "qid_names": ["g"],
        "sensitive_name": "y",
        "categories": ["u", "v"],
        "cells": [{"key": ["a"], "counts": [1, 0]}, {"key": ["b"], "counts": counts}],
    }
    with pytest.raises(ValueError, match=message):
        table_from_json(json.dumps(doc))


def test_table_from_json_names_the_first_bad_cell():
    doc = {
        "qid_names": ["g"],
        "sensitive_name": "y",
        "categories": ["u", "v"],
        "cells": [
            {"key": ["a"], "counts": [1, 0]},
            {"key": ["b"], "counts": [1, None]},
            {"key": ["c"]},
            "d",
        ],
    }
    with pytest.raises(ValueError) as exc:
        table_from_json(json.dumps(doc))
    assert str(exc.value) == "table JSON cell 1: 'counts' must be a list of integers, got [1, None]"
    del doc["cells"][1]
    with pytest.raises(ValueError, match="^table JSON is missing field 'counts'$"):
        table_from_json(json.dumps(doc))


def test_json_bytes_match_json_dumps_and_round_trip():
    keys = [("a9", 'q"uote'), ("a10", "back\\slash"), ("", "tab\tnew\nline"), ("é✓", "100%"),
            ("\x00", " "), ("ab", "c"), ("a", "bc")]
    counts = [(i, 2 * i + 1, 0) for i in range(len(keys))]
    t = FrequencyTable(("q1", "q²"), "ÿ", ("u", "v", "w"), keys, counts)
    doc = {
        "qid_names": list(t.qid_names),
        "sensitive_name": t.sensitive_name,
        "categories": list(t.categories),
        "cells": [{"key": list(k), "counts": c} for k, c in zip(t.keys(), t.counts.tolist())],
    }
    text = table_to_json(t)
    assert text == json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n"
    t2 = table_from_json(text)
    assert t2 == t and t2.keys() == t.keys()
    assert t2 != make_table([(1, 2, 3)]) and t != "not a table"


def test_constructor_rejects_repeated_categories():
    with pytest.raises(ValueError, match=r"^duplicate sensitive categories$"):
        FrequencyTable(("g",), "y", ("u", "u"), [("a",)], [(1, 0)])


def test_tabulate_csv_refuses_input_without_a_complete_row(tmp_path):
    (tmp_path / "holes.csv").write_text("g,y\na,\n,u\n")
    with pytest.raises(ValueError, match=r"^no complete rows to tabulate$"):
        tabulate_csv(tmp_path / "holes.csv", ["g"], "y")
