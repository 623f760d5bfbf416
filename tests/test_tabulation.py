"""Ingestion, cross-tabulation, and the canonical table JSON format."""

import json

import numpy as np
import pytest

from conftest import make_table
from hadr import (
    CellRecord,
    FrequencyTable,
    bin_numeric,
    classify_cell,
    cross_tabulate,
    expand_table,
    load_csv,
    read_table,
    write_table,
)
from hadr.tabulation import RawDataset, table_from_json, table_to_json


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_csv_basic(tmp_path):
    path = write_csv(tmp_path, "a,b,y\n1,x,u\n2,x,v\n")
    ds = load_csv(path, numeric_columns=["a"])
    assert ds.column_names == ["a", "b", "y"]
    assert ds.rows[0] == [1.0, "x", "u"]


def test_load_csv_missing_header(tmp_path):
    path = write_csv(tmp_path, "")
    with pytest.raises(ValueError, match="header"):
        load_csv(path)


def test_load_csv_ragged_row_names_line(tmp_path):
    path = write_csv(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(path)


def test_load_csv_bad_number_names_column_and_line(tmp_path):
    path = write_csv(tmp_path, "a,b\n1,x\noops,y\n")
    with pytest.raises(ValueError, match="'a'.*line 3"):
        load_csv(path, numeric_columns=["a"])


def test_load_csv_missing_tokens(tmp_path):
    path = write_csv(tmp_path, "a,b\n?,x\n,y\nNA,z\n5,w\n")
    ds = load_csv(path, numeric_columns=["a"])
    assert [r[0] for r in ds.rows] == [None, None, None, 5.0]
    assert ds.rows[3] == [5.0, "w"]


def test_bin_numeric_labels():
    ds = RawDataset(column_names=("age", "y"), rows=((17.0, "u"), (25.0, "v"), (None, "w")))
    out = bin_numeric(ds, "age", 5.0)
    assert out.rows[0][0] == "15-20"
    assert out.rows[1][0] == "25-30"
    assert out.rows[2][0] is None


def test_bin_numeric_rejects_bad_width():
    ds = RawDataset(column_names=("age",), rows=((17.0,),))
    with pytest.raises(ValueError):
        bin_numeric(ds, "age", 0.0)


def test_cross_tabulate_counts_and_drops():
    ds = RawDataset(
        column_names=("g", "y"),
        rows=(("a", "u"), ("a", "u"), ("a", "v"), ("b", "u"), (None, "u"), ("b", None)),
    )
    t = cross_tabulate(ds, ["g"], "y")
    assert t.dropped_rows == 2
    assert t.categories == ("u", "v")
    assert {c.key: c.counts for c in t.cells} == {("a",): (2, 1), ("b",): (1, 0)}


def test_cross_tabulate_validations():
    ds = RawDataset(column_names=("g", "y"), rows=(("a", "u"),))
    with pytest.raises(ValueError):
        cross_tabulate(ds, [], "y")
    with pytest.raises(ValueError):
        cross_tabulate(ds, ["g", "g"], "y")
    with pytest.raises(ValueError):
        cross_tabulate(ds, ["y"], "y")
    with pytest.raises(ValueError):
        cross_tabulate(ds, ["missing"], "y")
    # a single observed category cannot make a 2-category table
    with pytest.raises(ValueError):
        cross_tabulate(ds, ["g"], "y")


def test_table_invariants():
    with pytest.raises(ValueError):
        FrequencyTable(
            qid_names=("g",),
            sensitive_name="y",
            categories=("u",),
            cells=(CellRecord(key=("a",), counts=(1,)),),
        )
    with pytest.raises(ValueError, match="duplicate"):
        FrequencyTable(
            qid_names=("g",),
            sensitive_name="y",
            categories=("u", "v"),
            cells=(
                CellRecord(key=("a",), counts=(1, 0)),
                CellRecord(key=("a",), counts=(0, 1)),
            ),
        )
    with pytest.raises(ValueError):
        FrequencyTable(
            qid_names=("g",),
            sensitive_name="y",
            categories=("u", "v"),
            cells=(CellRecord(key=("a",), counts=(0, 0)),),
        )


def test_cells_sorted_canonically():
    t = FrequencyTable(
        qid_names=("g",),
        sensitive_name="y",
        categories=("u", "v"),
        cells=(
            CellRecord(key=("b",), counts=(1, 0)),
            CellRecord(key=("a",), counts=(0, 2)),
        ),
    )
    assert [c.key for c in t.cells] == [("a",), ("b",)]


def test_classify_cell():
    hom = classify_cell(CellRecord(key=("a",), counts=(0, 5)))
    assert hom.homogeneous and hom.category == 1
    het = classify_cell(CellRecord(key=("a",), counts=(2, 5)))
    assert not het.homogeneous and het.support == (0, 1)


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
    "field,value",
    [("qid_names", "g"), ("categories", "y0y1"), ("categories", ["y0", 1]), ("sensitive_name", 5)],
)
def test_table_from_json_rejects_mistyped_names(field, value):
    doc = json.loads(table_to_json(make_table([(3, 1)])))
    doc[field] = value  # a string would otherwise split into characters
    with pytest.raises(ValueError, match=f"'{field}' must be a"):
        table_from_json(json.dumps(doc))


def test_expand_table_inverse():
    t = make_table([(3, 1), (0, 7)])
    ds = expand_table(t)
    t2 = cross_tabulate(ds, list(t.qid_names), t.sensitive_name)
    assert {c.key: c.counts for c in t2.cells} == {c.key: c.counts for c in t.cells}
    assert t2.categories == t.categories
    assert len(ds.rows) == int(t.sizes().sum())


def test_counts_matrix_and_sizes():
    t = make_table([(3, 1), (0, 7)])
    assert t.counts_matrix().dtype == np.int64
    assert t.counts_matrix().tolist() == [[3, 1], [0, 7]]
    assert t.sizes().tolist() == [4, 7]
    assert t.n_cells == 2 and t.n_categories == 2
