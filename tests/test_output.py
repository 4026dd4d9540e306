"""Result writers: cell formatting and byte layout."""

import numpy as np
import pytest

from lmg_otoc.output import (ResultTable, emit_heatmap_dat, emit_line_dat,
                             format_number, write_csv)


def test_columns_write_none_and_nan_blank_and_ints_and_bools_as_str(tmp_path):
    floats = np.array([0.1, np.nan, -2.5e-300, np.inf])
    table = ResultTable(
        columns=("i", "flag", "x", "y", "label"),
        units=("index", "", "dimensionless", "dimensionless", "name"),
        data=(range(4), [True, False, True, False], floats,
              [None, 1.0, float("nan"), 3], ["a", "", "c", "d"]))
    path = tmp_path / "t.csv"
    write_csv(path, table)
    assert path.read_text() == (
        "# units: i[index], flag, x[dimensionless], y[dimensionless], label[name]\n"
        "i,flag,x,y,label\n"
        "0,True,0.1,,a\n"
        "1,False,,1.0,\n"
        "2,True,-2.5e-300,,c\n"
        "3,False,inf,3,d\n")


@pytest.mark.parametrize("values", [
    np.array([0.1, 1 / 3, -0.0, np.nan, 1e300, 5e-324]),
    np.linspace(-1.0, 1.0, 7)[::2],                 # strided view
    np.array([0.25, 2.0], dtype=np.float32),
])
def test_float_arrays_write_as_format_number_does(tmp_path, values):
    path = tmp_path / "xy.dat"
    emit_line_dat(path, values, values[::-1])
    want = "".join(f"{format_number(x)} {format_number(y)}\n"
                   for x, y in zip(values, values[::-1]))
    assert path.read_text() == want


def test_tables_from_rows_and_from_columns_write_the_same_bytes(tmp_path):
    rows = [(0.2, 0.0, 1.0), (0.2, 0.5, 0.75), (0.4, 0.0, 1.0)]
    by_rows = ResultTable.from_rows(("alpha", "lambda", "v"), ("", "", ""), rows)
    by_columns = ResultTable(("alpha", "lambda", "v"), ("", "", ""),
                             data=tuple(np.array(c) for c in zip(*rows)))
    for name, table in (("rows", by_rows), ("columns", by_columns)):
        write_csv(tmp_path / f"{name}.csv", table)
        emit_heatmap_dat(tmp_path / f"{name}.dat", table)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "columns.csv").read_bytes()
    assert (tmp_path / "rows.dat").read_text() == (
        "0.2 0.0 1.0\n0.2 0.5 0.75\n\n0.4 0.0 1.0\n")
    assert (tmp_path / "columns.dat").read_bytes() == (tmp_path / "rows.dat").read_bytes()
    empty = ResultTable.from_rows(("a", "b"), ("", ""), [])
    write_csv(tmp_path / "empty.csv", empty)
    assert (tmp_path / "empty.csv").read_text() == "# units: a, b\na,b\n"


def test_ragged_tables_are_refused():
    with pytest.raises(ValueError):
        ResultTable(("a", "b"), ("", ""), data=([1, 2], [3]))
    with pytest.raises(ValueError):
        ResultTable.from_rows(("a", "b"), ("", ""), [(1, 2), (3,)])
    with pytest.raises(ValueError):
        ResultTable(("a", "b"), ("", ""), data=([1, 2],))
