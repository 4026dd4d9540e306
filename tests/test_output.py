"""Result writers: cell formatting and byte layout."""

import numpy as np
import pytest

from lmg_otoc.output import (emit_heatmap_dat, emit_line_dat, format_column,
                             format_number, write_csv, write_svg_line)


def test_columns_write_none_and_nan_blank_and_ints_and_bools_as_str(tmp_path):
    floats = np.array([0.1, np.nan, -2.5e-300, np.inf])
    path = tmp_path / "t.csv"
    write_csv(path, ("i", "flag", "x", "y", "label"),
              ("index", "", "dimensionless", "dimensionless", "name"),
              (range(4), [True, False, True, False], floats,
               [None, 1.0, float("nan"), 3], ["a", "", "c", "d"]))
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


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_integer_arrays_write_as_integers(tmp_path, dtype):
    values = np.array([16, -24, 0], dtype=dtype)
    assert format_column(values) == ["16", "-24", "0"]
    write_csv(tmp_path / "n.csv", ("n",), ("count",), (values,))
    assert (tmp_path / "n.csv").read_text() == "# units: n[count]\nn\n16\n-24\n0\n"


@pytest.mark.parametrize("xs, ys, values, want", [
    ((0.2, 0.4), (0.0, 0.5), [[1.0, 0.75], [1.0, 0.5]],
     "0.2 0.0 1.0\n0.2 0.5 0.75\n\n0.4 0.0 1.0\n0.4 0.5 0.5\n"),
    (np.array([0.2, 0.4]), np.array([0.0, 0.5]), np.array([[1.0, 0.75], [1.0, 0.5]]),
     "0.2 0.0 1.0\n0.2 0.5 0.75\n\n0.4 0.0 1.0\n0.4 0.5 0.5\n"),
    # a repeated x is a row of its own; NaN is written blank
    ([0.4, 0.4], [0.0, 1.0], np.array([[1.0, np.nan], [1.0, 0.5]]),
     "0.4 0.0 1.0\n0.4 1.0 \n\n0.4 0.0 1.0\n0.4 1.0 0.5\n"),
    ([], [0.0, 1.0], np.empty((0, 2)), "\n"),
], ids=["sequences", "arrays", "repeated-x", "no-rows"])
def test_heatmap_writes_one_block_per_row_of_the_grid(tmp_path, xs, ys, values, want):
    path = tmp_path / "heat.dat"
    emit_heatmap_dat(path, xs, ys, values)
    assert path.read_text() == want


def test_an_empty_table_writes_its_header_only(tmp_path):
    write_csv(tmp_path / "empty.csv", ("a", "b"), ("", ""), ((), ()))
    assert (tmp_path / "empty.csv").read_text() == "# units: a, b\na,b\n"


def test_ragged_tables_are_refused(tmp_path):
    for units, data in ((("", ""), ([1, 2], [3])),          # ragged columns
                        (("", ""), ([1, 2],)),              # a column without values
                        (("",), ([1, 2], [3, 4]))):         # a column without a unit
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", ("a", "b"), units, data)
        assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("xs, ys, values", [
    ([0.2, 0.4], [0.0, 0.5], [[1.0, 0.75]]),                  # a row missing
    ([0.2], [0.0, 0.5], [[1.0, 0.75, 0.5]]),                  # a value too many
    ([0.2, 0.4], [0.0], [1.0, 0.5]),                          # not a grid
])
def test_heatmap_refuses_values_that_do_not_match_the_axes(tmp_path, xs, ys, values):
    with pytest.raises(ValueError):
        emit_heatmap_dat(tmp_path / "bad.dat", xs, ys, values)
    assert not (tmp_path / "bad.dat").exists()


def test_preformatted_columns_write_the_same_bytes(tmp_path):
    t = np.arange(7) * 0.05
    f = np.array([1.0, 0.5, np.nan, -1 / 3, 1e-300, -0.0, 2.0])
    units = ("time", "dimensionless")
    for name, (xs, ys) in (("arrays", (t, f)),
                           ("cells", (format_column(t), format_column(f)))):
        write_csv(tmp_path / f"{name}.csv", ("t", "re_f"), units, (xs, ys))
        emit_line_dat(tmp_path / f"{name}.dat", xs, ys)
    for suffix in ("csv", "dat"):
        assert ((tmp_path / f"cells.{suffix}").read_bytes()
                == (tmp_path / f"arrays.{suffix}").read_bytes())


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 10000])
def test_long_tables_write_the_bytes_of_one_join(tmp_path, rows):
    t = np.arange(rows) * 0.05
    f = np.cos(t) / 3
    write_csv(tmp_path / "t.csv", ("t", "re_f"), ("time", ""), (t, f))
    emit_line_dat(tmp_path / "t.dat", t, f)
    csv_lines = ["# units: t[time], re_f", "t,re_f"]
    csv_lines += [f"{x!r},{y!r}" for x, y in zip(t.tolist(), f.tolist())]
    dat_lines = [f"{x!r} {y!r}" for x, y in zip(t.tolist(), f.tolist())]
    assert (tmp_path / "t.csv").read_text() == "\n".join(csv_lines) + "\n"
    assert (tmp_path / "t.dat").read_text() == "\n".join(dat_lines) + "\n"


def _points_per_point(xs, ys):
    """The polyline of write_svg_line as it was computed one point at a time."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    width, height = 640.0, 420.0
    ml, mr, mt, mb = 70.0, 20.0, 30.0, 50.0
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    return " ".join(f"{px(x):.6g},{py(y):.6g}" for x, y in zip(xs, ys))


_RNG = np.random.default_rng(11)


@pytest.mark.parametrize("xs, ys", [
    (np.arange(4001) * 0.05, np.cos(np.arange(4001) * 0.05) * np.exp(-1e-3 * np.arange(4001))),
    (list(np.sort(_RNG.uniform(-3.0, 7.0, 500))), list(_RNG.standard_normal(500))),
    (np.linspace(0.0, 1.0, 9), np.full(9, 0.125)),                 # constant series
    ([2.5], [-1.0]),                                               # a single point
    (np.linspace(-9.0, -1e-3, 50), -np.geomspace(1e-8, 3.0, 50)),  # negative range
    (range(6), np.array([3, 1, 4, 1, 5, 9], dtype=np.float32)),
])
def test_svg_polyline_matches_the_per_point_formula(tmp_path, xs, ys):
    path = tmp_path / "line.svg"
    write_svg_line(path, xs, ys, x_label="x [u]", y_label="y [u]", title="t")
    svg = path.read_text()
    assert f'<polyline points="{_points_per_point(xs, ys)}" ' in svg
    lo, hi = min(float(v) for v in xs), max(float(v) for v in xs)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    for x in (lo, hi):
        assert f'text-anchor="middle">{format_number(x)}</text>' in svg


def test_svg_refuses_empty_or_mismatched_series(tmp_path):
    for xs, ys in (([], []), ([1.0, 2.0], [1.0]), (np.ones((2, 2)), np.ones((2, 2)))):
        with pytest.raises(ValueError):
            write_svg_line(tmp_path / "bad.svg", xs, ys, x_label="x", y_label="y")
