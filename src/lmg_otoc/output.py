"""Result persistence: CSV tables, run manifests, plot-data files, SVG lines.

Everything in here is deterministic: identical inputs produce byte-identical
files. Floats are written with repr(), whose shortest form round-trips
exactly, so no precision is lost between runs and re-parses.
"""

import itertools
import json
import os

import numpy as np

MANIFEST_SCHEMA_VERSION = 1

# rows per write of a long table, so no whole-file string is ever built
_ROWS_PER_WRITE = 4096


def format_number(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(value)
    v = float(value)
    if v != v:                              # NaN never belongs in a table
        return ""
    return repr(v)


def format_column(values) -> list:
    """format_number of every value, strings kept as they are.

    A float64 array is formatted in one pass: repr of each of its values as
    Python floats, which is what format_number writes, and blank for NaN.
    A column written to several files can be formatted once and handed to
    each writer as the list of strings this returns.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        cells = list(map(repr, values.tolist()))
        for k in np.flatnonzero(np.isnan(values)):
            cells[k] = ""
        return cells
    return [v if isinstance(v, str) else format_number(v) for v in values]


def _lines(columns, sep: str):
    """The rows of formatted columns, joined by sep."""
    return map(sep.join, zip(*(format_column(values) for values in columns)))


def _write_lines(fh, lines):
    """The lines joined by newlines, plus a final one (so a bare newline
    when there are none), written one block of rows at a time."""
    lines = iter(lines)
    block = list(itertools.islice(lines, _ROWS_PER_WRITE))
    while True:
        fh.write("\n".join(block) + "\n")
        if not (block := list(itertools.islice(lines, _ROWS_PER_WRITE))):
            return


def write_csv(path, columns, units, data) -> str:
    """Units comment line, header, then rows, from one unit annotation and
    one value sequence per column, all of one length. Returns the path
    written."""
    if len(units) != len(columns):
        raise ValueError("one unit annotation per column required")
    if len(data) != len(columns):
        raise ValueError("one value sequence per column required")
    if len({len(values) for values in data}) > 1:
        raise ValueError("ragged columns")
    header = ["# units: " + ", ".join(
        f"{c}[{u}]" if u else c for c, u in zip(columns, units)), ",".join(columns)]
    with open(path, "w") as fh:
        _write_lines(fh, itertools.chain(header, _lines(data, ",")))
    return str(path)


def read_csv(path):
    """Inverse of write_csv; numbers come back as floats, blanks as None."""
    with open(path) as fh:
        raw = [line.rstrip("\n") for line in fh]
    header = None
    rows = []
    for line in raw:
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        parsed = []
        for cell in line.split(","):
            if cell == "":
                parsed.append(None)
            else:
                try:
                    parsed.append(float(cell))
                except ValueError:
                    parsed.append(cell)
        rows.append(parsed)
    return header, rows


def write_manifest(path, command: str, parameters: dict, time_grid: dict,
                   diagnostics: dict, duration_seconds: float,
                   outputs: list) -> str:
    """One manifest per run; refuses to reference files that do not exist."""
    from . import __version__              # resolved late, init imports us
    here = os.path.dirname(os.path.abspath(path))
    for name in outputs:
        if not os.path.exists(os.path.join(here, name)):
            raise FileNotFoundError(f"manifest would reference missing file: {name}")
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "engine_version": __version__,
        "time_grid": time_grid,
        "diagnostics": diagnostics,
        "duration_seconds": duration_seconds,
        "outputs": sorted(outputs),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def emit_line_dat(path, xs, ys) -> str:
    """Two-column whitespace series, one row per point."""
    with open(path, "w") as fh:
        _write_lines(fh, _lines((xs, ys), " "))
    return str(path)


def emit_heatmap_dat(path, xs, ys, values) -> str:
    """Blank-line-separated blocks, one per row of the 2-D grid values,
    ready for matrix plotting: block i holds the lines
    `xs[i] ys[j] values[i, j]`, whitespace-separated."""
    if np.shape(values) != (len(xs), len(ys)):
        raise ValueError("need one row of values per x and one value per y")
    x_cells, y_cells = format_column(xs), format_column(ys)
    blocks = ("\n".join(_lines(([x] * len(y_cells), y_cells, row), " "))
              for x, row in zip(x_cells, values))
    with open(path, "w") as fh:
        fh.write("\n\n".join(blocks) + "\n")
    return str(path)


def _svg_coord(v: float) -> str:
    return f"{v:.6g}"


def write_svg_line(path, xs, ys, x_label: str, y_label: str,
                   title: str = "") -> str:
    """Self-contained vector line plot; needs no display or plot library.

    Axis labels come from the caller (column name plus units). Degenerate
    ranges widen symmetrically so a constant series still renders.
    """
    width, height = 640.0, 420.0
    ml, mr, mt, mb = 70.0, 20.0, 30.0, 50.0
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or not xs.size or xs.shape != ys.shape:
        raise ValueError("need matching nonempty x and y series")
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    # the same operations elementwise as on each float, so the same doubles
    points = " ".join(map("{:.6g},{:.6g}".format, px(xs).tolist(),
                          py(ys).tolist()))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<line x1="{ml:g}" y1="{height - mb:g}" x2="{width - mr:g}" '
        f'y2="{height - mb:g}" stroke="black"/>',
        f'<line x1="{ml:g}" y1="{mt:g}" x2="{ml:g}" y2="{height - mb:g}" '
        f'stroke="black"/>',
        f'<polyline points="{points}" fill="none" stroke="#1f5fa8" '
        f'stroke-width="1.5"/>',
    ]
    for x in (x0, x1):
        parts.append(
            f'<text x="{_svg_coord(px(x))}" y="{height - mb + 18:g}" '
            f'font-size="11" text-anchor="middle">{format_number(x)}</text>')
    for y in (y0, y1):
        parts.append(
            f'<text x="{ml - 8:g}" y="{_svg_coord(py(y) + 4)}" font-size="11" '
            f'text-anchor="end">{format_number(y)}</text>')
    parts.append(
        f'<text x="{(ml + width - mr) / 2:g}" y="{height - 12:g}" '
        f'font-size="13" text-anchor="middle">{x_label}</text>')
    parts.append(
        f'<text x="16" y="{(mt + height - mb) / 2:g}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{(mt + height - mb) / 2:g})">{y_label}</text>')
    if title:
        parts.append(
            f'<text x="{(ml + width - mr) / 2:g}" y="20" font-size="14" '
            f'text-anchor="middle">{title}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return str(path)
