"""The file comparison behind `tools/golden_cli.py SRC_A SRC_B`."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "golden_cli.py"
_spec = importlib.util.spec_from_file_location("golden_cli", _PATH)
golden_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_cli)


def test_compare_reports_identity_deviation_or_layout():
    table = b"# units: time, x\nt,x\n0.0,-1.5e-3\n0.5,2\n"
    assert golden_cli.compare(table, table) == "identical"
    moved = b"# units: time, x\nt,x\n0.0,-1.5000000000001e-3\n0.5,2.25\n"
    assert golden_cli.compare(table, moved) == "max abs deviation 0.25"
    assert golden_cli.compare(table, table.replace(b"t,x", b"t,y")) == "layout differs"
    assert golden_cli.compare(table, table + b"1.0,3\n") == "layout differs"


def test_sorted_line_files_compare_by_their_sorted_lines(tmp_path):
    path = tmp_path / "cells.jsonl"
    path.write_bytes(b'{"alpha": 0.4}\n{"alpha": 0.2}\n')
    assert golden_cli.contents(path) == b'{"alpha": 0.2}\n{"alpha": 0.4}\n'


def test_manifests_compare_without_their_duration(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for run, seconds in ((a, 0.25), (b, 1.5)):
        run.mkdir()
        (run / "manifest.json").write_text(json.dumps(
            {"command": "sweep", "duration_seconds": seconds,
             "time_grid": {"total_time": 10.5}}, indent=2, sort_keys=True) + "\n")
    got = [golden_cli.contents(run / "manifest.json") for run in (a, b)]
    assert golden_cli.compare(*got) == "identical"
    assert b"duration_seconds" not in got[0] and b"10.5" in got[0]
