"""End-to-end CLI behavior: files, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lmg_otoc import (AveragingConfig, LmgParams, NumericalError, SpinSector, cli,
                      microcanonical_scan, otoc)
from lmg_otoc.cli import _COMMANDS, build_parser, main
from lmg_otoc.output import read_csv


def run(tmp_path, *argv):
    out = tmp_path / "run"
    rc = main(list(argv) + ["--out", str(out)])
    return rc, out


def manifest_of(out):
    with open(out / "manifest.json") as fh:
        return json.load(fh)


def test_spectrum_low_level_matches_known_value(tmp_path):
    rc, out = run(tmp_path, "spectrum", "--n", "300", "--alpha", "0.4")
    assert rc == 0
    header, rows = read_csv(out / "spectrum.csv")
    assert header == ["n", "energy", "energy_per_spin", "rescaled_energy"]
    assert abs(rows[0][2] - (-0.4167)) < 1e-4
    assert rows[0][3] == 0.0


def test_spectrum_free_model_levels(tmp_path):
    rc, out = run(tmp_path, "spectrum", "--n", "2", "--alpha", "0")
    assert rc == 0
    _, rows = read_csv(out / "spectrum.csv")
    energies = sorted(r[1] for r in rows)
    assert np.allclose(energies, [-2.0, -2.0, 0.0], atol=1e-12)


def test_flat_spectrum_is_written_with_the_rescaled_column_blank(tmp_path, capsys):
    # N = 1 at alpha = 0: both levels sit at -1, so nothing rescales them
    rc, out = run(tmp_path, "spectrum", "--n", "1", "--alpha", "0")
    assert rc == 0
    assert "warning:" in capsys.readouterr().err
    header, rows = read_csv(out / "spectrum.csv")
    assert header[-1] == "rescaled_energy"
    assert [r[1] for r in rows] == [-1.0, -1.0]
    assert [r[3] for r in rows] == [None, None]


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    rc = main(["spectrum", "--n", "10", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "alpha" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_io_error_exits_with_code_5(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["spectrum", "--n", "4", "--alpha", "0.4",
               "--out", str(blocker / "sub")])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_numerical_error_exits_with_code_3(tmp_path, capsys, monkeypatch):
    def failing_eigh(pair):
        raise NumericalError("eigensolver did not converge")
    monkeypatch.setattr("lmg_otoc.otoc.eigh", failing_eigh)
    rc = main(["spectrum", "--n", "4", "--alpha", "0.4",
               "--out", str(tmp_path / "x")])
    assert rc == 3
    assert capsys.readouterr().err == "error: eigensolver did not converge\n"


def test_cli_does_not_import_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    probe = ("import lmg_otoc.cli, sys; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          check=True)
    assert done.stdout.strip() == "[]"


def test_every_option_is_a_flag_of_its_command(capsys):
    parser = build_parser()
    for command, (_, _, options) in _COMMANDS.items():
        assert set(options) <= set(vars(parser.parse_args([command])))
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        for key in options:
            assert f"--{key} " in text or f"--{key}\n" in text



def test_the_top_level_help_lists_the_commands_in_order(capsys):
    assert main(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("{spectrum,otoc,micro,sweep,fit} "
            "spectrum eigenvalue table "
            "otoc time trace of F, A and C "
            "micro per-eigenstate long-time averages "
            "sweep normalized averages over an (alpha, lambda) grid "
            "fit power-law exponent fits options:") in text

def test_otoc_trace_table(tmp_path):
    rc, out = run(tmp_path, "otoc", "--n", "12", "--alpha", "0.4",
                  "--lambda", "1", "--tmax", "3", "--dt", "0.5")
    assert rc == 0
    header, rows = read_csv(out / "otoc.csv")
    assert header == ["t", "re_f", "im_f", "c", "re_a"]
    assert len(rows) == 7
    t0 = rows[0]
    assert t0[0] == 0.0
    assert t0[2] == 0.0                    # im_f exactly zero at t=0
    assert abs(t0[3]) <= 1e-10             # c vanishes at t=0
    with open(out / "otoc.dat") as fh:
        dat_rows = [line for line in fh if line.strip()]
    assert len(dat_rows) == len(rows)      # line emission preserves rows


def test_otoc_rerun_is_byte_identical(tmp_path):
    args = ("otoc", "--n", "10", "--alpha", "0.3", "--lambda", "0.5",
            "--tmax", "2", "--dt", "0.5")
    rc1, out1 = run(tmp_path / "a", *args)
    rc2, out2 = run(tmp_path / "b", *args)
    assert rc1 == rc2 == 0
    assert (out1 / "otoc.csv").read_bytes() == (out2 / "otoc.csv").read_bytes()


@pytest.mark.parametrize("state", [[], ["--state", "level", "--level", "9"]])
def test_otoc_split_over_workers_writes_the_same_bytes(tmp_path, monkeypatch, state):
    args = ("otoc", "--n", "21", "--alpha", "0.4", "--tmax", "30", "--dt", "0.05",
            "--plot", *state)
    outputs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("LMG_OTOC_WORKERS", workers)
        rc, out = run(tmp_path / workers, *args)
        assert rc == 0
        assert manifest_of(out)["parameters"]["workers"] == int(workers)
        outputs[workers] = {name: (out / name).read_bytes()
                            for name in ("otoc.csv", "otoc.dat", "otoc.svg")}
    assert outputs["1"] == outputs["2"]


def test_otoc_eigenstate_protocol(tmp_path):
    rc, out = run(tmp_path, "otoc", "--n", "10", "--alpha", "0.4",
                  "--state", "level", "--level", "3", "--tmax", "2",
                  "--dt", "0.5")
    assert rc == 0
    assert manifest_of(out)["diagnostics"]["protocol"] == "microcanonical"


@pytest.mark.parametrize("state", [[], ["--state", "level", "--level", "3"]])
def test_otoc_manifest_records_the_kept_levels_and_their_bound(tmp_path, state):
    rc, out = run(tmp_path, "otoc", "--n", "100", "--alpha", "0.4", "--tmax", "2",
                  "--dt", "0.5", *state)
    assert rc == 0
    diag = manifest_of(out)["diagnostics"]
    kept = diag["kept_levels"]
    assert kept["dimension"] == 101
    assert 1 <= kept["even"] <= 51 and 1 <= kept["odd"] <= 50
    assert kept["even"] + kept["odd"] < kept["dimension"]
    assert 0.0 < diag["truncation_bound"] <= 1e-14


def test_otoc_eigenstate_with_field_is_rejected(tmp_path, capsys):
    rc = main(["otoc", "--n", "10", "--alpha", "0.4", "--state", "level",
               "--level", "3", "--lambda", "0.5", "--tmax", "1",
               "--dt", "0.5", "--out", str(tmp_path / "x")])
    assert rc == 4
    assert "lambda" in capsys.readouterr().err


def test_invalid_model_parameter_exit_code(tmp_path):
    rc = main(["spectrum", "--n", "10", "--alpha", "1.5",
               "--out", str(tmp_path / "x")])
    assert rc == 4


def test_otoc_plot_has_axis_labels(tmp_path):
    rc, out = run(tmp_path, "otoc", "--n", "8", "--alpha", "0.4",
                  "--tmax", "2", "--dt", "0.5", "--plot")
    assert rc == 0
    svg = (out / "otoc.svg").read_text()
    assert "re_f [dimensionless]" in svg
    assert "t [time]" in svg


def test_sweep_table_and_overlay(tmp_path, capsys):
    rc, out = run(tmp_path, "sweep", "--alphas", "0.4,0.9",
                  "--lambdas", "0,0.5", "--n", "12", "--tavg", "100",
                  "--dt", "0.5")
    assert rc == 0
    err = capsys.readouterr().err
    assert "alpha=0.9" in err              # overlay warning
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["alpha", "lambda", "fbar_raw", "fbar_norm",
                      "halfwidth", "lambda_c"]
    by_key = {(r[0], r[1]): r for r in rows}
    assert by_key[(0.4, 0.0)][3] == 1.0    # self-normalization
    assert by_key[(0.4, 0.5)][5] == 1.0    # critical-field overlay
    assert by_key[(0.9, 0.0)][5] is None   # undefined overlay left empty
    with open(out / "heatmap.dat") as fh:
        blocks = fh.read().strip().split("\n\n")
    assert len(blocks) == 2
    assert all(len(b.splitlines()) == 2 for b in blocks)
    assert 0.0 <= manifest_of(out)["diagnostics"]["truncation_bound"] <= otoc._DROP_BOUND
    # a repeated alpha is a row of the grid, so it gets a block of its own
    rc, out = run(tmp_path / "repeat", "sweep", "--alphas", "0.4,0.4",
                  "--lambdas", "0,1", "--n", "12", "--tavg", "100", "--dt", "0.5")
    assert rc == 0
    blocks = (out / "heatmap.dat").read_text().split("\n\n")
    assert [[line.split()[:2] for line in b.splitlines()] for b in blocks] == \
        [[["0.4", "0.0"], ["0.4", "1.0"]]] * 2
    assert blocks[0] + "\n" == blocks[1]


def test_sweep_resume_reuses_cells(tmp_path):
    out = tmp_path / "run"
    rc = main(["sweep", "--alphas", "0.4", "--lambdas", "0,0.5", "--n", "10",
               "--tavg", "50", "--dt", "0.5", "--out", str(out)])
    assert rc == 0
    first = (out / "cells.jsonl").read_text().splitlines()
    assert len(first) == 2
    rc = main(["sweep", "--alphas", "0.4", "--lambdas", "0,0.5,1.0",
               "--n", "10", "--tavg", "50", "--dt", "0.5", "--resume",
               "--out", str(out)])
    assert rc == 0
    second = (out / "cells.jsonl").read_text().splitlines()
    assert len(second) == 3                # only the new cell was computed
    assert second[:2] == first


SWEEP_ARGS = ["sweep", "--alphas", "0.4", "--lambdas", "0,0.5,1.0", "--n", "10",
              "--tavg", "50", "--dt", "0.5"]


def test_sweep_rerun_without_resume_replaces_checkpoint(tmp_path):
    out = tmp_path / "run"
    assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
    first = (out / "cells.jsonl").read_text()
    assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
    second = (out / "cells.jsonl").read_text().splitlines()
    assert len(second) == 3                # one record per cell, not appended
    assert sorted(second) == sorted(first.splitlines())


@pytest.mark.parametrize("flag, value, key", [("--n", "12", "n"),
                                              ("--tavg", "60", "tavg"),
                                              ("--dt", "0.25", "dt")])
def test_sweep_resume_refuses_other_settings(tmp_path, capsys, flag, value, key):
    out = tmp_path / "run"
    assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
    before = (out / "cells.jsonl").read_bytes()
    argv = list(SWEEP_ARGS)
    argv[argv.index(flag) + 1] = value
    assert main(argv + ["--resume", "--out", str(out)]) == 2
    assert f"checkpoint has {key}=" in capsys.readouterr().err
    assert (out / "cells.jsonl").read_bytes() == before


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "20", "--alphas", "0.4", "--lambdas", "0,0.5"],
    ["micro", "--n", "8", "--alpha", "0.4"]], ids=["sweep", "micro"])
def test_an_averaging_manifest_records_the_horizon_it_averages_over(tmp_path, argv):
    # dt = 0.5 does not divide --tavg 10.3: the grid takes 21 steps, to 10.5
    out = tmp_path / "run"
    argv = argv + ["--tavg", "10.3", "--dt", "0.5", "--out", str(out)]
    assert main(argv) == 0
    doc = manifest_of(out)
    assert doc["time_grid"] == {"total_time": 10.5, "dt": 0.5, "samples": 22}
    assert doc["parameters"]["tavg"] == 10.3
    if argv[0] == "sweep":      # a resume still checks the requested horizon
        assert main(argv + ["--resume"]) == 0
        records = (out / "cells.jsonl").read_text().splitlines()
        assert [json.loads(r)["tavg"] for r in records] == [10.3, 10.3]


def test_fully_resumed_sweep_reports_the_fresh_bound(tmp_path):
    out = tmp_path / "run"
    argv = ["sweep", "--alphas", "0.4", "--lambdas", "0,0.5", "--n", "60",
            "--tavg", "50", "--dt", "0.5", "--out", str(out)]
    assert main(argv) == 0
    fresh = manifest_of(out)["diagnostics"]["truncation_bound"]
    assert 0.0 < fresh <= otoc._DROP_BOUND
    records = [json.loads(line) for line in (out / "cells.jsonl").read_text().splitlines()]
    assert max(r["truncation_bound"] for r in records) == fresh
    assert main(argv + ["--resume"]) == 0
    assert (out / "cells.jsonl").read_text().count("\n") == 2     # nothing recomputed
    assert manifest_of(out)["diagnostics"]["truncation_bound"] == fresh


def test_sweep_resume_refuses_a_record_without_a_bound(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
    cells = out / "cells.jsonl"
    records = [json.loads(line) for line in cells.read_text().splitlines()]
    del records[1]["truncation_bound"]
    before = "".join(json.dumps(r) + "\n" for r in records)
    cells.write_text(before)
    assert main(SWEEP_ARGS + ["--resume", "--out", str(out)]) == 2
    assert "cells.jsonl:2: checkpoint record has no truncation_bound" in capsys.readouterr().err
    assert cells.read_text() == before


def test_sweep_resume_recomputes_a_torn_last_record(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
    fresh = (out / "sweep.csv").read_text()
    cells = out / "cells.jsonl"
    lines = cells.read_text().splitlines(keepends=True)
    cells.write_text("".join(lines[:-1]) + lines[-1][:25])     # killed mid-write
    capsys.readouterr()
    assert main(SWEEP_ARGS + ["--resume", "--out", str(out)]) == 0
    assert "torn" in capsys.readouterr().err
    resumed = cells.read_text().splitlines(keepends=True)
    assert resumed[:-1] == lines[:-1] and len(resumed) == 3
    assert sorted(resumed) == sorted(lines)
    assert (out / "sweep.csv").read_text() == fresh


def test_sweep_resume_rejects_a_malformed_inner_record(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
    cells = out / "cells.jsonl"
    lines = cells.read_text().splitlines(keepends=True)
    cells.write_text(lines[0] + lines[1][:25] + "\n" + lines[2])
    assert main(SWEEP_ARGS + ["--resume", "--out", str(out)]) == 2
    assert "cells.jsonl:2: malformed" in capsys.readouterr().err


# runs the command line in a fresh process, so that a warning would reach
# stderr, with the zero-field average of every quench at alpha = 0.4
# patched to 0
_ZERO_REFERENCE = """
import dataclasses, sys
from lmg_otoc import analysis, cli
real = analysis.quench_fbar
def zero_at_zero_field(spec, config):
    avg = real(spec, config)
    zero = spec.field_strength == 0.0 and spec.params.alpha == 0.4
    return dataclasses.replace(avg, value=0.0) if zero else avg
analysis.quench_fbar = zero_at_zero_field
sys.exit(cli.main(sys.argv[1:]))
"""


# the sweep's alpha = 0.9 row has no critical field, which is warned of too
@pytest.mark.parametrize("argv, code, before", [
    (["sweep", "--alphas", "0.9,0.4", "--lambdas", "0,0.5"], 0,
     "warning: critical field undefined at alpha=0.9; overlay left empty\nwarning:"),
    (["fit", "--kind", "gamma-lambda", "--alpha", "0.4"], 3, "error:")],
    ids=["sweep", "fit-gamma-lambda"])
def test_an_aborted_sweep_row_is_reported_once(tmp_path, argv, code, before):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = tmp_path / "run"
    done = subprocess.run(
        [sys.executable, "-c", _ZERO_REFERENCE, *argv, "--n", "10", "--tavg", "50",
         "--dt", "0.5", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert done.returncode == code
    assert done.stderr == (f"{before} alpha=0.4: zero-field reference 0.000e+00 below "
                           f"1e-12; row aborted\n")
    if argv[0] != "sweep":
        return
    _, rows = read_csv(out / "sweep.csv")
    assert [row[:2] for row in rows] == [[0.9, 0.0], [0.9, 0.5], [0.4, 0.0], [0.4, 0.5]]
    # the alpha = 0.9 row: values, no critical field; the aborted row: the reverse
    assert all(None not in row[2:5] and row[5] is None for row in rows[:2])
    assert all(row[2:] == [None, None, None, 1.0] for row in rows[2:])
    blocks = (out / "heatmap.dat").read_text().split("\n\n")
    assert [[line.split()[0] for line in block.splitlines()] for block in blocks] == \
        [["0.9", "0.9"]]
    assert manifest_of(out)["diagnostics"]["aborted_alphas"] == [0.4]


def test_micro_table_and_spread_summary(tmp_path):
    rc, out = run(tmp_path, "micro", "--n", "10", "--alpha", "0.4",
                  "--tavg", "50", "--dt", "0.5", "--sizes", "8,10")
    assert rc == 0
    header, rows = read_csv(out / "micro.csv")
    assert header == ["n", "energy_per_spin", "rescaled_energy",
                      "fbar_n_raw", "fbar_n_norm"]
    assert len(rows) == 11
    assert rows[0][2] == 0.0 and rows[0][4] == 1.0
    dn_header, dn_rows = read_csv(out / "dn.csv")
    assert dn_header == ["n_spins", "n_c", "window_lo", "window_hi", "dn"]
    assert [r[0] for r in dn_rows] == [8.0, 10.0]


def test_fit_commands(tmp_path):
    rc, out = run(tmp_path, "fit", "--kind", "mu", "--alpha", "0.4",
                  "--sizes", "30,40,60", "--tavg", "200", "--dt", "0.5")
    assert rc == 0
    doc = json.loads((out / "fit.json").read_text())
    assert doc["kind"] == "mu" and doc["n_points"] == 3
    _, rows = read_csv(out / "points.csv")
    assert len(rows) == doc["n_points"]
    # the largest bound of the averages behind the points
    assert 0.0 < manifest_of(out)["diagnostics"]["truncation_bound"] <= otoc._DROP_BOUND

    rc, out = run(tmp_path / "gl", "fit", "--kind", "gamma-lambda",
                  "--alpha", "0.4", "--n", "40", "--tavg", "200",
                  "--dt", "0.5")
    assert rc == 0
    doc = json.loads((out / "fit.json").read_text())
    assert doc["kind"] == "gamma-lambda" and doc["n_points"] == 8

    rc, out = run(tmp_path / "ge", "fit", "--kind", "gamma-epsilon",
                  "--alpha", "0.4", "--n", "40", "--tavg", "200",
                  "--dt", "0.5", "--window", "0.01,0.5")
    assert rc == 0
    doc = json.loads((out / "fit.json").read_text())
    assert doc["kind"] == "gamma-epsilon" and doc["n_points"] >= 3
    assert 0.0 <= manifest_of(out)["diagnostics"]["truncation_bound"] <= otoc._DROP_BOUND


def test_level_average_manifests_record_the_scan_bound(tmp_path):
    # at N = 60 some paths of some levels are cut, so the bound is not 0
    scan = microcanonical_scan(LmgParams(0.4, SpinSector(60)), AveragingConfig(50.0, 0.5))
    assert 0.0 < scan.truncation_bound <= otoc._DROP_BOUND
    rc, out = run(tmp_path / "micro", "micro", "--n", "60", "--alpha", "0.4",
                  "--tavg", "50", "--dt", "0.5", "--sizes", "10,60")
    assert rc == 0
    assert manifest_of(out)["diagnostics"]["truncation_bound"] == scan.truncation_bound
    rc, out = run(tmp_path / "ge", "fit", "--kind", "gamma-epsilon", "--alpha", "0.4",
                  "--n", "60", "--tavg", "50", "--dt", "0.5", "--window", "0.01,0.5")
    assert rc == 0
    assert manifest_of(out)["diagnostics"]["truncation_bound"] == scan.truncation_bound


def test_fit_manifest_records_the_defaults_it_used(tmp_path, capsys):
    rc, out = run(tmp_path, "fit", "--kind", "gamma-epsilon", "--alpha", "0.4",
                  "--tavg", "50", "--dt", "0.5")
    assert rc == 0
    params = manifest_of(out)["parameters"]
    assert params["n"] == 300 and params["window"] == [0.015, 0.1]
    assert params["sizes"] is None             # only the mu fit uses sizes
    assert main(["fit", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "300 for gamma-epsilon" in text and "0.015,0.1 for gamma-epsilon" in text


def test_fit_refuses_the_options_its_kind_does_not_use(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("window=0.1,0.2\n")
    for argv, option, kind in (
            (["--kind", "mu", "--sizes", "30,40,60", "--n", "50",
              "--window", "0.1,0.2"], "--n", "mu"),
            (["--kind", "gamma-epsilon", "--sizes", "10,20", "--workers", "2"],
             "--sizes", "gamma-epsilon"),
            (["--kind", "gamma-epsilon", "--workers", "2"], "--workers",
             "gamma-epsilon"),
            (["--kind", "mu", "--config", str(conf)], "--window", "mu")):
        out = tmp_path / "run"
        assert main(["fit", "--alpha", "0.4", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert option in err and f"--kind {kind}" in err
        assert not out.exists()


def test_otoc_refuses_a_level_without_state_level(tmp_path, capsys):
    # the ground-state trace would ignore it and record it beside "state": "ground";
    # --state level without --level is refused before a grid of 1e13 samples
    for argv, message in (
            (["--tmax", "1", "--level", "5"], "--level is not used by otoc --state ground"),
            (["--tmax", "1", "--state", "ground", "--level", "5"],
             "--level is not used by otoc --state ground"),
            (["--tmax", "1e12", "--dt", "0.1", "--state", "level"],
             "--state level needs --level")):
        out = tmp_path / "run"
        assert main(["otoc", "--n", "10", "--alpha", "0.4", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_micro_scans_each_distinct_size_once(tmp_path, monkeypatch):
    solved = []
    scan = cli.microcanonical_scan
    monkeypatch.setattr(cli, "microcanonical_scan",
                        lambda params, config: solved.append(params.sector.n_spins)
                        or scan(params, config))
    rc, out = run(tmp_path, "micro", "--n", "24", "--alpha", "0.4", "--tavg", "200",
                  "--dt", "0.5", "--sizes", "16,16,24")
    assert rc == 0
    assert solved == [24, 16]
    # dn.csv still lists each size as given
    _, rows = read_csv(out / "dn.csv")
    assert [r[0] for r in rows] == [16.0, 16.0, 24.0] and rows[0] == rows[1]


def test_workers_is_an_option_of_sweep_and_fit_only(tmp_path, monkeypatch):
    assert main(["spectrum", "--n", "4", "--alpha", "0.4", "--workers", "2",
                 "--out", str(tmp_path / "spectrum")]) == 2
    assert [c for c, (_, _, options) in _COMMANDS.items()
            if "workers" in options] == ["sweep", "fit"]
    sweep = ["sweep", "--alphas", "0.4", "--lambdas", "0,0.5", "--n", "8",
             "--tavg", "20", "--dt", "0.5"]
    conf = tmp_path / "run.conf"
    conf.write_text("workers=3\n")
    monkeypatch.setenv("LMG_OTOC_WORKERS", "1")
    # flag > config > environment
    for name, extra, want in (("env", [], 1), ("conf", ["--config", str(conf)], 3),
                              ("flag", ["--config", str(conf), "--workers", "2"], 2)):
        rc, out = run(tmp_path / name, *sweep, *extra)
        assert rc == 0
        assert manifest_of(out)["parameters"]["workers"] == want


@pytest.mark.parametrize("argv", [
    ["otoc", "--n", "10", "--alpha", "0.4", "--tmax", "1"],
    ["sweep", "--alphas", "0.4", "--lambdas", "0,0.5", "--n", "8", "--tavg", "20",
     "--dt", "0.5"]], ids=["otoc", "sweep"])
def test_a_non_integer_workers_variable_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                          argv):
    monkeypatch.setenv("LMG_OTOC_WORKERS", "two")
    rc, _ = run(tmp_path, *argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "LMG_OTOC_WORKERS" in err and "'two'" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "10", "--alphas", "0.4", "--lambdas", "0,1", "--tavg", "inf"],
    ["sweep", "--n", "10", "--alphas", "0.4", "--lambdas", "0,1", "--tavg", "nan"],
    ["micro", "--n", "10", "--alpha", "0.4", "--dt", "nan"],
    ["otoc", "--n", "10", "--alpha", "0.4", "--tmax", "nan"],
    # a step longer than the horizon is refused like a non-finite one
    ["otoc", "--n", "10", "--alpha", "0.4", "--tmax", "1", "--dt", "3"],
    ["micro", "--n", "10", "--alpha", "0.4", "--tavg", "1", "--dt", "3"]],
    ids=["sweep-tavg-inf", "sweep-tavg-nan", "micro-dt-nan", "otoc-tmax-nan",
         "otoc-dt-above-tmax", "micro-dt-above-tavg"])
def test_a_non_finite_horizon_is_a_domain_error(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: need finite tmax > 0 and dt > 0") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("count", ["0", "-2"])
@pytest.mark.parametrize("source, argv, named", [
    ("flag", ["sweep"], "argument --workers: "),
    ("config", ["sweep"], "error: config value for workers: "),
    ("variable", ["sweep"], "error: LMG_OTOC_WORKERS: "),
    ("variable", ["otoc", "--n", "10", "--alpha", "0.4", "--tmax", "1"],
     "error: LMG_OTOC_WORKERS: ")],
    ids=["flag", "config", "variable-sweep", "variable-otoc"])
def test_a_worker_count_below_1_is_a_usage_error(tmp_path, monkeypatch, capsys, count,
                                                 source, argv, named):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")
    for name in ("quench_sweep", "commutator_series", "make_time_grid"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.delenv("LMG_OTOC_WORKERS", raising=False)
    if argv == ["sweep"]:
        argv = argv + ["--alphas", "0.4", "--lambdas", "0,0.5", "--n", "8"]
    if source == "flag":
        argv = argv + [f"--workers={count}"]
    elif source == "config":
        (tmp_path / "run.conf").write_text(f"workers={count}\n")
        argv = argv + ["--config", str(tmp_path / "run.conf")]
    else:
        monkeypatch.setenv("LMG_OTOC_WORKERS", count)
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert named in err and count in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, key, value", [
    (["fit", "--kind", "gamma-lambda", "--alpha", "0.4"], "window", "1"),
    (["sweep", "--lambdas", "0", "--n", "10"], "alphas", "a"),
    (["micro", "--n", "10", "--alpha", "0.4"], "sizes", "1.5"),
    (["sweep", "--alphas", "0.4", "--lambdas", "0", "--n", "10"], "workers", "x")],
    ids=["window", "alphas", "sizes", "workers"])
def test_a_refused_flag_reads_like_a_refused_config_line(tmp_path, capsys, argv, key, value):
    assert main(argv + [f"--{key}", value, "--out", str(tmp_path / "x")]) == 2
    flag_err = capsys.readouterr().err
    assert f"argument --{key}: " in flag_err
    assert "_parse" not in flag_err and "_worker" not in flag_err
    (tmp_path / "run.conf").write_text(f"{key}={value}\n")
    assert main(argv + ["--config", str(tmp_path / "run.conf"),
                        "--out", str(tmp_path / "x")]) == 2
    reason = capsys.readouterr().err.removeprefix(f"error: config value for {key}: ")
    assert flag_err.endswith(f"argument --{key}: {reason}")
    assert os.listdir(tmp_path) == ["run.conf"]


_OTOC = ["otoc", "--n", "10", "--alpha", "0.4", "--tmax", "1"]


@pytest.mark.parametrize("workers, argv, code", [
    ("two", _OTOC, 2),
    (None, _OTOC + ["--state", "level"], 2),
    (None, _OTOC + ["--state", "level", "--level", "50"], 4)],
    ids=["workers-variable", "level-missing", "level-out-of-range"])
@pytest.mark.parametrize("out", ["new", "nested", "existing", "default"])
def test_a_failed_run_leaves_no_empty_directory_it_made(tmp_path, monkeypatch, workers,
                                                        argv, code, out):
    if workers:
        monkeypatch.setenv("LMG_OTOC_WORKERS", workers)
    else:
        monkeypatch.delenv("LMG_OTOC_WORKERS", raising=False)
    monkeypatch.setenv("LMG_OTOC_RUNS", str(tmp_path / "runs"))
    target = {"new": tmp_path / "x", "nested": tmp_path / "x" / "y",
              "existing": tmp_path / "x", "default": None}[out]
    if out == "existing":
        target.mkdir()
    assert main(argv + (["--out", str(target)] if target else [])) == code
    # an --out directory that was there before stays; nothing else is left
    assert sorted(os.listdir(tmp_path)) == (["x"] if out == "existing" else [])


_GAMMA_LAMBDA = ["fit", "--kind", "gamma-lambda", "--alpha", "0.4", "--n", "10",
                 "--tavg", "20", "--dt", "0.5"]
_SWEEP = ["sweep", "--n", "10", "--alphas", "0.4", "--tavg", "20", "--dt", "0.5"]
_FIELD = "field strength must be finite and nonnegative"
_WINDOW = "must satisfy 0 < lo < hi <= lambda_c = 1"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (_GAMMA_LAMBDA + ["--window", "0,0.5"], _WINDOW),
    (_GAMMA_LAMBDA + ["--window=-0.1,0.5"], _WINDOW),
    (_GAMMA_LAMBDA + ["--window", "0.2,1.5"], _WINDOW),
    (_GAMMA_LAMBDA + ["--window", "1e-18,1e-17"], _WINDOW),
    (["sweep", "--n", "10", "--alphas", "1.5", "--lambdas", "0"], "alpha must lie in [0, 1]"),
    (["sweep", "--n", "0", "--alphas", "0.4", "--lambdas", "0"], "n_spins must be"),
    (_SWEEP + ["--lambdas", "inf"], _FIELD),
    (_SWEEP + ["--lambdas", "nan"], _FIELD),
    (_SWEEP + ["--lambdas", "0,-0.5"], _FIELD),
    (_OTOC + ["--lambda", "inf"], _FIELD),
    # finite fields whose Hamiltonian entries overflow, refused without a warning
    (_SWEEP + ["--lambdas", "0,1e308"], "field strength 1e+308 overflows the N=10 Hamiltonian"),
    (_OTOC + ["--lambda", "1e308"], "field strength 1e+308 overflows the N=10 Hamiltonian"),
    # refused before a grid of 1e13 samples
    (["otoc", "--n", "10", "--alpha", "0.4", "--tmax", "1e12", "--dt", "0.1",
      "--state", "level", "--level", "3", "--lambda", "1"],
     "a nonzero --lambda is inconsistent with --state level"),
    (["otoc", "--n", "30", "--alpha", "0.4", "--tmax", "1e12", "--dt", "0.1",
      "--state", "level", "--level", "99"], "level index 99 outside [0, 30]"),
    # horizons and fields whose phases E t keep no digits: eps * span * T >= 1
    (_OTOC + ["--lambda", "1e307"], "field strength 1e+307 at N=10: over a horizon of 1 "),
    (_SWEEP + ["--lambdas", "0,1e150"], "field strength 1e+150 at N=10: over a horizon of 20 "),
    (["sweep", "--n", "400", "--alphas", "0.4", "--lambdas", "0,1", "--tavg", "1e14"],
     "at N=400: over a horizon of 1e+14 "),
    (["sweep", "--n", "400", "--alphas", "0.4", "--lambdas", "1", "--tavg", "7.5e12"],
     "field strength 1 at N=400: over a horizon of 7.5e+12 "),
    (["otoc", "--n", "10", "--alpha", "0.4", "--state", "level", "--level", "2",
      "--tmax", "1e15", "--dt", "1e13"], "field strength 0 at N=10: over a horizon of 1e+15 "),
    # a --sizes entry is refused before the --n scan writes its tables
    (["micro", "--n", "10", "--alpha", "0.4", "--tavg", "20", "--dt", "0.5", "--sizes", "0"],
     "n_spins must be"),
    (["micro", "--n", "10", "--alpha", "0.4", "--tavg", "2e12", "--sizes", "10,4000"],
     "field strength 0 at N=4000: over a horizon of 2e+12 "),
    (["fit", "--kind", "mu", "--alpha", "0.4", "--sizes", "10,20,4000", "--tavg", "1e12"],
     "field strength 1 at N=4000: over a horizon of 1e+12 "),
    (["fit", "--kind", "gamma-epsilon", "--alpha", "0.4", "--n", "20", "--window", "0.01,2",
      "--tavg", "1e15"], "field strength 0 at N=20: over a horizon of 1e+15 ")],
    ids=["window-zero", "window-negative", "window-past-critical", "window-below-ulp",
         "sweep-alpha", "sweep-no-spins", "sweep-inf", "sweep-nan", "sweep-negative",
         "otoc-inf", "sweep-overflow", "otoc-overflow", "otoc-level-field",
         "otoc-level-range", "otoc-phases", "sweep-phases", "sweep-horizon",
         "sweep-horizon-at-bound", "otoc-level-horizon", "micro-no-spins", "micro-sizes-horizon",
         "fit-mu-horizon", "fit-gamma-epsilon-horizon"])
def test_refused_input_exits_4_before_any_work(tmp_path, monkeypatch, capsys, argv, message):
    solves = []
    monkeypatch.setattr(otoc, "eigh", lambda pair: solves.append(pair))
    otoc._bare_ground.cache_clear()
    assert main(argv + ["--out", str(tmp_path / "x")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert os.listdir(tmp_path) == [] and solves == []


@pytest.mark.filterwarnings("error")
def test_a_mu_fit_over_one_size_exits_4_and_leaves_no_run_directory(tmp_path, capsys):
    # the N = 10 cell is solved, once; the fit then refuses its one abscissa
    argv = ["fit", "--kind", "mu", "--alpha", "0.4", "--sizes", "10,10,10", "--tavg", "100",
            "--dt", "0.5", "--out", str(tmp_path / "x")]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "got 3 with 1 distinct" in err
    assert os.listdir(tmp_path) == []


def test_a_refused_sweep_leaves_an_earlier_checkpoint_as_it_was(tmp_path):
    out = tmp_path / "x"
    out.mkdir()
    record = '{"alpha": 0.4, "lambda": 0.0}\n'
    (out / "cells.jsonl").write_text(record)
    assert main(_SWEEP + ["--lambdas", "0,-0.5", "--out", str(out)]) == 4
    assert os.listdir(out) == ["cells.jsonl"]
    assert (out / "cells.jsonl").read_text() == record


@pytest.mark.parametrize("message", [
    "Unable to allocate 7.28 TiB for an array with shape (1000000000001,) "
    "and data type float64", ""], ids=["numpy", "bare"])
def test_running_out_of_memory_exits_6(tmp_path, monkeypatch, capsys, message):
    def runner(opts, run_dir):
        raise MemoryError(message)

    summary, _, options = _COMMANDS["otoc"]
    monkeypatch.setitem(_COMMANDS, "otoc", (summary, runner, options))
    # the run root and the run directory are both made for the run
    monkeypatch.setenv("LMG_OTOC_RUNS", str(tmp_path / "runs"))
    assert main(_OTOC) == 6
    assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("tmax, dt", [("1e19", "1"), ("1e18", "0.1"), ("1e6", "1e-300")])
def test_a_grid_numpy_cannot_index_exits_6(tmp_path, capsys, tmax, dt):
    # 1e19 samples, past the most numpy can index: refused like one that does not fit
    argv = ["otoc", "--n", "10", "--alpha", "0.4", "--tmax", tmax, "--dt", dt]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 6
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # the sample count to three digits, not all 307 of 1e306
    assert f"a time grid of {float(tmax) / float(dt):.2e} samples" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "20", "--alpha", "0.4"],
    ["micro", "--n", "20", "--alpha", "0.4", "--tavg", "10", "--dt", "0.5"],
    ["otoc", "--n", "20", "--alpha", "0.4", "--tmax", "1", "--state", "level",
     "--level", "7"]], ids=["spectrum", "micro", "otoc-level"])
def test_level_commands_solve_only_the_parity_blocks(tmp_path, monkeypatch, argv):
    dims = []
    solve = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: dims.append(len(a)) or solve(a))
    otoc._bare_ground.cache_clear()
    rc, _ = run(tmp_path, *argv)
    assert rc == 0
    assert sorted(dims) == [10, 11]      # no dense 21 x 21 solve


def test_workers_help_states_the_default_the_code_uses(capsys):
    assert main(["sweep", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("default $LMG_OTOC_WORKERS, else the number of cores this process may "
            "run on" in text)
    assert "BLAS" not in text


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("n=10\nalpha=0.4   # comment\ntmax=2\ndt=0.5\n")
    out = tmp_path / "run"
    rc = main(["otoc", "--config", str(conf), "--dt", "1.0",
               "--out", str(out)])
    assert rc == 0
    params = manifest_of(out)["parameters"]
    assert params["n"] == 10 and params["alpha"] == 0.4
    assert params["dt"] == 1.0             # flag beat the file
    assert params["tmax"] == 2.0
    assert params["config_file"] == str(conf)


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("whatkey=3\n")
    assert main(["spectrum", "--n", "4", "--alpha", "0.4",
                 "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    malformed = tmp_path / "mal.conf"
    malformed.write_text("just a line\n")
    assert main(["spectrum", "--n", "4", "--alpha", "0.4",
                 "--config", str(malformed), "--out", str(tmp_path / "y")]) == 2
    assert main(["spectrum", "--n", "4", "--alpha", "0.4",
                 "--config", str(tmp_path / "absent.conf"),
                 "--out", str(tmp_path / "z")]) == 2


def test_a_config_key_set_twice_is_a_usage_error(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("n=10\nalpha=0.4\n\n n = 12  # again\n")
    assert main(["spectrum", "--config", str(conf), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {conf}:4: n set twice\n"
    assert os.listdir(tmp_path) == ["run.conf"]


def test_manifest_references_existing_outputs(tmp_path):
    rc, out = run(tmp_path, "micro", "--n", "8", "--alpha", "0.2",
                  "--tavg", "50", "--dt", "0.5")
    assert rc == 0
    doc = manifest_of(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "micro"
    assert doc["engine_version"]
    assert doc["duration_seconds"] >= 0.0
    for name in doc["outputs"]:
        assert (out / name).exists()
    listed = set(doc["outputs"]) | {"manifest.json"}
    assert listed == set(os.listdir(out))  # one manifest, nothing orphaned


def test_default_run_directory_uses_env_root(tmp_path, monkeypatch):
    monkeypatch.setenv("LMG_OTOC_RUNS", str(tmp_path / "root"))
    rc = main(["spectrum", "--n", "4", "--alpha", "0.4"])
    assert rc == 0
    runs = os.listdir(tmp_path / "root")
    assert len(runs) == 1 and runs[0].startswith("spectrum-")


def test_csv_numbers_round_trip(tmp_path):
    rc, out = run(tmp_path, "spectrum", "--n", "40", "--alpha", "0.37")
    assert rc == 0
    from lmg_otoc import LmgParams, SpinSector
    want = np.sort(otoc._bare_frame(LmgParams(0.37, SpinSector(40)))[0].energies)
    _, rows = read_csv(out / "spectrum.csv")
    got = np.array([r[1] for r in rows])
    assert np.array_equal(got, want)       # exact, not merely close
