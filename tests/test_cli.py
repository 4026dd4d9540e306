"""End-to-end CLI behavior: files, formats, exit codes, determinism."""

import json
import os

import numpy as np
import pytest

from lmg_otoc.cli import _OPTIONS, build_parser, main
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


def test_every_option_is_a_flag_of_its_command(capsys):
    parser = build_parser()
    for command, options in _OPTIONS.items():
        assert set(options) <= set(vars(parser.parse_args([command])))
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        for key in options:
            assert f"--{key} " in text or f"--{key}\n" in text


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


def test_otoc_eigenstate_protocol(tmp_path):
    rc, out = run(tmp_path, "otoc", "--n", "10", "--alpha", "0.4",
                  "--state", "level", "--level", "3", "--tmax", "2",
                  "--dt", "0.5")
    assert rc == 0
    assert manifest_of(out)["diagnostics"]["protocol"] == "microcanonical"


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


def test_workers_is_an_option_of_sweep_and_fit_only(tmp_path, monkeypatch):
    assert main(["spectrum", "--n", "4", "--alpha", "0.4", "--workers", "2",
                 "--out", str(tmp_path / "spectrum")]) == 2
    assert [c for c in _OPTIONS if "workers" in _OPTIONS[c]] == ["sweep", "fit"]
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
    from lmg_otoc import LmgParams, SpinSector, build_hamiltonian, eigh
    want = eigh(build_hamiltonian(LmgParams(0.37, SpinSector(40)))).values
    _, rows = read_csv(out / "spectrum.csv")
    got = np.array([r[1] for r in rows])
    assert np.array_equal(got, want)       # exact, not merely close
