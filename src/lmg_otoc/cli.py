"""Command-line front end: spectrum, otoc, micro, sweep, fit.

Options resolve as flags > config file > built-in defaults. Every run gets
its own directory (explicit --out, or a timestamped one under the run
root) holding the output tables plus exactly one manifest that records the
resolved parameters, grids, diagnostics and file list. Worker threads only
compute; all file writes stay on the main thread.
"""

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import (DEFAULT_ENERGY_FIT_WINDOW, DEFAULT_FIELD_FIT_WINDOW,
                       DEFAULT_SIZES, AveragingConfig, dn_diagnostic,
                       microcanonical_scan, quench_sweep,
                       scaling_gamma_epsilon, scaling_gamma_lambda,
                       scaling_mu)
from .errors import DomainError, NumericalError
from .model import LmgParams, QuenchSpec, SpinSector, rescale_energies
from .otoc import (DEFAULT_AVERAGING_DT, DEFAULT_AVERAGING_TIME,
                   DEFAULT_DYNAMICS_DT, WORKERS_ENV, LongTimeAverage, _bare_frame,
                   _check_level, _check_phases, commutator_series, commutator_series_micro,
                   make_time_grid, resolve_workers)
from .output import (emit_heatmap_dat, emit_line_dat, format_column, write_csv,
                     write_manifest, write_svg_line)

RUNS_ENV = "LMG_OTOC_RUNS"


class UsageError(Exception):
    """Bad or missing options; exits with code 2."""


# The casts raise argparse.ArgumentTypeError: argparse prints its text for a
# flag, as a config line does, where for a ValueError it names the cast.
def _list_of(kind):
    """The cast of a comma- or space-separated list of kind values."""
    def cast(text):
        try:
            values = tuple(kind(p) for p in text.replace(",", " ").split())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not values:
            raise argparse.ArgumentTypeError("empty list")
        return values
    return cast


def _parse_window(text):
    window = _list_of(float)(text)
    if len(window) != 2 or not window[0] < window[1]:
        raise argparse.ArgumentTypeError(f"expected lo,hi with lo < hi, got {text!r}")
    return window


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _worker_count(text):
    try:
        return resolve_workers(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _choice(*allowed):
    def cast(text):
        if text not in allowed:
            raise ValueError(f"expected one of {allowed}, got {text!r}")
        return text
    cast.choices = allowed
    return cast


def _load_config(path):
    """Plain key=value lines; # starts a comment, blanks ignored."""
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = (part.strip() for part in line.partition("="))
            if key in values:
                raise UsageError(f"{path}:{lineno}: {key} set twice")
            values[key] = val
    return values


def _resolve_options(command, args, config):
    """flags > config file > defaults; missing required keys, and options the
    resolved --kind does not use, are fatal."""
    _, _, spec = _COMMANDS[command]
    unknown = set(config) - set(spec)
    if unknown:
        raise UsageError(f"config keys not understood by {command}: {sorted(unknown)}")
    out = {}
    for key, (cast, default, required, _) in spec.items():
        flag_value = getattr(args, key, None)
        if isinstance(default, dict):
            if out["kind"] not in default and (flag_value is not None or key in config):
                raise UsageError(f"--{key} is not used by {command} --kind {out['kind']}")
            default = default.get(out["kind"])
        if flag_value is not None:
            out[key] = flag_value
        elif key in config:
            try:
                out[key] = cast(config[key])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"config value for {key}: {exc}") from None
        else:
            out[key] = default
        if required and out[key] is None:
            raise UsageError(f"missing required option --{key}")
    return out


def _make_run_dir(command, out_flag):
    """Make the run directory; return it and the directories made for it."""
    path = out_flag
    if not out_flag:
        root = os.environ.get(RUNS_ENV, "runs")
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
        base = os.path.join(root, f"{command}-{stamp}")
        path = base
        k = 1
        while os.path.exists(path):
            path = f"{base}-{k}"
            k += 1
    full = Path(path).absolute()
    made = [p for p in (full, *full.parents) if not p.exists()]     # deepest first
    os.makedirs(path, exist_ok=True)
    return path, made


def _show(default):
    """A default as the help text names it: lists comma-joined, per kind
    (kinds that take the option without a default left out)."""
    if isinstance(default, dict):
        return ", ".join(f"{_show(v)} for {kind}" for kind, v in default.items()
                         if v is not None)
    return ",".join(map(str, default)) if isinstance(default, tuple) else str(default)


def _workers(requested):
    """resolve_workers, with a $LMG_OTOC_WORKERS that is not an integer of at
    least 1 a usage error (the flag and config key are checked on parsing)."""
    try:
        return resolve_workers(requested)
    except ValueError:
        raise UsageError(f"{WORKERS_ENV}: invalid worker count {os.environ[WORKERS_ENV]!r}; "
                         f"need an integer of at least 1") from None


def _run_spectrum(opts, run_dir):
    params = LmgParams(opts["alpha"], SpinSector(opts["n"]))
    # doublet partners can sit ~1e-13 out of order
    energies = np.sort(_bare_frame(params)[0].energies)
    n = opts["n"]
    try:
        rescaled = rescale_energies(energies)
    except DomainError as exc:      # a flat spectrum: N = 1 at alpha = 0
        print(f"warning: {exc}; rescaled_energy left blank", file=sys.stderr)
        rescaled = [None] * energies.size
    write_csv(os.path.join(run_dir, "spectrum.csv"),
              ("n", "energy", "energy_per_spin", "rescaled_energy"),
              ("index", "model units", "model units", "dimensionless"),
              (range(energies.size), energies, energies / n, rescaled))
    return (["spectrum.csv"], {},
            {"dimension": params.sector.dimension,
             "ground_energy_per_spin": float(energies[0]) / n})


def _run_otoc(opts, run_dir):
    if opts["state"] == "ground" and opts["level"] is not None:
        raise UsageError("--level is not used by otoc --state ground")
    if opts["state"] == "level" and opts["level"] is None:
        raise UsageError("--state level needs --level")
    if opts["state"] == "level" and opts["lambda"] != 0.0:
        raise DomainError("eigenstate traces evolve under the bare Hamiltonian; "
                          "a nonzero --lambda is inconsistent with --state level")
    params = LmgParams(opts["alpha"], SpinSector(opts["n"]))
    if opts["state"] == "level":
        _check_level(params.sector, opts["level"])
    opts["workers"] = _workers(None)
    times = make_time_grid(opts["tmax"], opts["dt"])
    if opts["state"] == "level":
        series = commutator_series_micro(params, opts["level"], times,
                                         workers=opts["workers"])
    else:
        series = commutator_series(QuenchSpec(params, opts["lambda"]), times,
                                   workers=opts["workers"])

    # t and re_f go to both files: format them once
    t_cells = format_column(series.times)
    re_f_cells = format_column(series.f_values.real)
    write_csv(os.path.join(run_dir, "otoc.csv"), ("t", "re_f", "im_f", "c", "re_a"),
              ("time", "dimensionless", "dimensionless", "dimensionless",
               "dimensionless"),
              (t_cells, re_f_cells, series.f_values.imag, series.c_values,
               series.a_values.real))
    emit_line_dat(os.path.join(run_dir, "otoc.dat"), t_cells, re_f_cells)
    outputs = ["otoc.csv", "otoc.dat"]
    if opts["plot"]:
        write_svg_line(os.path.join(run_dir, "otoc.svg"),
                       series.times, series.f_values.real,
                       x_label="t [time]", y_label="re_f [dimensionless]",
                       title=series.state_label)
        outputs.append("otoc.svg")
    grid = {"tmax": float(times[-1]), "dt": opts["dt"], "samples": int(times.size)}
    diag = {"protocol": series.protocol,
            "max_abs_im_f": float(abs(series.f_values.imag).max()),
            "min_c": float(series.c_values.min()),
            "min_c_norm": float(series.c_norm_values.min()),
            "kept_levels": {"even": series.kept_levels[0],
                            "odd": series.kept_levels[1],
                            "dimension": params.sector.dimension},
            "truncation_bound": series.truncation_bound}
    return outputs, grid, diag


def _run_micro(opts, run_dir):
    params = LmgParams(opts["alpha"], SpinSector(opts["n"]))
    config = AveragingConfig(opts["tavg"], opts["dt"])
    for s in opts["sizes"] or ():      # refused, if at all, before any scan
        _check_phases(QuenchSpec(LmgParams(opts["alpha"], SpinSector(s)), 0.0), config.steps)
    scan = microcanonical_scan(params, config)
    write_csv(os.path.join(run_dir, "micro.csv"),
              ("n", "energy_per_spin", "rescaled_energy", "fbar_n_raw", "fbar_n_norm"),
              ("index", "model units", "dimensionless", "dimensionless",
               "dimensionless"),
              (range(scan.energies.size), scan.energies_per_spin, scan.rescaled,
               scan.fbar_raw, scan.fbar_norm))
    emit_line_dat(os.path.join(run_dir, "micro.dat"),
                  scan.rescaled, scan.fbar_norm)
    outputs = ["micro.csv", "micro.dat"]
    scans = {opts["n"]: scan}       # by N, each --sizes entry scanned once
    if opts["plot"]:
        write_svg_line(os.path.join(run_dir, "micro.svg"),
                       scan.rescaled, scan.fbar_norm,
                       x_label="rescaled_energy [dimensionless]",
                       y_label="fbar_n_norm [dimensionless]",
                       title=f"alpha={opts['alpha']}, N={opts['n']}")
        outputs.append("micro.svg")
    if opts["sizes"]:
        for s in opts["sizes"]:
            if s not in scans:
                scans[s] = microcanonical_scan(LmgParams(opts["alpha"], SpinSector(s)), config)
        write_csv(os.path.join(run_dir, "dn.csv"),
                  ("n_spins", "n_c", "window_lo", "window_hi", "dn"),
                  ("count", "index", "index", "index", "dimensionless"),
                  dn_diagnostic(scans[s] for s in opts["sizes"]))
        outputs.append("dn.csv")
    diag = {"reference_fbar": float(scan.fbar_raw[0]),
            "critical_rescaled": float(scan.critical_rescaled),
            "flagged_levels": int(scan.flagged.sum()),
            "truncation_bound": max(s.truncation_bound for s in scans.values())}
    return outputs, _averaging_grid(opts, config), diag


def _averaging_grid(opts, config):
    """The manifest's time grid of an averaging command, to the K dt it averages over."""
    dt, steps, _ = config.steps
    return {"total_time": steps * dt, "dt": opts["dt"], "samples": steps + 1}


# run settings every checkpoint record carries; a resumed run must match them
_CHECKPOINT_KEYS = ("n", "tavg", "dt")


def _load_checkpoint(path, settings):
    """A LongTimeAverage per cell from cells.jsonl of an earlier run with these settings.

    A record is written with its newline in one go, so a last line without
    one was cut short by a kill: it is cut off the file with a warning and
    its cell is computed again. Any other unreadable line, a record of a
    run with other settings, or one without a truncation bound, is refused.
    """
    with open(path, "rb") as fh:
        lines = fh.readlines()
    if lines and not lines[-1].endswith(b"\n"):
        torn = lines.pop()
        print(f"warning: {path}:{len(lines) + 1}: dropping torn record "
              f"{torn[:60]!r}; its cell is recomputed", file=sys.stderr)
        with open(path, "r+b") as fh:
            fh.truncate(sum(len(line) for line in lines))
    cells = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            key = (rec["alpha"], rec["lambda"])
            value = (rec["fbar_raw"], rec["halfwidth"])
        except (ValueError, TypeError, KeyError) as exc:
            raise UsageError(f"{path}:{lineno}: malformed checkpoint record ({exc!r})") from None
        if "truncation_bound" not in rec:
            raise UsageError(f"{path}:{lineno}: checkpoint record has no truncation_bound; "
                             f"use a fresh --out")
        for name in _CHECKPOINT_KEYS:
            if rec.get(name) != settings[name]:
                raise UsageError(
                    f"{path}:{lineno}: checkpoint has {name}={rec.get(name)!r} but "
                    f"this run has {name}={settings[name]!r}; resume with the same "
                    f"settings or use a fresh --out")
        cells[key] = LongTimeAverage(*value, rec["truncation_bound"])
    return cells


def _run_sweep(opts, run_dir):
    config = AveragingConfig(opts["tavg"], opts["dt"])
    opts["workers"] = _workers(opts["workers"])
    cells_path = os.path.join(run_dir, "cells.jsonl")
    settings = {name: opts[name] for name in _CHECKPOINT_KEYS}
    precomputed = {}
    resume = opts["resume"] and os.path.exists(cells_path)
    if resume:
        precomputed = _load_checkpoint(cells_path, settings)

    # opened per record, so a sweep refused before any cell writes nothing
    # and leaves an earlier checkpoint as it was
    mode = "a" if resume else "w"

    def on_cell(cell, avg):
        nonlocal mode
        with open(cells_path, mode) as fh:
            fh.write(json.dumps(
                {"alpha": cell[0], "lambda": cell[1], "fbar_raw": avg.value,
                 "halfwidth": avg.estimator_halfwidth,
                 "truncation_bound": avg.truncation_bound, **settings}) + "\n")
        mode = "a"

    grid = quench_sweep(opts["alphas"], opts["lambdas"], opts["n"], config,
                        max_workers=opts["workers"], precomputed=precomputed,
                        on_cell=on_cell)

    for a, lam_c in zip(grid.alphas, grid.lambda_c):
        if np.isnan(lam_c):
            print(f"warning: critical field undefined at alpha={a}; "
                  f"overlay left empty", file=sys.stderr)
        if a in grid.row_errors:
            print(f"warning: alpha={a}: {grid.row_errors[a]}", file=sys.stderr)
    # one row per cell in sweep order; an aborted row's values are NaN,
    # written blank, and it has no heat map block
    per_row = len(grid.lambdas)
    write_csv(os.path.join(run_dir, "sweep.csv"),
              ("alpha", "lambda", "fbar_raw", "fbar_norm", "halfwidth", "lambda_c"),
              ("dimensionless", "field", "dimensionless", "dimensionless",
               "dimensionless", "field"),
              (np.repeat(grid.alphas, per_row), np.tile(grid.lambdas, len(grid.alphas)),
               grid.fbar_raw.ravel(), grid.fbar_norm.ravel(), grid.halfwidths.ravel(),
               np.repeat(grid.lambda_c, per_row)))
    kept = [k for k, a in enumerate(grid.alphas) if a not in grid.row_errors]
    emit_heatmap_dat(os.path.join(run_dir, "heatmap.dat"), [grid.alphas[k] for k in kept],
                     grid.lambdas, grid.fbar_norm[kept])
    outputs = ["sweep.csv", "heatmap.dat", "cells.jsonl"]
    diag = {"cells": grid.fbar_raw.size,
            "flagged_cells": int(grid.flagged.sum()),
            "aborted_alphas": sorted(grid.row_errors),
            "truncation_bound": grid.truncation_bound}
    return outputs, _averaging_grid(opts, config), diag


def _run_fit(opts, run_dir):
    config = AveragingConfig(opts["tavg"], opts["dt"])
    kind = opts["kind"]
    if kind != "gamma-epsilon":
        opts["workers"] = _workers(opts["workers"])
    if kind == "mu":
        fit = scaling_mu(opts["alpha"], opts["sizes"], config,
                         max_workers=opts["workers"])
        point_cols, point_units = ("n_spins", "fbar_raw"), ("count", "dimensionless")
    elif kind == "gamma-lambda":
        fit = scaling_gamma_lambda(opts["alpha"], opts["n"], config=config,
                                   window=opts["window"], max_workers=opts["workers"])
        point_cols, point_units = (("field_distance", "fbar_norm"),
                                   ("field", "dimensionless"))
    else:
        scan = microcanonical_scan(LmgParams(opts["alpha"], SpinSector(opts["n"])), config)
        fit = scaling_gamma_epsilon(scan, opts["window"])
        point_cols, point_units = (("energy_distance", "fbar_norm"),
                                   ("dimensionless", "dimensionless"))

    doc = {"kind": kind, "exponent": fit.exponent,
           "exponent_stderr": fit.exponent_stderr, "amplitude": fit.amplitude,
           "window": list(fit.window), "n_points": fit.n_points}
    with open(os.path.join(run_dir, "fit.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_csv(os.path.join(run_dir, "points.csv"), point_cols, point_units,
              (fit.xs, fit.ys))
    return (["fit.json", "points.csv"], _averaging_grid(opts, config),
            {"exponent": fit.exponent, "n_points": fit.n_points,
             "truncation_bound": fit.truncation_bound})


_N = "number of spins"
_ALPHA = "model parameter in [0, 1]"
_TAVG = "averaging horizon"
_DT = "averaging step"
_WORKERS = (f"worker-thread count (default ${WORKERS_ENV}, else the number of cores "
            "this process may run on)")

# per command: (help, runner, options); each option maps its name to
# (config cast, default, required, help), and the argparse flags are
# generated from them. A dict default is keyed by the resolved --kind;
# kinds it does not name refuse the option. A runner writes the worker
# count it settles back into opts, so the manifest records the count the
# run used.
_COMMANDS = {
    "spectrum": ("eigenvalue table", _run_spectrum, {
        "n": (int, None, True, _N),
        "alpha": (float, None, True, _ALPHA),
    }),
    "otoc": ("time trace of F, A and C", _run_otoc, {
        "n": (int, None, True, _N),
        "alpha": (float, None, True, _ALPHA),
        "lambda": (float, 0.0, False, "quench field strength"),
        "tmax": (float, 200.0, False, "trace horizon"),
        "dt": (float, DEFAULT_DYNAMICS_DT, False, "sample spacing"),
        "state": (_choice("ground", "level"), "ground", False,
                  "initial state: the bare ground state or the eigenstate "
                  "picked by --level"),
        "level": (int, None, False, "eigenstate index for --state level"),
        "plot": (_parse_bool, False, False, "also write an SVG of Re F(t)"),
    }),
    "micro": ("per-eigenstate long-time averages", _run_micro, {
        "n": (int, None, True, _N),
        "alpha": (float, None, True, _ALPHA),
        "tavg": (float, DEFAULT_AVERAGING_TIME, False, _TAVG),
        "dt": (float, DEFAULT_AVERAGING_DT, False, _DT),
        "sizes": (_list_of(int), None, False,
                  "comma-separated sizes for the near-critical spread summary"),
        "plot": (_parse_bool, False, False, "also write an SVG of the level profile"),
    }),
    "sweep": ("normalized averages over an (alpha, lambda) grid", _run_sweep, {
        "alphas": (_list_of(float), None, True, "comma-separated alpha values"),
        "lambdas": (_list_of(float), None, True, "comma-separated field strengths"),
        "n": (int, None, True, _N),
        "tavg": (float, DEFAULT_AVERAGING_TIME, False, _TAVG),
        "dt": (float, DEFAULT_AVERAGING_DT, False, _DT),
        "resume": (_parse_bool, False, False,
                   "reuse per-cell results already checkpointed in --out"),
        "workers": (_worker_count, None, False, _WORKERS),
    }),
    "fit": ("power-law exponent fits", _run_fit, {
        "kind": (_choice("mu", "gamma-lambda", "gamma-epsilon"), None, True,
                 "which exponent to fit"),
        "alpha": (float, None, True, _ALPHA),
        "n": (int, {"gamma-lambda": 400, "gamma-epsilon": 300}, False,
              "system size for the gamma fits"),
        "sizes": (_list_of(int), {"mu": DEFAULT_SIZES}, False,
                  "comma-separated sizes for the mu fit"),
        "window": (_parse_window, {"gamma-lambda": DEFAULT_FIELD_FIT_WINDOW,
                                   "gamma-epsilon": DEFAULT_ENERGY_FIT_WINDOW}, False,
                   "fit window lo,hi on the fitting abscissa"),
        "tavg": (float, DEFAULT_AVERAGING_TIME, False, _TAVG),
        "dt": (float, DEFAULT_AVERAGING_DT, False, _DT),
        "workers": (_worker_count, {"mu": None, "gamma-lambda": None}, False,
                    _WORKERS + "; used by the mu and gamma-lambda fits"),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lmg-otoc",
        description="Out-of-time-order correlators for a collective-spin "
                    "model: exact spectra, time traces, long-time-average "
                    "order-parameter sweeps and scaling fits.")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (summary, _, options) in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        for key, (cast, default, required, text) in options.items():
            if cast is _parse_bool:
                sp.add_argument(f"--{key}", dest=key, action="store_const", const=True,
                                help=text)
                continue
            if required:
                text += " (required)"
            elif default is not None and _show(default):
                text += f" (default {_show(default)})"
            if hasattr(cast, "choices"):
                sp.add_argument(f"--{key}", dest=key, choices=cast.choices, help=text)
            else:
                sp.add_argument(f"--{key}", dest=key, type=cast, help=text)
        sp.add_argument("--out", help="run directory (default: timestamped under "
                                      f"the run root, ${RUNS_ENV} or ./runs)")
        sp.add_argument("--config", help="key=value file supplying option defaults")
    return p


# documented failures; any other exception is a bug and keeps its traceback
_EXIT_CODES = {UsageError: 2, NumericalError: 3, DomainError: 4, OSError: 5,
               MemoryError: 6}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = _load_config(args.config) if args.config else {}
        opts = _resolve_options(args.command, args, config)
        run_dir, made = _make_run_dir(args.command, args.out)
        _, run, _ = _COMMANDS[args.command]
        start = time.monotonic()
        try:
            outputs, time_grid, diagnostics = run(opts, run_dir)
        except BaseException:
            # a failed run leaves none of its directories behind empty
            with contextlib.suppress(OSError):
                for directory in made:
                    directory.rmdir()           # refuses a directory not empty
            raise
        duration = time.monotonic() - start
        resolved = {**opts, "config_file": args.config}    # tuples dump as lists
        write_manifest(os.path.join(run_dir, "manifest.json"), args.command,
                       resolved, time_grid, diagnostics, duration, outputs)
        print(run_dir)
        return 0
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
