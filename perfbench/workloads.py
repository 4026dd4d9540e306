"""The benchmark's two CLI workloads: their arguments for a seed, the work
each one does, and the checks its outputs must pass.

Seed 0 gives the fixed reference cases. Any other seed draws new model
parameters but keeps the system size, cell count, sample count and worker
count, so the cost of a run stays comparable across seeds.
"""

import json
import os
import random

import numpy as np

WORKLOADS = ("quench-sweep", "dense-trace")

SWEEP_N = 400
SWEEP_ALPHAS = 2
SWEEP_LAMBDAS = 5          # lambda = 0 plus four nonzero fields
SWEEP_WORKERS = 2
TRACE_N = 400
TRACE_TMAX = 2000
TRACE_DT = 0.05
TRACE_SAMPLES = 40001

# Work each invocation completes, the numerator of work_per_s.
WORK_UNITS = {
    "quench-sweep": SWEEP_ALPHAS * SWEEP_LAMBDAS,             # cells
    "dense-trace": TRACE_SAMPLES,                             # trace samples
}

ABS_TOL = 1e-6             # against the seed-0 reference
UNIT_TOL = 1e-12           # normalised reference values equal 1
MOMENT_TOL = 1e-10         # F(0) against the fourth moment of Sx/S
C_NORM_FLOOR = -1e-12      # the commutator norm is nonnegative

# Result columns compared with the stored reference, per workload.
REFERENCE_COLUMNS = {
    "quench-sweep": ("fbar_raw", "fbar_norm"),
    "dense-trace": ("t", "re_f", "im_f", "c", "re_a"),
}


def _draw(rng, lo, hi):
    return round(rng.uniform(lo, hi), 3)


def _distinct(rng, count, lo, hi):
    values = set()
    while len(values) < count:
        values.add(_draw(rng, lo, hi))
    return sorted(values)


def _csv(values):
    return ",".join(f"{v:g}" for v in values)


def cli_args(workload, seed):
    """Arguments for one CLI invocation, without --out."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if seed == 0:
        return {
            "quench-sweep": ["sweep", "--n", "400", "--alphas", "0.2,0.4",
                             "--lambdas", "0,0.5,1,1.5,2", "--workers", "2"],
            "dense-trace": ["otoc", "--n", "400", "--alpha", "0.4",
                            "--lambda", "1.0", "--tmax", "2000", "--dt", "0.05",
                            "--plot"],
        }[workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "quench-sweep":
        alphas = _distinct(rng, SWEEP_ALPHAS, 0.1, 0.7)
        lambdas = [0.0] + _distinct(rng, SWEEP_LAMBDAS - 1, 0.001, 2.0)
        return ["sweep", "--n", str(SWEEP_N), "--alphas", _csv(alphas),
                "--lambdas", _csv(lambdas), "--workers", str(SWEEP_WORKERS)]
    return ["otoc", "--n", str(TRACE_N), "--alpha", f"{_draw(rng, 0.1, 0.7):g}",
            "--lambda", f"{_draw(rng, 0.001, 2.0):g}", "--tmax", str(TRACE_TMAX),
            "--dt", f"{TRACE_DT:g}", "--plot"]


def option(argv, name):
    """Value following --name in an argument list."""
    return argv[argv.index(f"--{name}") + 1]


def read_csv(path):
    """Columns of a result CSV (a units comment line, then a header) as arrays."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header = lines[0].strip().split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} fields under {len(header)} columns")
    return {name: data[:, k] for k, name in enumerate(header)}


def ground_x_fourth_moment(n_spins, alpha):
    """<psi0|(Sx/S)^4|psi0> for the ground state of the X-basis Hamiltonian.

    Independent of the program: builds the tridiagonal matrix
    -(2(1-alpha)/S) m^2 + alpha S on the diagonal and
    (alpha/2) sqrt(S(S+1) - m(m+1)) between m and m+1. The moment is even in
    m, so it is the same for any basis LAPACK picks in the ground doublet.
    """
    s = n_spins / 2
    m = np.arange(n_spins + 1) - s
    off = (alpha / 2) * np.sqrt(s * (s + 1) - m[:-1] * (m[:-1] + 1))
    h = np.diag(-(2 * (1 - alpha) / s) * m * m + alpha * s)
    h += np.diag(off, 1) + np.diag(off, -1)
    vectors = np.linalg.eigh(h)[1]
    return float(vectors[:, 0] ** 2 @ (m / s) ** 4)


class Check:
    """Collects the problems found in one invocation's outputs and the worst
    deviation seen by any numerical comparison."""

    def __init__(self):
        self.problems = []
        self.max_abs_dev = 0.0

    def require(self, condition, message):
        if not condition:
            self.problems.append(message)

    def close(self, name, actual, expected, tol):
        actual = np.asarray(actual, dtype=float)
        expected = np.asarray(expected, dtype=float)
        if actual.shape != expected.shape:
            self.problems.append(f"{name}: shape {actual.shape} != {expected.shape}")
            return
        dev = float(np.max(np.abs(actual - expected), initial=0.0))
        if not np.isfinite(dev):
            self.problems.append(f"{name}: non-finite deviation")
            return
        self.max_abs_dev = max(self.max_abs_dev, dev)
        self.require(dev <= tol, f"{name}: deviation {dev:.3e} above {tol:g}")


def _check_sweep(argv, out, columns, check):
    alphas = [float(a) for a in option(argv, "alphas").split(",")]
    lambdas = [float(v) for v in option(argv, "lambdas").split(",")]
    rows = len(alphas) * len(lambdas)
    check.close("sweep.csv alpha", columns["alpha"], np.repeat(alphas, len(lambdas)), 0.0)
    check.close("sweep.csv lambda", columns["lambda"], np.tile(lambdas, len(alphas)), 0.0)
    zero = columns["lambda"] == 0.0
    check.require(zero.sum() == len(alphas), "sweep.csv: one lambda=0 cell per alpha expected")
    check.close("sweep.csv fbar_norm at lambda=0", columns["fbar_norm"][zero],
                np.ones(int(zero.sum())), UNIT_TOL)
    with open(os.path.join(out, "cells.jsonl")) as fh:
        cells = sum(1 for line in fh if line.strip())
    check.require(cells == rows, f"cells.jsonl: {cells} records for {rows} cells")


def _check_trace(argv, out, columns, check):
    n, alpha = int(option(argv, "n")), float(option(argv, "alpha"))
    check.require(columns["t"].size == TRACE_SAMPLES,
                  f"otoc.csv: {columns['t'].size} samples, expected {TRACE_SAMPLES}")
    check.close("otoc.csv re_f at t=0", columns["re_f"][:1],
                [ground_x_fourth_moment(n, alpha)], MOMENT_TOL)
    with open(os.path.join(out, "manifest.json")) as fh:
        min_c_norm = json.load(fh)["diagnostics"]["min_c_norm"]
    check.require(min_c_norm >= C_NORM_FLOOR, f"manifest: min_c_norm {min_c_norm:.3e} below {C_NORM_FLOOR:g}")


OUTPUTS = {
    # workload: (result CSV, every file the run must leave, invariant check)
    "quench-sweep": ("sweep.csv", ("sweep.csv", "heatmap.dat", "cells.jsonl", "manifest.json"),
                     _check_sweep),
    "dense-trace": ("otoc.csv", ("otoc.csv", "otoc.dat", "otoc.svg", "manifest.json"),
                    _check_trace),
}


def reference_path(reference_dir, workload):
    return os.path.join(reference_dir, f"{workload}.npz")


def check_outputs(workload, argv, out, reference_dir=None):
    """Check one invocation's output directory.

    Invariants hold for every seed; reference_dir, given for seed 0, adds a
    comparison of the result columns with the stored reference values.
    """
    check = Check()
    table, expected, invariants = OUTPUTS[workload]
    missing = [f for f in expected if not os.path.isfile(os.path.join(out, f))]
    if missing:
        check.problems.append(f"missing outputs: {missing}")
        return check
    try:
        columns = read_csv(os.path.join(out, table))
        for name, values in columns.items():
            check.require(np.all(np.isfinite(values)), f"{table} {name}: non-finite values")
        invariants(argv, out, columns, check)
    except (ValueError, KeyError, IndexError) as exc:
        check.problems.append(f"outputs unreadable: {exc!r}")
        return check
    if reference_dir is not None:
        with np.load(reference_path(reference_dir, workload)) as ref:
            for name in REFERENCE_COLUMNS[workload]:
                check.close(f"{table} {name} vs reference", columns[name], ref[name], ABS_TOL)
    return check
