"""Normalization, sweeps, scans, and the power-law fits."""

import os
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lmg_otoc import (AveragingConfig, DomainError, LmgParams,
                      LongTimeAverage, NumericalError, SpinSector,
                      dn_diagnostic, fit_power_law, make_time_grid,
                      microcanonical_scan, quench_sweep, scaling_gamma_epsilon,
                      scaling_gamma_lambda, scaling_mu)
from lmg_otoc import analysis, otoc

FAST = AveragingConfig(100.0, 0.5)


def test_averaging_config_validation():
    with pytest.raises(DomainError):
        AveragingConfig(0.0, 0.5)
    with pytest.raises(DomainError):
        AveragingConfig(10.0, -0.1)
    with pytest.raises(DomainError):
        AveragingConfig(1.0, 2.0)
    grid = make_time_grid(10.0, 0.5)
    assert grid[0] == 0.0 and grid[-1] == 10.0
    assert AveragingConfig(10.0, 0.5).steps == (0.5, 20, 10)


def test_averaging_steps_are_those_of_the_time_grid():
    # the config works K out without a grid; it must be the K of the grid
    rng = np.random.default_rng(16)
    cases = [(0.5, 0.5), (0.3, 0.3), (10.5, 0.5), (200.5, 0.5), (10.0, 3.0),
             (1e4, 0.5), (1.5, 1.0), (2.5, 1.0), (0.75, 0.5)]
    dt = rng.uniform(1e-3, 1.0, 3000)
    tmax = dt * np.exp(rng.uniform(0.0, np.log(1e5), 3000))
    # a third of the horizons half a step off a whole count, where the
    # rounding decides K
    tmax[:1000] = (rng.integers(1, 10**5, 1000) + 0.5) * dt[:1000]
    cases += list(zip(tmax.tolist(), dt.tolist()))
    for tmax, dt in cases:
        steps = AveragingConfig(tmax, dt).steps
        want = otoc._grid_steps(make_time_grid(tmax, dt))[1]
        assert steps == want, (tmax, dt)
        assert [type(x) for x in steps] == [type(x) for x in want] == [float, int, int]


def test_an_averaging_config_builds_no_grid():
    tracemalloc.start()
    try:
        config = AveragingConfig(1e6, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert config.steps == (0.5, 2_000_000, 1_000_000)
    assert peak < 2**20


def test_fit_power_law_exact_square():
    x = np.linspace(1.0, 5.0, 7)
    fit = fit_power_law(x, 3.0 * x ** 2)
    assert abs(fit.exponent - 2.0) < 1e-12
    assert fit.exponent_stderr < 1e-12
    assert abs(fit.amplitude - 3.0) < 1e-12
    assert fit.n_points == 7
    assert fit.window == (1.0, 5.0)


def test_fit_power_law_constant():
    x = np.geomspace(0.1, 1.0, 5)
    fit = fit_power_law(x, np.full(5, 2.5))
    assert abs(fit.exponent) < 1e-12


def test_fit_power_law_recovers_noisy_exponent():
    rng = np.random.default_rng(42)
    x = np.geomspace(0.02, 0.5, 40)
    y = 1.7 * x ** 0.36 * np.exp(rng.normal(scale=0.01, size=40))
    fit = fit_power_law(x, y)
    assert abs(fit.exponent - 0.36) < 0.02
    assert 0.0 < fit.exponent_stderr < 0.05


def test_fit_power_law_window_and_filtering():
    x = np.array([0.05, 0.1, 0.2, 0.4, 0.8, 1.6])
    y = x ** 1.5
    fit = fit_power_law(x, y, window=(0.1, 0.8))
    assert fit.n_points == 4
    assert fit.window == (0.1, 0.8)       # actual points span the bounds here
    y_bad = y.copy()
    y_bad[0] = -1.0                       # nonpositive values drop out
    fit2 = fit_power_law(x, y_bad)
    assert fit2.n_points == 5
    with pytest.raises(DomainError):
        fit_power_law(x[:2], y[:2])
    with pytest.raises(DomainError):
        fit_power_law(x, y, window=(2.0, 3.0))
    # three points need three distinct abscissae; repeats beside them stay
    with pytest.raises(DomainError, match="3 usable points with distinct x"):
        fit_power_law([10.0, 10.0, 10.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError, match="got 4 with 2 distinct"):
        fit_power_law([0.1, 0.1, 0.2, 0.2], [1.0, 1.1, 2.0, 2.1])
    fit3 = fit_power_law(np.repeat(x[:3], 2), np.repeat(y[:3], 2))
    assert fit3.n_points == 6
    assert abs(fit3.exponent - 1.5) < 1e-12 and np.isfinite(fit3.exponent_stderr)


def test_fit_power_law_amplitude_scale_invariance():
    x = np.geomspace(0.1, 1.0, 9)
    y = x ** 0.7
    a = fit_power_law(x, y)
    b = fit_power_law(x, 13.0 * y)
    assert abs(a.exponent - b.exponent) < 1e-12
    assert abs(b.amplitude / a.amplitude - 13.0) < 1e-9


def test_quench_sweep_normalization_and_shape():
    grid = quench_sweep([0.4], [0.0, 0.3], 10, FAST, max_workers=1)
    for values in (grid.fbar_raw, grid.fbar_norm, grid.halfwidths, grid.flagged):
        assert values.shape == (1, 2)
    assert grid.flagged.dtype == bool
    assert grid.lambda_c.tolist() == [1.0]
    assert grid.fbar_norm[0, 0] == 1.0    # lambda=0 normalizes itself
    assert grid.reference.tolist() == [grid.fbar_raw[0, 0]]
    assert 0.0 < grid.fbar_norm[0, 1] <= 1.5
    assert not grid.row_errors


def test_quench_sweep_undefined_critical_field():
    grid = quench_sweep([0.9], [0.0], 8, FAST, max_workers=1)
    assert grid.lambda_c.shape == (1,) and np.isnan(grid.lambda_c[0])


def test_quench_sweep_row_abort_on_zero_reference():
    # the aborted row is reported in row_errors alone, with no warning
    seeded = {(0.4, 0.0): LongTimeAverage(0.0, 0.0, 0.0),
              (0.4, 0.3): LongTimeAverage(0.5, 0.001, 0.0)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = quench_sweep([0.4], [0.3], 10, FAST, precomputed=seeded)
    for values in (grid.fbar_raw, grid.fbar_norm, grid.halfwidths):
        assert values.shape == (1, 1) and np.isnan(values[0, 0])
    assert not grid.flagged[0, 0]
    assert grid.row_errors == {0.4: "zero-field reference 0.000e+00 below 1e-12; row aborted"}


def test_quench_sweep_reuses_precomputed_cells():
    calls = []
    grid1 = quench_sweep([0.4], [0.0, 0.3], 10, FAST,
                         on_cell=lambda cell, avg: calls.append((cell, avg)))
    assert len(calls) == 2
    pre = dict(calls)
    calls.clear()
    grid2 = quench_sweep([0.4], [0.0, 0.3], 10, FAST, precomputed=pre,
                         on_cell=lambda cell, avg: calls.append(cell))
    assert calls == []                    # nothing recomputed
    assert grid2.fbar_norm[0, 1] == grid1.fbar_norm[0, 1]
    assert grid2.truncation_bound == grid1.truncation_bound


def test_no_averaging_path_builds_or_checks_a_time_grid(monkeypatch):
    def refuse(*args):
        raise AssertionError("an average built or checked a time grid")

    for module in (otoc, analysis):
        for name in ("make_time_grid", "_grid_steps"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    config = AveragingConfig(1e3, 0.5)
    microcanonical_scan(LmgParams(0.4, SpinSector(12)), config)
    quench_sweep([0.2, 0.4], [0.0, 0.5, 1.0], 12, config, max_workers=2)


def _count_solves(monkeypatch):
    """Dimension of every eigh call made through the OTOC layer, with its
    cache of bare ground states emptied."""
    dims = []
    solve = otoc.eigh
    monkeypatch.setattr(otoc, "eigh", lambda pair: dims.append(len(pair[0])) or solve(pair))
    otoc._bare_ground.cache_clear()
    return dims


def test_quench_sweep_solves_the_bare_model_once_per_row(monkeypatch):
    dims = _count_solves(monkeypatch)
    # one dense 11 x 11 solve per row, at any row count (65 rows are more than
    # a memo of 64 holds), then the two parity blocks per cell
    for rows in (1, 65):
        dims.clear()
        otoc._bare_ground.cache_clear()
        quench_sweep(np.linspace(0.4, 0.7, rows), [0.0, 0.3, 0.6], 10, FAST, max_workers=2)
        assert sorted(dims) == [5] * 3 * rows + [6] * 3 * rows + [11] * rows


def test_quench_sweep_refuses_a_bad_field_before_any_solve(monkeypatch):
    dims = _count_solves(monkeypatch)
    with pytest.raises(DomainError, match="finite and nonnegative, got -0.5"):
        quench_sweep((0.4,), (0.0, -0.5), 10, FAST, max_workers=1)
    assert dims == []


def test_microcanonical_scan_solves_the_bare_model_once(monkeypatch):
    dims = _count_solves(monkeypatch)
    microcanonical_scan(LmgParams(0.4, SpinSector(20)), FAST)
    assert sorted(dims) == [10, 11]      # the two parity blocks, no dense solve


def _dense_solves_meet_in_pairs(monkeypatch, sizes):
    """Make every dense solve of a bare model of one of these sizes wait, in
    the OTOC layer, until a second one arrives: two such solves pass only
    if they run side by side."""
    barrier = threading.Barrier(2, timeout=10)
    dense = {n + 1 for n in sizes}
    solve = otoc.eigh

    def eigh(pair):
        if len(pair[0]) in dense:
            barrier.wait()
        return solve(pair)

    monkeypatch.setattr(otoc, "eigh", eigh)
    otoc._bare_ground.cache_clear()


def test_quench_sweep_solves_its_rows_side_by_side(monkeypatch):
    _dense_solves_meet_in_pairs(monkeypatch, [10])
    grid = quench_sweep([0.2, 0.4], [0.0, 0.5], 10, FAST, max_workers=2)
    assert not np.isnan(grid.fbar_norm).any()


def test_scaling_mu_solves_its_sizes_side_by_side(monkeypatch):
    # on 2 workers each thread's k-th dense solve meets the other's; the
    # parity blocks of these sizes (10 to 14 levels) never wait
    sizes = (20, 22, 24, 26)
    _dense_solves_meet_in_pairs(monkeypatch, sizes)
    assert scaling_mu(0.4, sizes, FAST, max_workers=2).n_points == 4


def test_scaling_mu_solves_a_repeated_size_once(monkeypatch):
    dims = _count_solves(monkeypatch)
    fit = scaling_mu(0.4, (20, 20, 22, 24), FAST, max_workers=2)
    # one dense solve and two parity blocks per distinct size
    assert sorted(dims) == [10, 11, 11, 12, 12, 13, 21, 23, 25]
    # the repeat still counts twice in the fit
    assert fit.n_points == 4 and fit.xs.tolist() == [20.0, 20.0, 22.0, 24.0]
    assert fit.ys[0] == fit.ys[1]


def test_scaling_gamma_lambda_solves_the_bare_model_once(monkeypatch):
    dims = _count_solves(monkeypatch)
    scaling_gamma_lambda(0.4, 10, config=FAST, window=(0.1, 0.3), max_workers=2)
    # one dense 11 x 11 solve, then the two parity blocks per field: the
    # window's eight and the zero-field reference
    assert sorted(dims) == [5] * 9 + [6] * 9 + [11]


def test_scaling_gamma_lambda_refuses_a_zero_reference(monkeypatch):
    def cell(spec, config):
        return LongTimeAverage(value=0.0 if spec.field_strength == 0.0 else 0.5,
                               estimator_halfwidth=0.0)

    monkeypatch.setattr(analysis, "quench_fbar", cell)
    # the fit's row is the sweep's; its error names the row the sweep aborted
    with warnings.catch_warnings(), pytest.raises(NumericalError) as caught:
        warnings.simplefilter("error")
        scaling_gamma_lambda(0.4, 10, config=FAST, window=(0.1, 0.3), max_workers=1)
    assert str(caught.value) == ("alpha=0.4: zero-field reference 0.000e+00 below 1e-12; "
                                 "row aborted")


def test_quench_sweep_settles_finished_cells_before_reraising(monkeypatch):
    # on 2 workers the lambda=0.5 cell fails at once while the reference
    # cell is still running: that cell must still reach on_cell, the
    # cells not yet started must never run, and the error must propagate
    started = []

    def cell(spec, config):
        started.append(spec.field_strength)
        if spec.field_strength == 0.5:
            raise NumericalError("cell failed")
        time.sleep(0.2)
        return LongTimeAverage(value=1.0, estimator_halfwidth=0.0)

    monkeypatch.setattr(analysis, "quench_fbar", cell)
    settled = []
    with pytest.raises(NumericalError, match="cell failed"):
        quench_sweep([0.4], [0.5, 1.0, 1.5], 10, FAST, max_workers=2,
                     on_cell=lambda cell, avg: settled.append(cell[1]))
    assert 0.0 in settled
    assert 1.5 not in started
    assert sorted(settled) == sorted(lam for lam in started if lam != 0.5)


def test_default_workers_count_usable_cores(monkeypatch):
    monkeypatch.delenv(otoc.WORKERS_ENV, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert otoc.resolve_workers() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert otoc.resolve_workers() == 64
    assert otoc.resolve_workers(3) == 3
    # a count below 1 is refused, from the caller or the variable
    for requested, env in ((0, None), (-2, None), (None, "0"), (None, "-2")):
        if env is not None:
            monkeypatch.setenv(otoc.WORKERS_ENV, env)
        with pytest.raises(ValueError, match="at least 1"):
            otoc.resolve_workers(requested)


def test_microcanonical_scan_structure():
    scan = microcanonical_scan(LmgParams(0.4, SpinSector(10)), FAST)
    assert scan.fbar_norm[0] == 1.0
    assert scan.rescaled[0] == 0.0 and scan.rescaled[-1] == 2.0
    assert scan.energies.size == 11
    assert scan.halfwidths.min() >= 0.0
    assert scan.flagged.dtype == np.bool_
    assert 0.0 < scan.critical_rescaled < 2.0


def test_free_model_scan_closed_form():
    # constant traces: each level average is exactly (m/S)^4 of its pair,
    # normalized by the edge value 1
    scan = microcanonical_scan(LmgParams(0.0, SpinSector(10)), FAST)
    m = np.array(sorted(np.abs(SpinSector(10).m_values()), reverse=True))
    want = (m / 5.0) ** 4
    assert np.max(np.abs(scan.fbar_raw - want)) < 1e-12
    assert np.max(np.abs(scan.fbar_norm - want)) < 1e-12


def test_free_model_spread_diagnostic():
    n_spins, n_c, lo, hi, dn = dn_diagnostic(
        [microcanonical_scan(LmgParams(0.0, SpinSector(10)), FAST)])
    assert n_spins.tolist() == [10]
    # the critical level is the top of the free spectrum; window clips
    assert n_c.tolist() == [10]
    assert (lo.tolist(), hi.tolist()) == ([0], [10])
    assert abs(dn[0] - 1.0) < 1e-12


def test_dn_windows_clip_to_spectrum():
    n_spins, n_c, lo, hi, dn = dn_diagnostic(
        [microcanonical_scan(LmgParams(0.4, SpinSector(n)), FAST) for n in (8, 40, 8)])
    assert n_spins.tolist() == [8, 40, 8]   # one entry per scan, in the order given
    for column in (n_spins, n_c, lo, hi):
        assert column.dtype.kind == "i"
    assert dn.dtype == np.float64
    assert np.all((0 <= lo) & (lo <= n_c) & (n_c <= hi) & (hi <= n_spins))
    assert np.all(dn >= 0.0)
    assert dn[0] == dn[2]


def test_scaling_mu_needs_enough_sizes():
    with pytest.raises(DomainError):
        scaling_mu(0.4, sizes=(40,), config=FAST)


def test_scaling_mu_small_case_runs():
    fit = scaling_mu(0.4, sizes=(30, 40, 60), config=AveragingConfig(200.0, 0.5),
                     max_workers=1)
    assert fit.n_points == 3
    assert np.isfinite(fit.exponent)
    assert fit.window == (30.0, 60.0)


def test_scaling_gamma_lambda_grid_validation():
    # the one window check: 0 < lo < hi <= lambda_c
    with pytest.raises(DomainError):
        # a zero distance puts a field at the critical one
        scaling_gamma_lambda(0.4, 10, config=FAST, window=(0.0, 0.5))
    with pytest.raises(DomainError):
        # a distance past lambda_c = 1 puts a field below zero
        scaling_gamma_lambda(0.4, 10, config=FAST, window=(0.5, 1.1))
    with pytest.raises(DomainError):
        # distances below half an ulp of lambda_c round every field back to it
        scaling_gamma_lambda(0.4, 10, config=FAST, window=(1e-18, 1e-17))
    with pytest.raises(DomainError):
        # default window digs below zero field at this alpha
        scaling_gamma_lambda(0.75, 10, config=FAST)


def test_scaling_gamma_lambda_small_case():
    fit = scaling_gamma_lambda(0.4, 40, config=AveragingConfig(200.0, 0.5),
                               max_workers=1)
    assert fit.n_points == 8
    assert 0.2 <= fit.window[0] and fit.window[1] <= 0.5
    assert np.isfinite(fit.exponent)


def test_scaling_gamma_epsilon_reuses_scan():
    scan = microcanonical_scan(LmgParams(0.4, SpinSector(40)), FAST)
    fit = scaling_gamma_epsilon(scan, window=(0.01, 0.5))
    assert fit.n_points >= 3
    assert np.isfinite(fit.exponent)


def test_scaling_gamma_epsilon_fits_the_levels_below_the_separatrix():
    # a distinctive bound shows that the fit carries the scan's own
    scan = replace(microcanonical_scan(LmgParams(0.4, SpinSector(40)), FAST),
                   truncation_bound=3.5e-15)
    below = scan.energies < 0.0
    want = fit_power_law(scan.critical_rescaled - scan.rescaled[below],
                         scan.fbar_norm[below], window=(0.01, 0.5))
    fit = scaling_gamma_epsilon(scan, (0.01, 0.5))
    assert (fit.exponent, fit.exponent_stderr, fit.amplitude, fit.window, fit.n_points) == \
        (want.exponent, want.exponent_stderr, want.amplitude, want.window, want.n_points)
    assert np.array_equal(fit.xs, want.xs) and np.array_equal(fit.ys, want.ys)
    assert fit.truncation_bound == 3.5e-15


def test_normalized_average_flagging():
    grid = quench_sweep([0.4], [0.0, 0.2], 12, AveragingConfig(2000.0, 0.5),
                        max_workers=1)
    for halfwidth, flagged in zip(grid.halfwidths[0], grid.flagged[0]):
        assert flagged == (not halfwidth < 0.01 * abs(grid.reference[0]))
