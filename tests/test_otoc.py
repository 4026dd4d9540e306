"""OTOC engine: protocol correctness, symmetries, and averaging."""

import tracemalloc

import numpy as np
import oracles
import pytest

from lmg_otoc import (AveragingConfig, DomainError, LmgParams, QuenchSpec,
                      SpinSector, build_hamiltonian, commutator_series,
                      commutator_series_micro, long_time_average,
                      make_time_grid, micro_fbar_all, microcanonical_scan,
                      quench_fbar, quench_otoc)
from lmg_otoc import otoc
from lmg_otoc.otoc import (OtocSeries, _closed_form_average, _reachable,
                           _grid_steps, _state_level, _state_quench,
                           _weighted_means)


def level_trace(params, n, times):
    """F_n(t) of the level's commutator trace."""
    return commutator_series_micro(params, n, times).f_values


def dense_level_traces(params, times):
    """F_n(t) of every parity-definite level, row n, by the dense all-levels
    oracle."""
    diag, off = build_hamiltonian(params)
    h = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    energies, vectors = oracles.parity_definite(h, *np.linalg.eigh(h))
    w = params.sector.m_values() / params.sector.total_spin
    return oracles.dense_all_levels_otoc(energies, vectors, w, times)


def test_time_grid_construction():
    t = make_time_grid(10.0, 0.5)
    assert t[0] == 0.0 and t[-1] == 10.0 and t.size == 21
    assert np.max(np.abs(np.diff(t) - 0.5)) < 1e-12
    with pytest.raises(DomainError):
        make_time_grid(-1.0, 0.5)
    with pytest.raises(DomainError):
        make_time_grid(1.0, 0.0)


@pytest.mark.parametrize("tmax, dt", [
    (np.inf, 0.5), (np.nan, 0.5), (1.0, np.inf), (1.0, np.nan), (1e300, 1e-300),
    (1.0, 3.0)])
def test_a_horizon_must_be_finite_and_positive(tmax, dt):
    # (1e300, 1e-300) is finite, but its step count is not; (1.0, 3.0) has
    # a step longer than its horizon
    for build in (make_time_grid, AveragingConfig):
        with pytest.raises(DomainError, match="need finite tmax > 0 and dt > 0"):
            build(tmax, dt)


def test_grid_validation():
    spec = QuenchSpec(LmgParams(0.4, SpinSector(4)), 0.5)
    with pytest.raises(DomainError):
        quench_otoc(spec, np.array([0.5, 1.0]))     # must start at zero
    with pytest.raises(DomainError):
        quench_otoc(spec, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(DomainError):
        quench_otoc(spec, np.zeros((2, 2)))


# every entry point that takes a grid, as a call on the grid
_GRID_ENTRY_POINTS = {
    "quench_otoc": lambda t: quench_otoc(QuenchSpec(LmgParams(0.4, SpinSector(6)), 0.5), t),
    "commutator_series": lambda t: commutator_series(
        QuenchSpec(LmgParams(0.4, SpinSector(6)), 0.5), t),
    "commutator_series_micro": lambda t: commutator_series_micro(
        LmgParams(0.4, SpinSector(6)), 2, t),
    "micro_fbar_all": lambda t: micro_fbar_all(LmgParams(0.4, SpinSector(6)), t),
    "long_time_average": lambda t: long_time_average(OtocSeries(
        times=t, values=np.ones(np.shape(t), dtype=complex), protocol="quench",
        state_label="synthetic", params=LmgParams(0.4, SpinSector(2)))),
}

# grids other than t_k = k dt, k = 0..K with K >= 1; the linspace grid is
# off by 1.4e-14 at some samples
_OTHER_GRIDS = {
    "scattered": np.array([0.0, 0.3, 1.0]),
    "descending": np.array([0.0, -0.5, -1.0]),
    "nonzero start": np.array([0.5, 1.0, 1.5]),
    "2-D": make_time_grid(1.0, 0.5)[None, :],
    "single sample": np.array([0.0]),
    "linspace": np.linspace(0.0, 100.0, 12),
}


@pytest.mark.parametrize("grid", list(_OTHER_GRIDS))
@pytest.mark.parametrize("entry", list(_GRID_ENTRY_POINTS))
def test_every_entry_point_refuses_any_other_grid(entry, grid):
    with pytest.raises(DomainError, match="t_k = k dt"):
        _GRID_ENTRY_POINTS[entry](_OTHER_GRIDS[grid])


@pytest.mark.parametrize("entry", list(_GRID_ENTRY_POINTS))
def test_every_entry_point_takes_the_time_grid(entry):
    _GRID_ENTRY_POINTS[entry](make_time_grid(1.0, 0.5))


def test_the_first_half_ends_at_the_last_sample_at_or_below_half_the_horizon():
    # K_half = max(K // 2, 1) is the rule the sampled half-horizon mean took
    # on the grid: the last sample at or below t_K / 2, at least t_1
    rng = np.random.default_rng(11)
    cases = [(tmax, dt) for dt in (0.05, 0.1, 0.25, 0.3, 0.37, 0.4271, 0.5, 1.0)
             for tmax in (dt, 2 * dt, 3 * dt, 10.3, 200.5, 1e4)]
    cases += list(zip(rng.uniform(0.1, 1e3, 300), rng.uniform(1e-3, 1.0, 300)))
    for tmax, dt in cases:
        t = make_time_grid(tmax, dt)
        _, (step, k, k_half) = _grid_steps(t)
        assert step == t[1] and k == t.size - 1
        assert k_half == max(int(np.searchsorted(t, t[-1] / 2, "right")) - 1, 1)


def test_initial_value_is_fourth_moment():
    # W(0) = W, so F(0) = <psi0| W^4 |psi0>, purely real
    spec = QuenchSpec(LmgParams(0.3, SpinSector(12)), 0.7)
    series = quench_otoc(spec, make_time_grid(1.0, 0.5))
    sec = spec.params.sector
    sx, _, _ = oracles.zbasis_spin_ops(12)
    w = sx.real / sec.total_spin
    h0 = oracles.zbasis_hamiltonian(12, 0.3)
    _, v0 = np.linalg.eigh(h0)
    psi = v0[:, 0]
    want = psi @ np.linalg.matrix_power(w, 4) @ psi
    assert abs(series.values[0] - want) < 1e-12
    assert abs(series.values[0].imag) < 1e-12


def test_magnitude_stays_bounded():
    for lam in (0.0, 0.5, 2.0):
        spec = QuenchSpec(LmgParams(0.4, SpinSector(30)), lam)
        series = quench_otoc(spec, make_time_grid(50.0, 0.25))
        assert np.max(np.abs(series.values)) <= 1.0 + 1e-12


def test_negative_time_is_complex_conjugate():
    # the engine takes forward grids; the symmetry is checked through the
    # dense-exponential oracle, which the engine must match pointwise
    times = make_time_grid(2.0, 0.4271)
    spec = QuenchSpec(LmgParams(0.4, SpinSector(8)), 0.6)
    engine = quench_otoc(spec, times).values
    fwd = oracles.expm_otoc_series(8, 0.4, 0.6, times)["f"]
    bwd = oracles.expm_otoc_series(8, 0.4, 0.6, -times)["f"]
    assert np.max(np.abs(engine - fwd)) < 1e-10
    assert np.max(np.abs(bwd - np.conj(fwd))) < 1e-10


@pytest.mark.parametrize("protocol", ["quench", "micro"])
def test_engine_matches_dense_exponential_oracle(protocol):
    times = np.array([0.0, 0.5, 1.0])
    if protocol == "quench":
        got = quench_otoc(QuenchSpec(LmgParams(0.4, SpinSector(4)), 1.0), times).values
        want = oracles.expm_otoc_series(4, 0.4, 1.0, times)["f"]
    else:
        got = commutator_series_micro(LmgParams(0.4, SpinSector(4)), 2, times).f_values
        want = oracles.expm_otoc_series(4, 0.4, 0.0, times, level=2)["f"]
    assert np.max(np.abs(got - want)) < 1e-9


def test_micro_level_bounds():
    params = LmgParams(0.4, SpinSector(6))
    with pytest.raises(DomainError):
        commutator_series_micro(params, -1, make_time_grid(1.0, 0.5))
    with pytest.raises(DomainError):
        commutator_series_micro(params, 7, make_time_grid(1.0, 0.5))


def test_free_model_gives_constant_traces():
    # alpha=0 commutes with W, so every eigenstate trace is frozen
    params = LmgParams(0.0, SpinSector(10))
    times = make_time_grid(20.0, 0.25)
    for n in range(11):
        values = level_trace(params, n, times)
        assert values.shape == times.shape
        assert np.max(np.abs(values - values[0])) < 1e-12


def test_two_level_closed_form():
    params = LmgParams(0.3, SpinSector(1))
    times = make_time_grid(10.0, 0.05)
    for level in (0, 1):
        got = level_trace(params, level, times)
        want = oracles.two_level_micro_f(0.3, times, level)
        assert np.max(np.abs(got - want)) < 1e-12


def test_commutator_relation_and_norm():
    times = make_time_grid(10.0, 0.1)
    spec = QuenchSpec(LmgParams(0.4, SpinSector(20)), 0.8)
    cs = commutator_series(spec, times)
    # internal relation holds by construction; cross-check against F by the
    # oracle's F-only route on the same frame
    kept, psi, _ = _reachable(*_state_quench(spec))
    f_other = oracles.frame_f_series(kept.energies, oracles.folded_w(kept.w_block),
                                     psi, times)
    relation = 2.0 * cs.a_values.real - 2.0 * f_other.real
    assert np.max(np.abs(cs.c_values - relation)) < 1e-9
    assert abs(cs.c_values[0]) < 1e-10
    assert cs.c_norm_values.min() >= 0.0
    assert cs.c_norm_values[0] < 1e-10


def test_commutator_norm_expansion():
    # ||[W(t),V] psi||^2 = A + A' - 2 Re F, assembled from dense pieces
    times = make_time_grid(2.0, 0.4271)
    spec = QuenchSpec(LmgParams(0.35, SpinSector(8)), 0.9)
    cs = commutator_series(spec, times)
    orc = oracles.expm_otoc_series(8, 0.35, 0.9, times)
    assert np.max(np.abs(cs.c_norm_values - orc["c_norm"])) < 1e-12
    assert np.max(np.abs(cs.f_values - orc["f"])) < 1e-10
    assert np.max(np.abs(cs.a_values - orc["a_term"])) < 1e-10


def test_eigenstate_protocol_relation_equals_norm():
    # for an eigenstate of the evolving Hamiltonian the two C readings
    # coincide; for a quench state they genuinely differ at finite time
    times = make_time_grid(10.0, 0.25)
    cs = commutator_series_micro(LmgParams(0.4, SpinSector(14)), 7, times)
    assert np.max(np.abs(cs.c_values - cs.c_norm_values)) < 1e-12
    quench = commutator_series(QuenchSpec(LmgParams(0.4, SpinSector(14)), 1.0), times)
    assert np.max(np.abs(quench.c_values - quench.c_norm_values)) > 1e-3


def test_long_time_average_on_known_series():
    times = make_time_grid(4.0, 0.5)
    const = OtocSeries(times=times, values=np.full(times.size, 0.7 + 0j),
                       protocol="quench", state_label="synthetic",
                       params=LmgParams(0.4, SpinSector(2)))
    avg = long_time_average(const)
    assert abs(avg.value - 0.7) < 1e-14
    assert avg.estimator_halfwidth < 1e-14

    ramp = OtocSeries(times=times, values=times.astype(complex),
                      protocol="quench", state_label="synthetic",
                      params=LmgParams(0.4, SpinSector(2)))
    avg = long_time_average(ramp)
    assert abs(avg.value - 2.0) < 1e-14
    assert abs(avg.estimator_halfwidth - 1.0) < 1e-14


def test_long_time_average_needs_two_samples():
    s = OtocSeries(times=np.array([0.0]), values=np.array([1.0 + 0j]),
                   protocol="quench", state_label="synthetic",
                   params=LmgParams(0.4, SpinSector(2)))
    with pytest.raises(DomainError):
        long_time_average(s)


def test_streamed_level_averages_match_series_route():
    # the broken-phase case has localised doublet mixtures among its levels
    for params, levels in ((LmgParams(0.4, SpinSector(10)), (0, 4, 10)),
                           (LmgParams(0.2, SpinSector(60)), (0, 1, 17, 60))):
        times = make_time_grid(100.0, 0.5)
        fbar, halfwidth = micro_fbar_all(params, times)
        traces = dense_level_traces(params, times)
        for n in levels:
            single = level_trace(params, n, times)
            assert np.max(np.abs(traces[n] - single)) < 1e-10
            direct = long_time_average(OtocSeries(
                times=times, values=single, protocol="microcanonical",
                state_label=f"level(n={n})", params=params))
            assert abs(fbar[n] - direct.value) < 1e-12
            assert abs(halfwidth[n] - direct.estimator_halfwidth) < 1e-12


def test_zero_field_average_matches_spectral_oracle():
    spec = QuenchSpec(LmgParams(0.4, SpinSector(8)), 0.0)
    avg = quench_fbar(spec, AveragingConfig(1000.0, 0.25))
    want = oracles.spectral_fbar(8, 0.4, lam=0.0, horizon=1000.0)
    assert abs(avg.value - want) < 2e-3


def test_series_metadata():
    spec = QuenchSpec(LmgParams(0.4, SpinSector(6)), 1.0)
    s = quench_otoc(spec, make_time_grid(1.0, 0.5))
    assert s.protocol == "quench"
    assert s.field_strength == 1.0
    assert "N=6" in s.state_label
    m = commutator_series_micro(spec.params, 3, make_time_grid(1.0, 0.5))
    assert m.protocol == "microcanonical"


def _closed_form_and_oracle(n, alpha, lam, times):
    """The closed-form average of a quench, and the long-double oracle's
    (full, half) trapezoid means on the same frame."""
    frame, psi = _state_quench(QuenchSpec(LmgParams(alpha, SpinSector(n)), lam))
    avg = _closed_form_average(frame, psi, _grid_steps(times)[1])
    return avg, oracles.trapezoid_means_longdouble(
        frame.energies, oracles.folded_w(frame.w_block), psi, times)


@pytest.mark.parametrize("n, alpha, lam",
                         [(30, a, lam) for a in (0.0, 0.2, 0.4, 1.0) for lam in (0.0, 0.5, 1.5)]
                         + [(100, 0.0, 1.5), (100, 0.2, 1.5), (100, 0.4, 0.5), (100, 1.0, 0.5)])
def test_closed_form_average_matches_the_long_double_oracle(n, alpha, lam):
    # alpha = 0 has exactly degenerate doublets, so exact Omega = 0 paths
    avg, (full, half) = _closed_form_and_oracle(n, alpha, lam, make_time_grid(1e4, 0.5))
    assert abs(avg.value - full) <= 1e-14
    assert abs(avg.estimator_halfwidth - abs(full - half)) <= 1e-14
    assert 0.0 <= avg.truncation_bound <= otoc._DROP_BOUND


@pytest.mark.parametrize("alpha, lam", [(0.2, 1.5), (0.4, 1.0), (0.0, 0.5)])
def test_closed_form_average_matches_the_sampled_average(alpha, lam):
    spec = QuenchSpec(LmgParams(alpha, SpinSector(100)), lam)
    config = AveragingConfig(1e4, 0.5)
    avg = quench_fbar(spec, config)
    sampled = long_time_average(quench_otoc(spec, make_time_grid(1e4, 0.5)))
    assert abs(avg.value - sampled.value) <= avg.truncation_bound + 1e-11
    assert abs(avg.estimator_halfwidth - sampled.estimator_halfwidth) <= (
        2 * avg.truncation_bound + 1e-11)
    assert sampled.truncation_bound == 0.0


@pytest.mark.parametrize("tmax", [10.5, 0.5])
def test_closed_form_average_on_short_grids(tmax):
    # 22 samples: an odd step count, whose first half ends at k = 10; and
    # the 2-sample grid, whose half is the whole grid
    times = make_time_grid(tmax, 0.5)
    avg, (full, half) = _closed_form_and_oracle(20, 0.4, 1.0, times)
    assert abs(avg.value - full) <= 1e-14
    assert abs(avg.estimator_halfwidth - abs(full - half)) <= 1e-14
    if times.size == 2:
        assert avg.estimator_halfwidth == 0.0


def test_closed_form_average_refuses_a_grid_that_is_not_uniform():
    frame, psi = _state_quench(QuenchSpec(LmgParams(0.4, SpinSector(10)), 1.0))
    for times in (np.array([0.0, 0.3, 1.0]), np.array([0.0])):
        with pytest.raises(DomainError):
            _closed_form_average(frame, psi, _grid_steps(times)[1])


def test_level_averages_refuse_a_grid_that_is_not_uniform():
    params = LmgParams(0.4, SpinSector(10))
    for times in (np.array([0.0, 0.3, 1.0]), np.array([0.0]), np.array([0.0, -0.5, -1.0])):
        with pytest.raises(DomainError):
            micro_fbar_all(params, times)


@pytest.mark.parametrize("n, alpha", [(20, 0.0), (21, 0.0), (30, 0.4)])
def test_level_averages_match_the_long_double_oracle(n, alpha):
    # alpha = 0 has exactly degenerate doublets, so exact Omega = 0 paths
    params = LmgParams(alpha, SpinSector(n))
    times = make_time_grid(1e4, 0.5)
    fbar, halfwidth = micro_fbar_all(params, times)
    for level in range(n + 1):
        frame, psi = _state_level(params, level)
        full, half = oracles.trapezoid_means_longdouble(
            frame.energies, oracles.folded_w(frame.w_block), psi, times)
        assert abs(fbar[level] - full) <= 1e-14
        assert abs(halfwidth[level] - abs(full - half)) <= 1e-14


# theta = 0 exactly, a tiny frequency, and aliased resonances (theta a
# multiple of 2 pi, and next to one) among the frequencies
_DT = 0.5
_OMEGAS = np.array([0.0, -0.0, 1e-13, 0.7, -3.1, 12.9, 4 * np.pi / _DT,
                    6 * np.pi / _DT + 1e-9, -2 * np.pi / _DT - 3e-12])


def test_trapezoid_means_sum_the_samples():
    # the means matrix of the oracle, against the samples themselves
    k = 21
    got = oracles._trapezoid_means(_OMEGAS * (_DT / 2), (k, 10))
    for row, steps in zip(got, (k, 10)):
        t = np.arange(steps + 1) * _DT
        want = [oracles.trapezoid_mean(np.cos(w * t), t) for w in _OMEGAS]
        assert np.max(np.abs(row - want)) < 1e-14
    assert np.array_equal(got[:, :2], np.ones((2, 2)))


@pytest.mark.parametrize("k", [200_000, 200_001])
def test_trapezoid_means_hold_at_long_horizons(k):
    # the full mean comes from the half's tangents by the double-angle
    # identities, for an even and an odd step count; against samples
    # formed in long double
    got = oracles._trapezoid_means(_OMEGAS * (_DT / 2), (k, k // 2))
    t = np.arange(k + 1, dtype=np.longdouble) * _DT
    for w, means in zip(_OMEGAS, got.T):
        samples = np.cos(np.longdouble(w) * t)
        for steps, mean in zip((k, k // 2), means):
            v = samples[:steps + 1]
            want = (v.sum() - (v[0] + v[-1]) / 2) / steps
            assert abs(mean - float(want)) < 1e-14
    assert np.array_equal(got[:, :2], np.ones((2, 2)))


@pytest.mark.parametrize("k, k_half", [(21, 10), (200_000, 100_000), (200_001, 100_000),
                                        (1, 1)])
@pytest.mark.parametrize("weights", ["unit", "random"])
def test_weighted_means_sum_the_means_matrix(k, k_half, weights):
    # the weighted sums, taken without a means matrix, against the oracle's
    # matrix times the weights, on the frequencies of the tests above; K = 1
    # is the 2-sample grid, the one with K = 2 K_half - 1
    coef = (np.ones(_OMEGAS.size) if weights == "unit"
            else np.random.default_rng(7).uniform(-1.0, 1.0, _OMEGAS.size))
    want = oracles._trapezoid_means(_OMEGAS * (_DT / 2), (k, k_half)) @ coef
    got = _weighted_means(_OMEGAS * (_DT / 2), coef.copy(), (k, k_half))
    assert got.shape == (2,)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_closed_form_average_does_not_depend_on_the_batch_size(monkeypatch):
    frame, psi = _state_quench(QuenchSpec(LmgParams(0.4, SpinSector(100)), 1.0))
    grid = _grid_steps(make_time_grid(1e4, 0.5))[1]
    whole = _closed_form_average(frame, psi, grid)
    calls = []
    means = otoc._weighted_means
    monkeypatch.setattr(otoc, "_weighted_means",
                        lambda *args: calls.append(None) or means(*args))
    monkeypatch.setattr(otoc, "_PATH_BATCH", 64)
    split = _closed_form_average(frame, psi, grid)
    assert len(calls) > 100
    assert abs(split.value - whole.value) <= 1e-15
    assert abs(split.estimator_halfwidth - whole.estimator_halfwidth) <= 1e-15
    assert split.truncation_bound == pytest.approx(whole.truncation_bound, rel=1e-12)


def test_an_average_at_n400_stays_within_its_memory():
    # every triple is held at once; this bounds what that costs
    frame, psi = _state_quench(QuenchSpec(LmgParams(0.4, SpinSector(400)), 1.0))
    tracemalloc.start()
    try:
        _closed_form_average(frame, psi, AveragingConfig().steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11e6


_SUM_PATHS = otoc._sum_paths


def _spy_paths(monkeypatch, paths):
    """Append to paths the paths each _sum_paths call sums: slot k serves
    served[k] triples."""
    monkeypatch.setattr(otoc, "_sum_paths", lambda c, g, h, served, *args: paths.append(
        int(served.sum())) or _SUM_PATHS(c, g, h, served, *args))


def _summed_paths(monkeypatch, spec, config):
    """(average, paths summed) of quench_fbar."""
    paths = []
    _spy_paths(monkeypatch, paths)
    return quench_fbar(spec, config), sum(paths)


def test_a_level_scan_sums_the_same_paths_at_any_horizon(monkeypatch):
    params = LmgParams(0.4, SpinSector(40))
    runs = []
    for tmax in (1e4, 1e6):
        paths = []
        _spy_paths(monkeypatch, paths)
        scan = microcanonical_scan(params, AveragingConfig(tmax, 0.5))
        runs.append((paths, scan.truncation_bound))
    assert len(runs[0][0]) >= params.sector.dimension and sum(runs[0][0]) > 0
    assert runs[0] == runs[1]


@pytest.mark.parametrize("alpha, lam", [(0.2, 0.0), (0.5, 0.01), (0.1, 1.75),
                                        (0.4, 1.0), (0.7, 1.25), (0.3, 2.0)])
def test_averages_at_one_size_sum_about_the_same_paths(monkeypatch, alpha, lam):
    # at N = 400 no quench of alpha 0.1-0.7, lambda <= 2 needs more paths
    # than the floor, so each sums the floor (up to one bin) and costs the same
    spec = QuenchSpec(LmgParams(alpha, SpinSector(400)), lam)
    avg, paths = _summed_paths(monkeypatch, spec, AveragingConfig())
    floor = otoc._floor(401, *otoc._PATH_FLOOR)
    assert floor == 1314412
    assert floor <= paths <= 1.05 * floor
    assert avg.truncation_bound <= otoc._DROP_BOUND


def test_the_average_floors_only_add_paths(monkeypatch):
    spec = QuenchSpec(LmgParams(0.7, SpinSector(400)), 1.25)
    config = AveragingConfig()
    floored, paths = _summed_paths(monkeypatch, spec, config)
    floor = otoc._floor(401, *otoc._PATH_FLOOR)
    for name in ("_ENTRY_FLOOR", "_PAIR_FLOOR", "_PATH_FLOOR"):
        monkeypatch.setattr(otoc, name, (0.0, 1.0))
    reached, reached_paths = _summed_paths(monkeypatch, spec, config)
    assert reached_paths < floor <= paths
    assert floored.truncation_bound <= reached.truncation_bound <= otoc._DROP_BOUND
    assert abs(floored.value - reached.value) <= (
        floored.truncation_bound + reached.truncation_bound)


def _check_searches(monkeypatch):
    """Check every cut of W and every path level against the plain
    bisections of the oracles, on the same arguments, and log each as
    ("cut", kept entries) or ("level", x, hi)."""
    log = []
    cut_w, path_level = otoc._cut_w, otoc._path_level

    def checked_cut(ab, left, right, budget, floor):
        keep, loss = cut_w(ab, left, right, budget, floor)
        want_keep, want_loss = oracles.cut_w_bisection(ab, left, right, budget, floor)
        assert np.array_equal(keep, want_keep) and loss == want_loss
        log.append(("cut", int(keep.sum())))
        return keep, loss

    def checked_level(kept, dropped, lo, hi, floor, share):
        x = path_level(kept, dropped, lo, hi, floor, share)
        assert x == oracles.path_level_bisection(kept, dropped, lo, hi, floor, share,
                                                 otoc._BIN_FLOOR)
        log.append(("level", x, hi))
        return x

    monkeypatch.setattr(otoc, "_cut_w", checked_cut)
    monkeypatch.setattr(otoc, "_path_level", checked_level)
    return log


def _use_bisections(monkeypatch):
    """Search every cut of W and every path level by the oracles' plain
    bisections instead."""
    monkeypatch.setattr(otoc, "_cut_w", oracles.cut_w_bisection)
    monkeypatch.setattr(otoc, "_path_level", lambda *args: oracles.path_level_bisection(
        *args, otoc._BIN_FLOOR))


def _searched_both_ways(monkeypatch, average):
    """(average(), the log of its searches, average() by plain bisections)."""
    log = _check_searches(monkeypatch)
    got = average()
    _use_bisections(monkeypatch)
    return got, log, average()


@pytest.mark.parametrize("n, alpha, lam, tmax, dt", [
    (30, 0.4, 1.0, 1e4, 0.5), (100, 0.4, 0.0, 1e4, 0.5), (100, 0.7, 1.25, 2e3, 0.25),
    (400, 0.2, 0.0, 1e4, 0.5), (400, 0.7, 1.25, 1e5, 0.5), (400, 0.4, 1.0, 2e3, 0.25)])
def test_searches_from_the_floors_match_plain_bisections(monkeypatch, n, alpha, lam,
                                                         tmax, dt):
    spec = QuenchSpec(LmgParams(alpha, SpinSector(n)), lam)
    got, log, want = _searched_both_ways(
        monkeypatch, lambda: quench_fbar(spec, AveragingConfig(tmax, dt)))
    assert [entry[0] for entry in log] == ["cut", "level"]
    assert got == want


def test_level_searches_from_the_floors_match_plain_bisections(monkeypatch):
    # the levels of N = 100 sit on the floors
    params = LmgParams(0.4, SpinSector(100))
    got, log, want = _searched_both_ways(
        monkeypatch, lambda: microcanonical_scan(params, AveragingConfig()))
    assert len(log) == 2 * params.sector.dimension
    assert np.array_equal(got.fbar_raw, want.fbar_raw)
    assert np.array_equal(got.halfwidths, want.halfwidths)
    assert got.truncation_bound == want.truncation_bound


@pytest.mark.parametrize("n, alpha, lam", [(100, 0.4, 1.0), (400, 0.7, 1.25)])
def test_searches_without_floors_match_plain_bisections(monkeypatch, n, alpha, lam):
    # with every floor at zero the bound decides each search
    for name in ("_ENTRY_FLOOR", "_PAIR_FLOOR", "_PATH_FLOOR"):
        monkeypatch.setattr(otoc, name, (0.0, 1.0))
    spec = QuenchSpec(LmgParams(alpha, SpinSector(n)), lam)
    got, log, want = _searched_both_ways(
        monkeypatch, lambda: quench_fbar(spec, AveragingConfig()))
    (_, entries), (_, x, hi) = log
    assert entries > 0 and x < hi          # the bound kept some entries and paths
    assert got == want


def test_cuts_keep_the_heaviest_within_their_share():
    weight = np.array([4.0, 1.0, 0.5, 2.0, 0.25, 8.0])
    # 0.25 + 0.5 + 1 fits 2, adding 2 does not: keep 2 and up
    assert otoc._lightest_cut(weight, 2.0) == 2.0
    assert otoc._lightest_cut(weight, 100.0) == np.inf
    assert otoc._lightest_cut(weight, 0.1) == 0.25
    # a floor of 4 keeps 1 and up; a floor at or past the size keeps all
    assert otoc._floor_cut(weight, 2.0, 4) == 1.0
    assert otoc._floor_cut(weight, 0.5, 4) == 0.5
    assert otoc._floor_cut(weight, 2.0, 6) == 0.0
    assert otoc._floor_cut(weight, 2.0, 0) == 2.0
    assert otoc._highest(lambda x: x * x <= 50, -3, 20) == 7
