"""OTOC engine: protocol correctness, symmetries, and averaging."""

import numpy as np
import oracles
import pytest

from lmg_otoc import (AveragingConfig, DomainError, LmgParams, QuenchSpec,
                      SpinSector, commutator_series, commutator_series_micro,
                      long_time_average, make_time_grid, micro_fbar_all,
                      quench_fbar, quench_otoc)
from lmg_otoc.otoc import (OtocSeries, _all_levels, _reachable,
                           _single_state_otoc, _state_level)


def level_trace(params, n, times):
    """F_n(t) from the F-only single-state kernel, on the level's reachable frame."""
    frame, psi, _ = _reachable(*_state_level(params, n))
    return _single_state_otoc(frame, psi, times)


def test_time_grid_construction():
    t = make_time_grid(10.0, 0.5)
    assert t[0] == 0.0 and t[-1] == 10.0 and t.size == 21
    assert np.max(np.abs(np.diff(t) - 0.5)) < 1e-12
    with pytest.raises(DomainError):
        make_time_grid(-1.0, 0.5)
    with pytest.raises(DomainError):
        make_time_grid(1.0, 0.0)


def test_grid_validation():
    spec = QuenchSpec(LmgParams(0.4, SpinSector(4)), 0.5)
    with pytest.raises(DomainError):
        quench_otoc(spec, np.array([0.5, 1.0]))     # must start at zero
    with pytest.raises(DomainError):
        quench_otoc(spec, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(DomainError):
        quench_otoc(spec, np.zeros((2, 2)))


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
    times = np.array([0.0, 0.4, 1.3, 2.0])
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
    traces = np.array(list(_all_levels(params, times))).T
    assert traces.shape == (11, times.size)
    for values in traces:
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
    # internal relation holds by construction; cross-check against the
    # independently computed series from the plain engine
    f_other = quench_otoc(spec, times).values
    relation = 2.0 * cs.a_values.real - 2.0 * f_other.real
    assert np.max(np.abs(cs.c_values - relation)) < 1e-9
    assert abs(cs.c_values[0]) < 1e-10
    assert cs.c_norm_values.min() >= 0.0
    assert cs.c_norm_values[0] < 1e-10


def test_commutator_norm_expansion():
    # ||[W(t),V] psi||^2 = A + A' - 2 Re F, assembled from dense pieces
    times = np.array([0.0, 0.7, 1.9])
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
    assert avg.total_time == 4.0 and avg.sample_count == 9

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
        traces = np.array(list(_all_levels(params, times))).T
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
