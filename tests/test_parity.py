"""Parity-folded OTOC kernels against the dense D x D kernels."""

import dataclasses
import functools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import oracles
import pytest

from lmg_otoc import (DomainError, LmgParams, QuenchSpec, SpinSector,
                      build_hamiltonian, build_postquench, commutator_series,
                      commutator_series_micro, make_time_grid, micro_fbar_all,
                      quench_otoc)
from lmg_otoc import otoc
from lmg_otoc.cli import main
from lmg_otoc.output import read_csv
from lmg_otoc.otoc import (_CHUNK, _DROP_BOUND, _fold, _grid_steps, _parity_frame,
                           _reachable, _single_state_otoc, _state_level, _state_quench)

TOL = 1e-9


def _matrix(pair):
    diag, off = pair
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _dense(params, times, lam=0.0, level=None, commutator=False):
    """The dense oracle's trace of the quench from the dense solve's ground
    vector, or of the parity-definite level `level`."""
    bare = _matrix(build_hamiltonian(params))
    energies, vectors = np.linalg.eigh(bare)
    if level is None:
        psi0 = vectors[:, 0]
        evolving = _matrix(build_postquench(QuenchSpec(params, lam)))
    else:
        psi0 = oracles.parity_definite(bare, energies, vectors)[1][:, level]
        evolving = bare
    w = params.sector.m_values() / params.sector.total_spin
    return oracles.dense_single_state_otoc(psi0, evolving, w, times,
                                           commutator=commutator)


def _grid(kind):
    """A grid over [0, 300]: "uniform" steps by 0.25; "scattered" by 0.4271,
    incommensurate with the levels, so its samples fall at scattered phases."""
    return make_time_grid(300.0, 0.25 if kind == "uniform" else 0.4271)


def _trace(frame, psi, times, workers=1):
    """The kernel's (f, a_term, c_rel, c_norm) on a grid of make_time_grid."""
    t, (dt, _, _) = _grid_steps(times)
    return _single_state_otoc(frame, psi, dt, t.size, workers=workers)


def _single_state(kind, n):
    """(frame, psi) of a quench or of a mid-spectrum level at alpha = 0.4."""
    params = LmgParams(0.4, SpinSector(n))
    if kind == "quench":
        return _state_quench(QuenchSpec(params, 1.0))
    return _state_level(params, n // 3)


def _parity(vectors):
    """<v|P|v> per column, P the m -> -m reflection of the X-basis."""
    return np.einsum("ik,ik->k", vectors, vectors[::-1])


@pytest.mark.parametrize("n", [1, 2, 7, 40, 41])
@pytest.mark.parametrize("alpha, lam", [(0.4, 0.0), (0.4, 1.3), (0.0, 0.5), (1.0, 0.0)])
def test_fold_reproduces_the_spectrum(n, alpha, lam):
    h = build_postquench(QuenchSpec(LmgParams(alpha, SpinSector(n)), lam))
    even, odd = _fold(h)
    assert even[0].size == (n + 2) // 2 and odd[0].size == (n + 1) // 2
    for diag, off in (even, odd):
        assert off.size == diag.size - 1
    folded = np.sort(np.concatenate([np.linalg.eigvalsh(_matrix(even)),
                                     np.linalg.eigvalsh(_matrix(odd))]))
    want = np.linalg.eigvalsh(_matrix(h))
    assert np.max(np.abs(folded - want)) < 1e-12 * max(1.0, np.abs(want).max())


def test_fold_labels_levels_by_parity():
    # the even block's levels are exactly those of parity +1
    params = LmgParams(0.9, SpinSector(30))
    h = build_hamiltonian(params)
    even, _ = _fold(h)
    energies, vectors = np.linalg.eigh(_matrix(h))
    plus = energies[_parity(vectors) > 0]
    assert np.max(np.abs(np.linalg.eigvalsh(_matrix(even)) - plus)) < 1e-12


def test_fold_rejects_a_parity_breaking_matrix():
    diag, off = build_hamiltonian(LmgParams(0.4, SpinSector(4)))
    with pytest.raises(DomainError):
        _fold((diag + [1e-3, 0, 0, 0, 0], off))      # diagonal not persymmetric
    with pytest.raises(DomainError):
        _fold((diag, off + [1e-3, 0, 0, 0]))         # off-diagonal not persymmetric


def test_time_grid_takes_the_tabulated_phase_path():
    # the one grid the kernel's phase table serves, t_k = k dt exactly
    for tmax, dt in ((1e4, 0.5), (2000.0, 0.05), (10.0, 0.3), (1.0, 0.37)):
        t = make_time_grid(tmax, dt)
        assert np.array_equal(t, np.arange(t.size) * t[1])
        assert _grid_steps(t)[1][:2] == (dt, t.size - 1)


@pytest.mark.parametrize("n", [1, 2, 9, 10])
@pytest.mark.parametrize("alpha", [0.0, 0.4])
def test_level_n_has_parity_set_by_its_index(tmp_path, n, alpha):
    # at alpha = 0 the blocks are diagonal and every +-m pair is exactly
    # degenerate; N = 1 and 2 are the smallest blocks; D = n + 1 odd and even
    params = LmgParams(alpha, SpinSector(n))
    h = _matrix(build_hamiltonian(params))
    want = np.linalg.eigvalsh(h)
    rc = main(["spectrum", "--n", str(n), "--alpha", str(alpha), "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "spectrum.csv")
    energies = np.array([r[1] for r in rows])
    assert np.max(np.abs(energies - want)) < 1e-12 * max(1.0, np.abs(want).max())
    d = n + 1
    to_frame = _parity_frame(params.sector, build_hamiltonian(params))[1]
    for level in range(d):
        _, psi = _state_level(params, level)
        x = to_frame(np.eye(d)).T @ psi              # the level in the X-basis
        assert np.max(np.abs(x[::-1] - (-1) ** (d - 1 - level) * x)) < 1e-14
        assert np.max(np.abs(h @ x - want[level] * x)) < 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("kind", ["quench", "bare"])
def test_a_frame_retains_only_its_arrays(kind):
    # the blocks' eigenvectors (323 KB and 320 KB at N = 400) go with the
    # solve: a quench frame with its state, or a bare frame with its level
    # index, keeps its three arrays and a few objects around them, which
    # take well under the 4096 bytes allowed
    params = LmgParams(0.4, SpinSector(400))
    if kind == "quench":
        build = functools.partial(_state_quench, QuenchSpec(params, 1.0))
    else:
        build = functools.partial(otoc._bare_frame, params)
    build()                     # untraced once: the quench's bare ground state is cached
    tracemalloc.start()
    try:
        frame, extra = build()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= frame.energies.nbytes + frame.w_block.nbytes + extra.nbytes + 4096


def test_parity_definite_levels_do_not_depend_on_the_basis_inside_a_doublet():
    params = LmgParams(0.4, SpinSector(60))
    h = _matrix(build_hamiltonian(params))
    energies, vectors = np.linalg.eigh(h)
    rotated = vectors.copy()
    rng = np.random.default_rng(3)
    doublets = np.flatnonzero(np.diff(energies) < 1e-9)
    assert doublets.size > 5
    for k in doublets:
        angle = rng.uniform(0, np.pi)
        c, s = np.cos(angle), np.sin(angle)
        rotated[:, [k, k + 1]] = vectors[:, [k, k + 1]] @ np.array([[c, -s], [s, c]])
    times = _grid("uniform")
    w = params.sector.m_values() / params.sector.total_spin
    f = [oracles.dense_all_levels_otoc(*oracles.parity_definite(h, energies, v), w, times)
         for v in (vectors, rotated)]
    assert np.max(np.abs(f[1] - f[0])) < 1e-12
    # without the oracle's parity basis the rotation moves those levels by far
    # more than that
    raw = [oracles.dense_all_levels_otoc(energies, v, w, times) for v in (vectors, rotated)]
    assert np.max(np.abs(raw[1] - raw[0])) > 1e-9


@pytest.mark.parametrize("grid", ["uniform", "scattered"])
@pytest.mark.parametrize("n", [60, 61])
@pytest.mark.parametrize("alpha, lam", [(0.4, 1.0), (0.2, 0.5)])
def test_quench_matches_dense_kernel(n, alpha, lam, grid):
    params = LmgParams(alpha, SpinSector(n))
    times = _grid(grid)
    got = quench_otoc(QuenchSpec(params, lam), times).values
    assert np.max(np.abs(got - _dense(params, times, lam))) < TOL
    cs = commutator_series(QuenchSpec(params, lam), times)
    want = _dense(params, times, lam, commutator=True)
    got = (cs.f_values, cs.a_values, cs.c_values, cs.c_norm_values)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) < TOL


@pytest.mark.parametrize("grid", ["uniform", "scattered"])
@pytest.mark.parametrize("n", [60, 61])
def test_level_states_match_dense_kernel(n, grid):
    params = LmgParams(0.4, SpinSector(n))
    times = _grid(grid)
    # deep levels come out of the dense solve as localised doublet mixtures,
    # which the oracle makes parity-definite as the package's levels are
    mixed = np.abs(_parity(np.linalg.eigh(_matrix(build_hamiltonian(params)))[1])) < 0.5
    assert mixed[0]
    for level in (0, 7, 30, n):
        cs = commutator_series_micro(params, level, times)
        want = _dense(params, times, level=level, commutator=True)
        got = (cs.f_values, cs.a_values, cs.c_values, cs.c_norm_values)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) < TOL


@pytest.mark.parametrize("grid", ["uniform", "scattered"])
@pytest.mark.parametrize("n", [60, 61])
@pytest.mark.parametrize("alpha", [0.2, 0.4])
def test_all_levels_match_dense_kernel(n, alpha, grid):
    params = LmgParams(alpha, SpinSector(n))
    times = _grid(grid)
    h = _matrix(build_hamiltonian(params))
    energies, vectors = np.linalg.eigh(h)
    # the dense solve returns localised doublet mixtures deep in the spectrum;
    # the oracle traces the parity-definite levels instead
    assert np.abs(_parity(vectors)).min() < 1e-6
    w = params.sector.m_values() / params.sector.total_spin
    want = oracles.dense_all_levels_otoc(*oracles.parity_definite(h, energies, vectors),
                                         w, times)
    got = np.array([commutator_series_micro(params, level, times).f_values
                    for level in range(n + 1)])
    assert np.max(np.abs(got - want)) < 1e-12
    # the closed-form averages against the trapezoid means of those traces
    half = max(int(np.count_nonzero(times <= times[-1] / 2.0)), 2)
    full_mean = np.array([oracles.trapezoid_mean(f.real, times) for f in want])
    half_mean = np.array([oracles.trapezoid_mean(f.real[:half], times[:half]) for f in want])
    fbar, halfwidth = micro_fbar_all(params, times)
    assert np.max(np.abs(fbar - full_mean)) < 1e-12
    assert np.max(np.abs(halfwidth - np.abs(full_mean - half_mean))) < 1e-12


@pytest.mark.parametrize("grid", ["uniform", "scattered"])
@pytest.mark.parametrize("n", [60, 61])
def test_commutator_branch_gives_the_f_of_the_f_only_branch(n, grid):
    # the kernel forms F as <W W(t) psi|W(t) V psi>; the oracle takes the
    # F-only route <psi|W(t) V W(t) V|psi> on the same frame and phases
    params = LmgParams(0.4, SpinSector(n))
    times = _grid(grid)
    spec = QuenchSpec(params, 1.0)
    series = [(_state_quench(spec), commutator_series(spec, times))]
    series += [(_state_level(params, level), commutator_series_micro(params, level, times))
               for level in (0, 7, 30, n)]
    for state, cs in series:
        kept, psi, _ = _reachable(*state)
        want = oracles.frame_f_series(kept.energies, oracles.folded_w(kept.w_block), psi, times)
        assert np.max(np.abs(cs.f_values - want)) < 1e-13
        assert cs.c_norm_values.min() >= 0.0 and abs(cs.c_norm_values[0]) <= 1e-13


@pytest.mark.parametrize("commutator", [False, True])
def test_single_state_kernel_applies_w_three_times_per_chunk(monkeypatch, commutator):
    # through either entry point: quench_otoc's F or commutator_series
    calls = []
    apply_w = otoc._apply_w

    def counted(*args):
        calls.append(None)
        return apply_w(*args)

    monkeypatch.setattr(otoc, "_apply_w", counted)
    times = _grid("uniform")
    spec = QuenchSpec(LmgParams(0.4, SpinSector(61)), 1.0)
    (commutator_series if commutator else quench_otoc)(spec, times)
    chunks = -(-times.size // _CHUNK)
    assert chunks > 1
    # four for the envelopes that pick the kept levels (_reachable), one
    # for V |psi>, then three per chunk
    assert len(calls) == 4 + 1 + 3 * chunks


def test_long_horizon_quench_at_production_size():
    params = LmgParams(0.4, SpinSector(200))
    times = make_time_grid(1e4, 0.5)
    got = quench_otoc(QuenchSpec(params, 1.0), times).values
    assert np.max(np.abs(got - _dense(params, times, 1.0))) < TOL


@pytest.mark.parametrize("level", [False, True])
@pytest.mark.parametrize("n", [60, 61])
@pytest.mark.parametrize("grid", ["uniform", "scattered", "one chunk", "tail 1",
                                  "single sample"])
def test_trace_is_bitwise_independent_of_the_worker_count(grid, n, level):
    # the kernel takes n samples of t_k = k dt; entry points refuse n = 1
    samples = {"one chunk": _CHUNK - 3, "tail 1": 2 * _CHUNK + 1, "single sample": 1}
    if grid in samples:
        dt, size = 0.5, samples[grid]
    else:
        times = _grid(grid)
        dt, size = times[1], times.size
    frame, psi = _single_state("level" if level else "quench", n)

    def trace(workers):
        return _single_state_otoc(frame, psi, dt, size, workers=workers)

    serial = trace(1)
    for workers in (2, 3):
        split = trace(workers)
        assert len(split) == len(serial)
        for a, b in zip(serial, split):
            assert np.array_equal(a, b)


_BLAS_PROBE = """
import sys
import numpy as np
from lmg_otoc import (AveragingConfig, LmgParams, QuenchSpec, SpinSector,
                      commutator_series, make_time_grid, quench_fbar)
spec = QuenchSpec(LmgParams(0.4, SpinSector(400)), 1.0)
avg = quench_fbar(spec, AveragingConfig())
trace = commutator_series(spec, make_time_grid(200.0, 0.05))
np.savez(sys.argv[1], value=avg.value, halfwidth=avg.estimator_halfwidth,
         bound=avg.truncation_bound, f=trace.f_values, a=trace.a_values,
         c=trace.c_values, norm=trace.c_norm_values)
"""


def test_results_are_bitwise_independent_of_the_blas_thread_count(tmp_path):
    # an N = 400 cell and an N = 400 trace of 4001 samples, whose last chunk
    # is partial, at one and two OpenBLAS threads (MKL is not checked)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    assert 4001 % _CHUNK
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas-{threads}.npz"
        env = {**os.environ, "PYTHONPATH": src,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-c", _BLAS_PROBE, str(out)], env=env,
                       check=True, timeout=300)
        runs.append(np.load(out))
    for key in ("value", "halfwidth", "bound", "f", "a", "c", "norm"):
        assert runs[0][key].tobytes() == runs[1][key].tobytes(), key


@pytest.mark.parametrize("floor", [False, True])
@pytest.mark.parametrize("grid", ["uniform", "scattered"])
@pytest.mark.parametrize("n", [200, 201])
@pytest.mark.parametrize("kind", ["quench", "level"])
def test_reachable_levels_move_each_sample_by_at_most_the_bound(kind, n, grid, floor,
                                                                 monkeypatch):
    if not floor:       # so that the bound alone picks the levels
        monkeypatch.setattr("lmg_otoc.otoc._KEEP_SCALE", 0.0)
    frame, psi = _single_state(kind, n)
    kept, psi_kept, bound = _reachable(frame, psi)
    # the restriction does act here
    assert psi_kept.size < (psi.size if floor else psi.size / 2)
    assert 0.0 < bound <= _DROP_BOUND
    times = _grid(grid)
    full = _trace(frame, psi, times)
    got = _trace(kept, psi_kept, times)
    # F and A move by at most the bound, C and the norm by four times it
    for want, have, k in zip(full, got, (1, 1, 4, 4)):
        assert np.max(np.abs(have - want)) <= k * bound + 1e-13


@pytest.mark.parametrize("kind", ["quench", "level"])
def test_every_single_state_entry_point_traces_the_reachable_levels(kind):
    params = LmgParams(0.4, SpinSector(200))
    times = _grid("uniform")
    if kind == "quench":
        spec = QuenchSpec(params, 1.0)
        state = _state_quench(spec)
        series = commutator_series(spec, times)
    else:
        state = _state_level(params, 66)
        series = commutator_series_micro(params, 66, times)
    kept, psi_kept, bound = _reachable(*state)
    want = _trace(kept, psi_kept, times)
    got = (series.f_values, series.a_values, series.c_values, series.c_norm_values)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    if kind == "quench":        # a level trace has no F-only entry point
        assert np.array_equal(quench_otoc(spec, times).values, series.f_values)
    assert series.kept_levels == kept.w_block.shape
    assert series.truncation_bound == bound
    assert series.a_values.dtype == np.float64


def test_a_trace_with_nothing_to_drop_runs_on_the_full_frame():
    spec = QuenchSpec(LmgParams(0.4, SpinSector(10)), 1.0)
    frame, psi = _state_quench(spec)
    kept, psi_kept, bound = _reachable(frame, psi)
    assert kept is frame and psi_kept is psi and bound == 0.0
    times = _grid("uniform")
    series = commutator_series(spec, times)
    want = _trace(frame, psi, times)
    got = (series.f_values, series.a_values, series.c_values, series.c_norm_values)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert np.array_equal(quench_otoc(spec, times).values, series.f_values)
    assert series.kept_levels == (6, 5) and series.truncation_bound == 0.0


def test_each_parity_block_keeps_its_floor():
    # with W = 0 no level reaches the result, yet each block keeps its floor
    frame, psi = _state_quench(QuenchSpec(LmgParams(0.4, SpinSector(400)), 1.0))
    frame = dataclasses.replace(frame, w_block=np.zeros_like(frame.w_block))
    kept, psi_kept, bound = _reachable(frame, psi)
    assert kept.w_block.shape == (103, 103) and psi_kept.size == 206
    assert bound == 0.0
    # a block of 21 levels is its own floor
    frame, psi = _state_quench(QuenchSpec(LmgParams(0.4, SpinSector(41)), 1.0))
    frame = dataclasses.replace(frame, w_block=np.zeros_like(frame.w_block))
    kept, psi_kept, bound = _reachable(frame, psi)
    assert kept is frame and psi_kept is psi and bound == 0.0


def test_the_floor_only_adds_levels(monkeypatch):
    state = _state_quench(QuenchSpec(LmgParams(0.4, SpinSector(400)), 1.0))
    kept, _, bound = _reachable(*state)
    monkeypatch.setattr("lmg_otoc.otoc._KEEP_SCALE", 0.0)
    reached, _, reached_bound = _reachable(*state)
    assert reached.w_block.shape == (78, 77)
    assert kept.w_block.shape == (103, 103)
    assert np.isin(reached.energies, kept.energies).all()
    assert bound <= reached_bound <= _DROP_BOUND


@pytest.mark.parametrize("alpha, lam", [(0.4, 0.0), (0.1, 0.3), (0.2, 1.0),
                                        (0.4, 1.5), (0.7, 2.0), (0.1, 2.0)])
def test_quenches_at_one_size_run_on_the_same_levels(alpha, lam):
    # at N = 400 no quench of alpha 0.1-0.7, lambda <= 2 reaches more levels
    # of a block than its floor, so each runs on the floor and costs the same
    series = commutator_series(QuenchSpec(LmgParams(alpha, SpinSector(400)), lam),
                               make_time_grid(10.0, 0.5))
    assert series.kept_levels == (103, 103)
    assert series.truncation_bound <= _DROP_BOUND
