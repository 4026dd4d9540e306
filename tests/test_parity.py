"""Parity-folded OTOC kernels against the dense D x D kernels."""

import numpy as np
import oracles
import pytest

from lmg_otoc import (DomainError, LmgParams, QuenchSpec, SpinSector,
                      build_hamiltonian, build_postquench, commutator_series,
                      commutator_series_micro, make_time_grid, micro_otoc,
                      quench_otoc)
from lmg_otoc.otoc import _all_levels, _fold

TOL = 1e-9


def _matrix(pair):
    diag, off = pair
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _dense(params, times, lam=0.0, level=None, commutator=False):
    bare = _matrix(build_hamiltonian(params))
    if level is None:
        evolving = _matrix(build_postquench(QuenchSpec(params, lam)))
    else:
        evolving = bare
    w = params.sector.m_values() / params.sector.total_spin
    return oracles.dense_single_state_otoc(
        bare, evolving, w, times, level=level or 0, commutator=commutator)


def _grid(kind):
    if kind == "uniform":
        return make_time_grid(300.0, 0.25)
    rng = np.random.default_rng(7)
    return np.concatenate([[0.0], np.sort(rng.uniform(0.0, 300.0, 700))])


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
    for tmax, dt in ((1e4, 0.5), (2000.0, 0.05), (10.0, 0.3), (1.0, 0.37)):
        t = make_time_grid(tmax, dt)
        assert np.array_equal(t, np.arange(t.size) * t[1])


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
    # deep levels come out of the dense solve as localised doublet mixtures
    mixed = np.abs(_parity(np.linalg.eigh(_matrix(build_hamiltonian(params)))[1])) < 0.5
    assert mixed[0]
    for level in (0, 7, 30, n):
        got = micro_otoc(params, level, times).values
        assert np.max(np.abs(got - _dense(params, times, level=level))) < TOL
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
    # the dense solve returns localised doublet mixtures deep in the spectrum
    assert np.abs(_parity(np.linalg.eigh(h)[1])).min() < 1e-6
    got = np.array(list(_all_levels(params, times))).T
    w = params.sector.m_values() / params.sector.total_spin
    want = oracles.dense_all_levels_otoc(h, w, times)
    assert np.max(np.abs(got - want)) < 1e-12


def test_long_horizon_quench_at_production_size():
    params = LmgParams(0.4, SpinSector(200))
    times = make_time_grid(1e4, 0.5)
    got = quench_otoc(QuenchSpec(params, 1.0), times).values
    assert np.max(np.abs(got - _dense(params, times, 1.0))) < TOL
