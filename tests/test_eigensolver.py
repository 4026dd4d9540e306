"""Eigendecomposition invariants and the Sturm-bisection cross-check."""

import numpy as np
import oracles
import pytest

from lmg_otoc import (DomainError, LmgParams, NumericalError, QuenchSpec,
                      SpinSector, build_hamiltonian, build_postquench, eigh)
from lmg_otoc.otoc import commutator_series, long_time_average, make_time_grid


def test_diagonal_matrix():
    m = SpinSector(4).m_values()
    values, vectors = eigh((m, np.zeros(4)))
    assert np.array_equal(values, m)
    assert vectors.shape == (5, 5)


def test_invariants_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(5):
        diag, off = rng.normal(size=50), rng.normal(size=49)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        values, vectors = eigh((diag, off))
        eye = np.eye(50)
        assert np.max(np.abs(vectors.T @ vectors - eye)) < 1e-10
        recon = vectors @ np.diag(values) @ vectors.T
        assert np.max(np.abs(recon - dense)) < 1e-8 * np.linalg.norm(dense)
        assert np.all(np.diff(values) >= 0)
        assert not values.flags.writeable and not vectors.flags.writeable


def test_rejects_malformed_pair():
    for diag, off in ((np.zeros(4), np.zeros(4)),        # off-diagonal too long
                      (np.zeros(4), np.zeros(2)),        # off-diagonal too short
                      (np.zeros((2, 2)), np.zeros(1)),   # a matrix, not a diagonal
                      (np.zeros(0), np.zeros(0))):       # empty
        with pytest.raises(DomainError):
            eigh((diag, off))


def test_convergence_failure_is_reported(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")
    monkeypatch.setattr(np.linalg, "eigh", boom)
    with pytest.raises(NumericalError, match="5-dim"):
        eigh((np.zeros(5), np.ones(4)))


@pytest.mark.parametrize("n", [6, 18, 30])
def test_tridiagonal_eigenvalues_match_sturm_bisection(n):
    params = LmgParams(0.4, SpinSector(n))
    diag, off = build_hamiltonian(params)
    got, _ = eigh((diag, off))
    want = oracles.sturm_eigenvalues(diag, off)
    assert np.max(np.abs(got - want)) < 1e-10


def test_field_shift_obeys_eigenvalue_perturbation_bound():
    # |E_k(H + lam Sz) - E_k(H)| <= lam * ||Sz|| = lam * S
    for n, alpha, lam in ((20, 0.4, 1.0), (35, 0.2, 2.5)):
        params = LmgParams(alpha, SpinSector(n))
        e_bare, _ = eigh(build_hamiltonian(params))
        e_shift, _ = eigh(build_postquench(QuenchSpec(params, lam)))
        bound = lam * params.sector.total_spin
        assert np.max(np.abs(e_shift - e_bare)) <= bound * (1 + 1e-12)


def test_degenerate_block_rotation_leaves_averages_alone():
    # alpha=0 spectra are doubly degenerate in +-m; the average must not
    # depend on which basis the solver picks inside each block
    params = LmgParams(0.0, SpinSector(10))
    spec = QuenchSpec(params, 0.5)
    times = make_time_grid(200.0, 0.1)
    baseline = long_time_average(commutator_series(spec, times)).value

    psi0 = eigh(build_hamiltonian(params))[1][:, 0]
    energies, vectors = (a.copy() for a in eigh(build_postquench(spec)))

    # rotate inside every degenerate block of the evolving spectrum
    rng = np.random.default_rng(3)
    i = 0
    while i < energies.size:
        j = i + 1
        while j < energies.size and energies[j] - energies[j - 1] < 1e-10:
            j += 1
        if j - i > 1:
            block = rng.normal(size=(j - i, j - i))
            q, _ = np.linalg.qr(block)
            vectors[:, i:j] = vectors[:, i:j] @ q
        i = j

    sec = params.sector
    w_diag = sec.m_values() / sec.total_spin
    w_eig = vectors.T @ (w_diag[:, None] * vectors)
    psi_eig = vectors.T @ psi0
    u = w_eig @ psi_eig
    f = np.empty(times.size, dtype=complex)
    for k, t in enumerate(times):
        p = np.exp(1j * energies * t)
        x = np.conj(p) * u
        x = p * (w_eig @ x)
        x = np.conj(p) * (w_eig @ x)
        x = p * (w_eig @ x)
        f[k] = psi_eig @ x
    rotated = float(np.trapezoid(f.real, times) / (times[-1] - times[0]))
    assert abs(rotated - baseline) < 1e-8
