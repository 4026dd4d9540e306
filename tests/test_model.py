"""Model Hamiltonians, the critical field, and energy rescaling."""

import numpy as np
import oracles
import pytest

from lmg_otoc import (DomainError, LmgParams, QuenchSpec, SpinSector,
                      build_hamiltonian, build_postquench, critical_lambda,
                      critical_rescaled_energy, eigh, rescale_energies)


def test_x_basis_matrix_elements():
    params = LmgParams(0.4, SpinSector(4))
    diag, off = build_hamiltonian(params)
    assert diag.shape == (5,) and off.shape == (4,)
    # diagonal: -(2(1-alpha)/S) m^2 + alpha S at m = 1
    assert abs(diag[3] - 0.2) < 1e-14
    # off-diagonal between m=0 and m=1: (alpha/2) sqrt(6)
    assert abs(off[2] - 0.2 * np.sqrt(6.0)) < 1e-14


@pytest.mark.parametrize("n", [4, 20, 100])
@pytest.mark.parametrize("alpha", [0.2, 0.4, 0.9])
def test_spectra_agree_across_bases(n, alpha):
    # the X-basis pair against the oracle's Z-basis ladder-algebra matrix
    params = LmgParams(alpha, SpinSector(n))
    ex, _ = eigh(build_hamiltonian(params))
    ez = np.linalg.eigvalsh(oracles.zbasis_hamiltonian(n, alpha))
    scale = max(1.0, np.abs(ex).max())
    assert np.max(np.abs(ex - ez)) < 1e-9 * scale


def _dense(pair):
    diag, off = pair
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def test_postquench_adds_field_term():
    # S_z in the X-basis is B^T S_z B over the oracle's S_x eigenstates B
    sz = oracles.zbasis_spin_ops(12)[2]
    b = oracles.xbasis_states_bruteforce(12)
    params = LmgParams(0.3, SpinSector(12))
    h = _dense(build_hamiltonian(params))
    hf = _dense(build_postquench(QuenchSpec(params, 0.7)))
    assert np.max(np.abs(hf - (h + 0.7 * b.T @ sz @ b))) < 1e-13
    bare = build_postquench(QuenchSpec(params, 0.0))
    assert all(np.array_equal(x, y) for x, y in zip(bare, build_hamiltonian(params)))


def test_postquench_spectra_agree_across_bases():
    spec = QuenchSpec(LmgParams(0.4, SpinSector(30)), 1.0)
    ex, _ = eigh(build_postquench(spec))
    ez = np.linalg.eigvalsh(oracles.zbasis_hamiltonian(30, 0.4, 1.0))
    assert np.max(np.abs(ex - ez)) < 1e-9 * max(1.0, np.abs(ex).max())


def test_critical_lambda_values():
    assert critical_lambda(0.4) == 1.0
    assert critical_lambda(0.2) == 1.5
    assert critical_lambda(0.0) == 2.0


@pytest.mark.parametrize("alpha", [0.8, 0.9, 1.0, -0.1])
def test_critical_lambda_domain(alpha):
    with pytest.raises(DomainError):
        critical_lambda(alpha)


def test_params_validation():
    with pytest.raises(DomainError):
        LmgParams(-0.01, SpinSector(4))
    with pytest.raises(DomainError):
        LmgParams(1.01, SpinSector(4))
    for field in (-0.5, np.inf, np.nan):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            QuenchSpec(LmgParams(0.4, SpinSector(4)), field)


def test_rescale_energies_affine():
    e = np.array([-3.0, -1.0, 0.0, 5.0])
    r = rescale_energies(e)
    assert r[0] == 0.0
    assert r[-1] == 2.0
    assert np.max(np.abs(r - 2.0 * (e - e[0]) / (e[-1] - e[0]))) < 1e-15
    # invariant under affine maps of the spectrum
    r2 = rescale_energies(3.5 * e + 11.0)
    assert np.max(np.abs(r2 - r)) < 1e-12


def test_rescale_rejects_degenerate_spectrum():
    with pytest.raises(DomainError):
        rescale_energies(np.array([2.0, 2.0, 2.0]))
    with pytest.raises(DomainError):
        rescale_energies(np.array([1.0]))
    with pytest.raises(DomainError):
        rescale_energies(np.array([1.0, 0.5]))      # not ascending
    with pytest.raises(DomainError):
        critical_rescaled_energy(np.array([2.0, 2.0, 2.0]))


def test_critical_rescaled_energy_targets_zero():
    e = np.array([-4.0, -2.0, 0.0, 2.0])
    assert abs(critical_rescaled_energy(e) - 2.0 * 4.0 / 6.0) < 1e-14


def test_ground_energy_converges_to_classical_value():
    target = oracles.classical_energy_stationary(0.4)
    gaps = []
    for n in (20, 40, 80):
        params = LmgParams(0.4, SpinSector(n))
        e0 = eigh(build_hamiltonian(params))[0][0]
        gaps.append(abs(e0 / n - target))
    assert gaps[0] > gaps[1] > gaps[2]
