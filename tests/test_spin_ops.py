"""The collective-spin sector: magnetic numbers and ladder strengths.

SpinSector.m_values and SpinSector.ladder_strengths are all the package
keeps of the spin operators: S_x is diag(m) in the X-basis and S_z the
ladder pair there. The operators are assembled here from those two arrays
in both frames and checked against the su(2) algebra and against the
oracle's brute-force X-basis states.
"""

import numpy as np
import oracles
import pytest

from lmg_otoc import DomainError, SpinSector

SECTORS = [SpinSector(n) for n in (1, 2, 3, 8, 21, 50)]


def _frame_ops(sec, basis):
    """(S_x, S_y, S_z) as dense matrices in the Z- or X-basis.

    In the Z-basis S_x is the half-ladder tridiagonal and S_z diag(m); in
    the X-basis the two swap roles, and the phase convention that makes
    the X-basis S_z off-diagonal positive flips the sign of S_y.
    """
    half = sec.ladder_strengths() / 2
    ladder = np.diag(half, 1) + np.diag(half, -1)
    m = np.diag(sec.m_values())
    sign = 1.0 if basis == "z" else -1.0
    sy = 1j * sign * (np.diag(half, 1) - np.diag(half, -1))
    return (ladder, sy, m) if basis == "z" else (m, sy, ladder)


def test_sector_basics():
    sec = SpinSector(5)
    assert sec.total_spin == 2.5
    assert sec.dimension == 6
    assert np.array_equal(sec.m_values(), np.arange(6) - 2.5)


@pytest.mark.parametrize("bad", [0, -3, 2.5, "4"])
def test_sector_rejects_bad_counts(bad):
    with pytest.raises((DomainError, TypeError)):
        SpinSector(bad)


def test_single_spin_x_matrix_in_z_basis():
    sx, _, _ = _frame_ops(SpinSector(1), "z")
    assert np.array_equal(sx, np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_two_spin_z_matrix_in_x_basis():
    _, _, sz = _frame_ops(SpinSector(2), "x")
    r = 1.0 / np.sqrt(2.0)
    want = np.array([[0, r, 0], [r, 0, r], [0, r, 0]])
    assert np.max(np.abs(sz - want)) < 1e-15


def test_four_spin_ladder_element():
    # coupling between the m=0 and m=1 eigenstates
    assert abs(SpinSector(4).ladder_strengths()[2] / 2 - np.sqrt(6.0) / 2.0) < 1e-15


@pytest.mark.parametrize("sec", SECTORS, ids=lambda s: f"N{s.n_spins}")
@pytest.mark.parametrize("basis", ["z", "x"])
def test_commutation_relations(sec, basis):
    sx, sy, sz = _frame_ops(sec, basis)
    assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-12
    assert np.max(np.abs(sy @ sz - sz @ sy - 1j * sx)) < 1e-12
    assert np.max(np.abs(sz @ sx - sx @ sz - 1j * sy)) < 1e-12


@pytest.mark.parametrize("sec", SECTORS, ids=lambda s: f"N{s.n_spins}")
@pytest.mark.parametrize("basis", ["z", "x"])
def test_casimir(sec, basis):
    sx, sy, sz = _frame_ops(sec, basis)
    s = sec.total_spin
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.max(np.abs(casimir - s * (s + 1) * np.eye(sec.dimension))) < 1e-10


@pytest.mark.parametrize("sec", SECTORS, ids=lambda s: f"N{s.n_spins}")
def test_generator_spectra_are_magnetic_numbers(sec):
    for basis in ("z", "x"):
        for op in _frame_ops(sec, basis):
            vals = np.sort(np.linalg.eigvalsh(op))
            assert np.max(np.abs(vals - sec.m_values())) < 1e-10


@pytest.mark.parametrize("sec", SECTORS, ids=lambda s: f"N{s.n_spins}")
def test_rotation_is_orthogonal(sec):
    # the Z -> X rotation lives in the oracle now: its brute-force S_x
    # eigenstates, which the frame checks below rely on
    b = oracles.xbasis_states_bruteforce(sec.n_spins)
    eye = np.eye(sec.dimension)
    assert np.max(np.abs(b.T @ b - eye)) < 1e-12
    assert np.max(np.abs(b @ b.T - eye)) < 1e-12


def test_rotation_matches_bruteforce_states():
    # B^T S_z B over the oracle's S_x eigenstates B is the X-basis S_z the
    # post-quench Hamiltonian adds: zero diagonal, off-diagonal ladder/2
    for n in (2, 5, 12):
        b = oracles.xbasis_states_bruteforce(n)
        sz_x = b.T @ oracles.zbasis_spin_ops(n)[2] @ b
        want = SpinSector(n).ladder_strengths() / 2
        assert np.max(np.abs(sz_x - (np.diag(want, 1) + np.diag(want, -1)))) < 1e-10


def test_basis_change_maps_builders_onto_each_other():
    # the oracle's rotation carries both frames' operators, built from the
    # sector's m values and ladder strengths, onto each other
    sec = SpinSector(9)
    b = oracles.xbasis_states_bruteforce(9)
    for zform, xform in zip(_frame_ops(sec, "z"), _frame_ops(sec, "x")):
        assert np.max(np.abs(b.T @ zform @ b - xform)) < 1e-12
        assert np.max(np.abs(b @ xform @ b.T - zform)) < 1e-12
