"""Self-checks for the independent oracle routes.

The oracles live entirely in the Z basis and scipy matrix exponentials,
sharing no code with the package engine; these tests pin them against
closed forms and frozen reference numbers so a drift in the oracles
cannot silently weaken the cross-checks elsewhere.
"""

import numpy as np
import oracles

import lmg_otoc as lo


def test_ladder_matrices_satisfy_su2_algebra():
    sp, sm, sz = oracles.ladder_matrices(6)
    assert np.allclose(sp.T, sm)
    comm = sp @ sm - sm @ sp
    assert np.allclose(comm, 2.0 * sz, atol=1e-12)


def test_zbasis_spin_ops_casimir():
    sx, sy, sz = oracles.zbasis_spin_ops(8)
    s = 4.0
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.allclose(casimir, s * (s + 1) * np.eye(9), atol=1e-10)


def test_sturm_matches_lapack_on_tridiagonal():
    rng = np.random.default_rng(7)
    for _ in range(4):
        d = rng.normal(size=9)
        e = rng.normal(size=8)
        m = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        ours = oracles.sturm_eigenvalues(d, e)
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(ours - ref)) < 1e-10


def test_expm_oracle_reproduces_two_level_closed_form():
    times = np.linspace(0.0, 5.0, 11)
    for level in (0, 1):
        got = oracles.expm_otoc_series(1, 0.3, 0.0, times, level=level)["f"]
        want = oracles.two_level_micro_f(0.3, times, level)
        assert np.max(np.abs(got - want)) < 1e-12


def test_spectral_fbar_frozen_values():
    # frozen via this module itself; guards against silent drift
    for lam, want in oracles.FROZEN_SPECTRAL_FBAR_N20_A04.items():
        got = oracles.spectral_fbar(20, 0.4, lam=lam, horizon=1e4)
        assert abs(got - want) < 1e-10, f"lam={lam}"
    got = oracles.spectral_fbar(20, 0.4, lam=0.0)
    assert abs(got - oracles.FROZEN_STATIONARY_FBAR_N20_A04_L0) < 1e-10


def test_spectral_fbar_two_level_vanishes():
    # the N=1 trace is a pure oscillation, so its infinite-time mean is 0
    assert abs(oracles.spectral_fbar(1, 0.3, level=0)) < 1e-12


def test_spectral_fbar_free_model_levels():
    # energies sort by -m^2, so level 0 pairs with |m| = S and level 10 is m = 0
    assert abs(oracles.spectral_fbar(10, 0.0, level=0) - 1.0) < 1e-12
    assert abs(oracles.spectral_fbar(10, 0.0, level=10)) < 1e-12


def test_bruteforce_x_states_diagonalize_sx():
    n = 7
    sx, _, _ = oracles.zbasis_spin_ops(n)
    states = oracles.xbasis_states_bruteforce(n)
    assert np.allclose(states.T @ states, np.eye(n + 1), atol=1e-12)
    m = states.T @ sx @ states
    want = np.diag((2.0 * np.arange(n + 1) - n) / 2.0)
    assert np.allclose(m, want, atol=1e-10)


def test_classical_energy_stationary_closed_form():
    # interior stationary point below the ground-state transition
    for alpha in (0.0, 0.2, 0.4, 0.6):
        uz = -alpha / (4.0 * (1.0 - alpha))
        want = -(1.0 - alpha) * (1.0 - uz * uz) + 0.5 * alpha * (uz + 1.0)
        assert abs(oracles.classical_energy_stationary(alpha) - want) < 1e-14
    assert oracles.classical_energy_stationary(0.9) == 0.0


def test_trapezoid_mean_exact_on_linear_ramp():
    t = np.linspace(0.0, 4.0, 9)
    assert abs(oracles.trapezoid_mean(t, t) - 2.0) < 1e-14


def test_zbasis_hamiltonian_spectrum_matches_package():
    for n, alpha, lam in ((6, 0.4, 0.0), (12, 0.2, 0.7), (20, 0.9, 0.0)):
        params = lo.LmgParams(alpha, lo.SpinSector(n))
        if lam == 0.0:
            h = lo.build_hamiltonian(params)
        else:
            h = lo.build_postquench(lo.QuenchSpec(params, lam))
        pkg = lo.eigh(h).values
        orc = np.linalg.eigvalsh(oracles.zbasis_hamiltonian(n, alpha, lam))
        assert np.max(np.abs(pkg - orc)) < 1e-9
