"""Independent reference implementations used to validate the package.

Everything here is deliberately built through routes the library does not
use: operators are assembled in the Z-basis from raw ladder algebra, time
evolution goes through dense matrix exponentials, eigenvalues come from
Sturm-sequence bisection, long-time averages from a closed-form
spectral sum, and single-state and all-levels traces from the dense
D x D kernels the package used before it folded by parity. Agreement
between these routes and the library is the point of the tests; nothing
in this module imports the package.
"""

import numpy as np
from scipy.linalg import expm

# Frozen reference values, computed once with this module's own routines.
# Quench protocol from the ground state, N=20, alpha=0.4, averaging
# horizon T=1e4. Regression anchors for the spectral-average oracle.
FROZEN_SPECTRAL_FBAR_N20_A04 = {
    0.0: 0.9419695392129822,
    0.5: 0.5826123052788225,
    2.0: -0.000114023911154933,
}
# Same setup, strict infinite-horizon stationary sum at lambda=0.
FROZEN_STATIONARY_FBAR_N20_A04_L0 = 0.9392567530482212


def ladder_matrices(n_spins):
    """Raw S+, S-, Sz in the Z-basis (m ascending) for S = n_spins/2."""
    S = n_spins / 2
    m = np.arange(n_spins + 1) - S
    up = np.sqrt(S * (S + 1) - m[:-1] * (m[:-1] + 1))
    sp = np.diag(up, -1)     # <m+1|S+|m>
    sm = np.diag(up, 1)      # <m|S-|m+1>
    sz = np.diag(m)
    return sp, sm, sz


def zbasis_spin_ops(n_spins):
    """Sx, Sy (complex), Sz in the Z-basis from the ladder construction."""
    sp, sm, sz = ladder_matrices(n_spins)
    sx = (sp + sm) / 2
    sy = (sp - sm) / (2j)
    return sx, sy, sz


def zbasis_hamiltonian(n_spins, alpha, lam=0.0):
    S = n_spins / 2
    sx, _, sz = zbasis_spin_ops(n_spins)
    h = -(2 * (1 - alpha) / S) * (sx @ sx) + alpha * (sz + S * np.eye(n_spins + 1))
    if lam:
        h = h + lam * sz
    return h


def xbasis_states_bruteforce(n_spins):
    """Columns: the S_x eigenstates (m ascending) expressed in the Z-basis.

    Signs fixed so consecutive states give a positive Sz matrix element,
    which is the phase convention that makes Sz real tridiagonal with
    positive off-diagonals in the X-basis.
    """
    sx, _, sz = zbasis_spin_ops(n_spins)
    vals, vecs = np.linalg.eigh(sx.real)
    order = np.argsort(vals)
    vecs = vecs[:, order]
    for k in range(1, n_spins + 1):
        if vecs[:, k - 1] @ sz.real @ vecs[:, k] < 0:
            vecs[:, k] = -vecs[:, k]
    return vecs


def sturm_count(diag, off, x):
    """Number of eigenvalues of the symmetric tridiagonal matrix below x."""
    count = 0
    q = diag[0] - x
    if q < 0:
        count += 1
    for i in range(1, len(diag)):
        denom = q if q != 0.0 else 1e-300
        q = diag[i] - x - off[i - 1] * off[i - 1] / denom
        if q < 0:
            count += 1
    return count


def sturm_eigenvalues(diag, off, tol=1e-12):
    """All eigenvalues of a symmetric tridiagonal matrix by bisection.

    LAPACK-free; cost O(D^2 log(1/tol)), intended for D up to a few tens.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    radius = np.abs(diag).max() + 2 * (np.abs(off).max() if len(off) else 0.0)
    lo0, hi0 = -radius - 1.0, radius + 1.0
    out = np.empty(len(diag))
    for k in range(len(diag)):
        lo, hi = lo0, hi0
        # invariant: count(lo) <= k < count(hi)
        while hi - lo > tol * max(1.0, abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            if sturm_count(diag, off, mid) <= k:
                lo = mid
            else:
                hi = mid
        out[k] = 0.5 * (lo + hi)
    return out


def expm_otoc_series(n_spins, alpha, lam, times, level=None):
    """OTOC trace by dense matrix exponentials in the Z-basis.

    level=None: quench protocol from the ground state of the alpha
    Hamiltonian, evolved with the field-shifted one. Integer level:
    single-eigenstate protocol, evolution under the bare Hamiltonian.
    Returns dict with f, a_term, c_relation, c_norm arrays.
    """
    S = n_spins / 2
    sx, _, _ = zbasis_spin_ops(n_spins)
    w = sx.real / S
    h0 = zbasis_hamiltonian(n_spins, alpha)
    e0, v0 = np.linalg.eigh(h0)
    if level is None:
        psi = v0[:, 0].astype(complex)
        hev = zbasis_hamiltonian(n_spins, alpha, lam)
    else:
        psi = v0[:, level].astype(complex)
        hev = h0
    f = np.empty(len(times), dtype=complex)
    a_term = np.empty(len(times), dtype=complex)
    c_rel = np.empty(len(times))
    c_norm = np.empty(len(times))
    for i, t in enumerate(times):
        u = expm(-1j * hev * t)
        wt = u.conj().T @ w @ u
        a = wt @ psi
        b = wt @ (w @ psi)
        f[i] = np.vdot(a, w @ b)
        a_term[i] = np.vdot(b, b)
        c_rel[i] = 2 * a_term[i].real - 2 * f[i].real
        c_norm[i] = np.linalg.norm(b - w @ a) ** 2
    return {"f": f, "a_term": a_term, "c_relation": c_rel, "c_norm": c_norm}


def _matmul_real_complex(a, x):
    rows = x.shape[0]
    return (a @ x.view(np.float64).reshape(rows, -1)).view(np.complex128)


def dense_single_state_otoc(h_bare, h_evolving, w_diag, times, level=0,
                            commutator=False):
    """Single-state OTOC through the dense eigenframe of h_evolving.

    The state is column `level` of the dense eigendecomposition of h_bare;
    W = V = diag(w_diag) in the basis both matrices are written in. Returns
    F, or with commutator=True the tuple (F, A, relation-C, commutator
    norm). Three (four) D x D products per time batch, as the package did
    before it folded by parity.
    """
    block = 2048
    psi0 = np.linalg.eigh(h_bare)[1][:, level]
    energies, vectors = np.linalg.eigh(h_evolving)
    w_eig = vectors.T @ (w_diag[:, None] * vectors)
    psi_eig = vectors.T @ psi0
    times = np.asarray(times, dtype=float)
    u = w_eig @ psi_eig
    n = times.size
    f = np.empty(n, dtype=np.complex128)
    a_term = np.empty(n, dtype=np.complex128)
    c_norm = np.empty(n)
    for lo in range(0, n, block):
        t = times[lo:lo + block]
        sl = slice(lo, lo + t.size)
        phases = np.exp(1j * energies[:, None] * t[None, :])
        if not commutator:
            x = np.conj(phases) * u[:, None]
            x = _matmul_real_complex(w_eig, x)
            x *= phases
            x = _matmul_real_complex(w_eig, x)
            x *= np.conj(phases)
            x = _matmul_real_complex(w_eig, x)
            x *= phases
            f[sl] = psi_eig @ x
            continue
        wt_psi = phases * _matmul_real_complex(w_eig, np.conj(phases) * psi_eig[:, None])
        wt_v_psi = phases * _matmul_real_complex(w_eig, np.conj(phases) * u[:, None])
        v_wt_v_psi = _matmul_real_complex(w_eig, wt_v_psi)
        v_wt_psi = _matmul_real_complex(w_eig, wt_psi)
        f[sl] = np.einsum("ib,ib->b", np.conj(wt_psi), v_wt_v_psi)
        a_term[sl] = np.einsum("ib,ib->b", np.conj(wt_v_psi), wt_v_psi)
        diff = wt_v_psi - v_wt_psi
        c_norm[sl] = (diff.real ** 2 + diff.imag ** 2).sum(axis=0)
    if not commutator:
        return f
    return f, a_term, 2.0 * a_term.real - 2.0 * f.real, c_norm


def dense_all_levels_otoc(h, w_diag, times):
    """F_n(t) for every level n of h, evolving under h, through its dense frame.

    W = V = diag(w_diag) in the basis h is written in. Returns a
    D x len(times) array, row n the trace of column n of the dense
    eigendecomposition: with M(t) = W(t) V in the eigenbasis,
    F_n(t) = [M(t)^2]_nn, one D x D product pair per sample, as the
    package did before it folded by parity.
    """
    energies, vectors = np.linalg.eigh(h)
    w_eig = vectors.T @ (w_diag[:, None] * vectors)
    times = np.asarray(times, dtype=float)
    out = np.empty((energies.size, times.size), dtype=np.complex128)
    for j, t in enumerate(times):
        p = np.exp(1j * energies * t)
        m = p[:, None] * _matmul_real_complex(
            w_eig, np.ascontiguousarray(np.conj(p)[:, None] * w_eig))
        out[:, j] = np.einsum("ij,ji->i", m, m)
    return out


def two_level_micro_f(alpha, times, level):
    """Closed form for the N=1 single-eigenstate OTOC, W = V = 2 S_x.

    The two levels are split by alpha; the Heisenberg factors reduce to
    a pure phase rotating at twice the gap, with opposite senses for the
    upper and lower state.
    """
    sign = +1.0 if level == 1 else -1.0
    return np.exp(sign * 2j * alpha * np.asarray(times, dtype=float))


def spectral_fbar(n_spins, alpha, lam=0.0, horizon=None, level=None,
                  gap_tol=1e-10):
    """Long-time average of Re F from the spectral expansion, Z-basis route.

    horizon=None sums only exactly stationary terms (energies clustered
    at gap_tol): the infinite-horizon limit. A finite horizon T evaluates
    the exact mean of Re F over [0, T]: each term picks up the analytic
    window factor Re[exp(i g T/2) sinc(g T/2)] for its frequency g.
    """
    S = n_spins / 2
    sx, _, _ = zbasis_spin_ops(n_spins)
    h0 = zbasis_hamiltonian(n_spins, alpha)
    e0, v0 = np.linalg.eigh(h0)
    if level is None:
        psi = v0[:, 0]
        energies, vecs = np.linalg.eigh(zbasis_hamiltonian(n_spins, alpha, lam))
    else:
        psi = v0[:, level]
        energies, vecs = e0, v0
    w = vecs.T @ (sx.real / S) @ vecs
    ps = vecs.T @ psi
    u = w @ ps
    d = n_spins + 1
    if horizon is None:
        labels = np.zeros(d, dtype=int)
        for i in range(1, d):
            labels[i] = labels[i - 1] + (1 if energies[i] - energies[i - 1] > gap_tol else 0)
        eq = np.array([energies[labels == g].mean() for g in range(labels[-1] + 1)])[labels]
        energies = eq
    total = 0.0
    for a in range(d):
        for b in range(d):
            la = ps[a] * w[a, b]
            if la == 0.0:
                continue
            g = (energies[a] - energies[b]) + energies[:, None] - energies[None, :]
            if horizon is None:
                kern = (np.abs(g) < 0.5 * gap_tol).astype(float)
            else:
                x = 0.5 * g * horizon
                kern = np.cos(x) * np.sinc(x / np.pi)
            quad = w[b, :][:, None] * w * u[None, :]
            total += la * float((quad * kern).sum())
    return total


def classical_energy_stationary(alpha):
    """Closed-form minimum of the classical energy surface per spin.

    Interior stationary point u_z = -alpha/(4(1-alpha)) when it lies on
    the sphere, else the u_z = -1 pole.
    """
    if alpha < 0.8:
        uz = -alpha / (4 * (1 - alpha))
        return -(1 - alpha) * (1 - uz * uz) + 0.5 * alpha * (uz + 1)
    return 0.0


def trapezoid_mean(values, times):
    """Plain trapezoidal mean, spelled out rather than delegated."""
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    dt = np.diff(times)
    return float((0.5 * dt * (values[1:] + values[:-1])).sum() / (times[-1] - times[0]))
