"""Independent reference implementations used to validate the package.

Everything here is deliberately built through routes the library does not
use: operators are assembled in the Z-basis from raw ladder algebra, time
evolution goes through dense matrix exponentials, eigenvalues come from
Sturm-sequence bisection, long-time averages from a closed-form
spectral sum, the closed-form average's trapezoid means and its searches
for a cut of W and a path level in the forms the package first used (a
means matrix and plain bisections), single-state and all-levels traces
from the dense D x D kernels the package used before it folded by
parity, and
parity-definite levels from a dense solve with the reflection
diagonalised inside each degenerate cluster. frame_f_series is the one
deliberate exception: it restates the package's phases, so that a
product route can be compared with the package's on equal phases.
doublet_fbar is the other: it keeps only the paths on parity doublets and
sums them with the package's trapezoid means, so that it tests which
paths carry the average, not how a mean is taken. Agreement between these
routes and the library is the point of the tests; nothing else in this
module imports the package.
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


def parity_definite(h, energies, vectors, rtol=1e-8):
    """(energies, vectors): eigenpairs of a persymmetric h from a dense solve
    of it, each vector of definite parity.

    Inside a numerically degenerate cluster (neighbours closer than rtol
    times the spectral radius) a dense solve returns any basis, often
    mixtures of the two parities. There the reflection P: m -> -m is
    diagonalised. Which parity comes first inside a cluster a dense solve
    cannot resolve; the parities are placed as (-1)^(D-1-n), the order of
    an unreduced persymmetric Jacobi matrix (Cantoni and Butler, Linear
    Algebra Appl. 13, 275 (1976)). A resolved level whose parity breaks
    that order raises. A trace in this basis turns with each doublet's
    splitting, which the dense solve leaves to rounding, so the energies
    are the Rayleigh quotients of the vectors in extended precision.
    """
    d = energies.size
    out = np.empty_like(vectors)
    cuts = np.flatnonzero(np.diff(energies) > rtol * max(1.0, np.abs(energies).max()))
    for cluster in np.split(np.arange(d), cuts + 1):
        v = vectors[:, cluster]
        p, rot = np.linalg.eigh(v.T @ v[::-1])
        even = (d - 1 - cluster) % 2 == 0
        if np.count_nonzero(p > 0) != np.count_nonzero(even):
            raise AssertionError(f"levels {cluster} do not alternate in parity")
        out[:, cluster[even]] = v @ rot[:, p > 0]
        out[:, cluster[~even]] = v @ rot[:, p < 0]
    wide = out.astype(np.longdouble)
    quotients = (wide * (h.astype(np.longdouble) @ wide)).sum(axis=0) / (wide * wide).sum(axis=0)
    return quotients.astype(float), out


def dense_single_state_otoc(psi0, h_evolving, w_diag, times, commutator=False):
    """Single-state OTOC of psi0 through the dense eigenframe of h_evolving.

    psi0, h_evolving and W = V = diag(w_diag) are written in one basis.
    Returns F, or with commutator=True the tuple (F, A, relation-C,
    commutator norm). Three (four) D x D products per time batch, as the
    package did before it folded by parity.
    """
    block = 2048
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


def dense_all_levels_otoc(energies, vectors, w_diag, times):
    """F_n(t) for every level n of an eigendecomposition, through its frame.

    W = V = diag(w_diag) in the basis the eigenvectors are written in.
    Returns a D x len(times) array, row n the trace of column n: with
    M(t) = W(t) V in the eigenbasis, F_n(t) = [M(t)^2]_nn, one D x D
    product pair per sample, as the package did before it folded by parity.
    """
    w_eig = vectors.T @ (w_diag[:, None] * vectors)
    times = np.asarray(times, dtype=float)
    out = np.empty((energies.size, times.size), dtype=np.complex128)
    for j, t in enumerate(times):
        p = np.exp(1j * energies * t)
        m = p[:, None] * _matmul_real_complex(
            w_eig, np.ascontiguousarray(np.conj(p)[:, None] * w_eig))
        out[:, j] = np.einsum("ij,ji->i", m, m)
    return out


def folded_w(b):
    """The dense W = [[0, B], [B^T, 0]] of a parity frame's coupling block B."""
    he, ho = b.shape
    w = np.zeros((he + ho, he + ho))
    w[:he, he:] = b
    w[he:, :he] = b.T
    return w


def frame_f_series(energies, w, psi, times, extended=False):
    """F(t) = <psi| W(t) W W(t) W |psi> in the eigenbasis of energies, with W
    the dense matrix w in that basis, by the route the package took before
    it traced the commutator: u = W psi, then W, W(t) and W once more on
    exp(-iEt) u. The package forms <W W(t) psi| W(t) W psi> instead.

    The phases exp(iEt) are the package's own, restated here so that the
    two product routes meet on equal phases: a table of exp(iE k t_1) for
    k < 256 times exp(iE t_lo) per block of 256 samples on a grid
    t_k = k t_1, exp(iEt) elsewhere. With extended=True they are formed in
    np.longdouble instead and only then rounded to double, so that long
    horizons keep their digits. The products are plain double throughout.
    """
    times = np.asarray(times, dtype=float)
    block = 256
    n = times.size
    tabulated = n > 1 and np.array_equal(times, np.arange(n) * times[1])
    if extended:
        wide = np.asarray(energies).astype(np.longdouble)
    elif tabulated:
        table = np.exp(1j * energies[:, None] * (np.arange(min(n, block)) * times[1])[None, :])
    u = w @ psi
    f = np.empty(n, dtype=np.complex128)
    for lo in range(0, n, block):
        t = times[lo:lo + block]
        if extended:
            ph = np.exp(1j * wide[:, None] * t.astype(np.longdouble)[None, :])
            ph = ph.astype(np.complex128)
        elif tabulated:
            ph = table[:, :t.size] * np.exp(1j * energies * times[lo])[:, None]
        else:
            ph = np.exp(1j * energies[:, None] * t[None, :])
        x = _matmul_real_complex(w, np.conj(ph) * u[:, None])
        x = _matmul_real_complex(w, ph * x)
        x = _matmul_real_complex(w, np.conj(ph) * x)
        f[lo:lo + t.size] = psi @ (ph * x)
    return f


def trapezoid_means_longdouble(energies, w, psi, times):
    """Trapezoidal means of Re F over the grid and over its first half, F
    sampled by frame_f_series on phases formed in np.longdouble. The first
    half ends at the last sample at or below t_end / 2, and holds at least
    two samples."""
    times = np.asarray(times, dtype=float)
    f = frame_f_series(energies, w, psi, times, extended=True).real
    half_end = max(int(np.count_nonzero(times <= times[-1] / 2.0)), 2)
    return (trapezoid_mean(f, times),
            trapezoid_mean(f[:half_end], times[:half_end]))


def doublet_fbar(frame, psi, steps):
    """The trapezoid mean of Re F on the grid steps = (dt, K, K_half),
    summed over the paths that stay on parity doublets alone.

    Level i of the even block and level i of the odd block of the parity
    frame form doublet i, split by s_i = E^odd_i - E^even_i; for D odd the
    extra even level stays unpaired. From a level a of doublet i, with ā
    its partner, the paths a -> ā -> c -> c̄ and a -> c̄ -> c -> ā through
    doublet j have Omega = -(s_i + s_j) for an even a and +(s_i + s_j) for
    an odd one; the second family is taken for i != j only, since at i = j
    it is the first. Each path weighs psi_a W_ab W_bc W_cd u_d with u = W
    psi and W_(even i, odd j) = B[i, j]. The weights are summed by the
    package's own trapezoid means (otoc._weighted_means), the one import
    of the package here: what this checks is the choice of paths.
    """
    from lmg_otoc.otoc import _weighted_means
    dt, k, k_half = steps
    b, e = frame.w_block, frame.energies
    he, h = b.shape
    s = e[he:] - e[:h]
    pair = b[:h, :h]                            # B[i, j] over the doublets
    d = np.diag(pair)
    pe, po = psi[:h], psi[he:]
    ue, uo = (b @ po)[:h], b.T @ psi[:he]
    omega = s[:, None] + s[None, :]
    other = ~np.eye(h, dtype=bool)
    coef = [(pe * d)[:, None] * pair.T * (d * uo)[None, :],
            ((pe * uo)[:, None] * pair * pair.T * d[None, :])[other],
            (po * d)[:, None] * pair * (d * ue)[None, :],
            ((po * ue)[:, None] * pair * pair.T * d[None, :])[other]]
    half = [-omega, -omega[other], omega, omega[other]]
    return float(_weighted_means(np.concatenate([x.ravel() for x in half]) * (dt / 2.0),
                                 np.concatenate([x.ravel() for x in coef]),
                                 (k, k_half))[0])


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


def _reduce_pi(x):
    """x less its nearest multiple of pi, in place."""
    multiple = np.rint(x * (1.0 / np.pi))
    multiple *= np.pi
    x -= multiple
    return x


def _trapezoid_means(half, steps):
    """Trapezoid means of cos(omega t) on t_k = k dt, rows (k = 0..K, k =
    0..K_half), at the half-angles half = omega dt / 2, which are
    overwritten; steps is (K, K_half) with K = 2 K_half + r, r in {-1, 0,
    1}. Over k = 0..n the mean is sin(n theta) / (2n tan(theta/2)) with
    theta = omega dt, and 1 where tan(theta/2) = 0.

    The package's closed-form average took these means, one row per
    horizon, and then weighed them by a product with its path weights.
    theta/2 and K_half theta/2 are reduced modulo pi; with t =
    tan(theta/2) and tau = tan(K_half theta/2) the half mean is m = tau /
    (K_half t (1 + tau^2)), and with c = cos(K_half theta) = (1 - tau^2) /
    (1 + tau^2) the full mean is m c where r = 0, else (2 K_half m c (1 -
    t^2) + r (2 c^2 - 1)) / (K (1 + t^2)).
    """
    k, k_half = steps
    t1 = np.tan(_reduce_pi(half))
    flat = t1 == 0.0
    tau = np.tan(_reduce_pi(half * k_half))
    den = tau * tau
    c = np.subtract(1.0, den)
    den += 1.0
    c /= den
    den *= t1
    den *= k_half
    np.copyto(den, 1.0, where=flat)
    np.copyto(tau, 1.0, where=flat)
    means = np.empty((2, half.size))
    m = np.divide(tau, den, out=means[1])
    full = np.multiply(m, c, out=means[0])
    if k != 2 * k_half:
        t1 *= t1
        full *= 2 * k_half * (1.0 - t1)
        full += (k - 2 * k_half) * (2.0 * c * c - 1.0)
        full /= k * (1.0 + t1)
    return means


def _highest(holds, lo, hi):
    """The highest x in [lo, hi] where holds(x), for holds true at lo and
    true up to some x, false above."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid - 1)
    return lo


def cut_w_bisection(ab, left, right, budget, floor):
    """(keep, loss) of a closed-form average's cut of |B|: the entries below
    the largest power of two 2^-k, k = 0..1074, whose loss fits the budget
    are cut, found by bisecting k over the whole range, but at least the
    floor largest entries are kept. The loss is |psi| (|W|^3 - |W_cut|^3)
    |u| for left = |psi| and right = |u|, with W = [[0, B], [B^T, 0]]; its
    products are summed by einsum, as the package sums them, so that both
    searches compare the same losses."""
    he = ab.shape[0]

    def apply(m, x):
        return np.concatenate([np.einsum("ij,j->i", m, x[he:]),
                               np.einsum("ji,j->i", m, x[:he])])

    r = [right, apply(ab, right)]
    r.append(apply(ab, r[-1]))

    def cut(threshold):
        keep = ab >= threshold
        kept = np.where(keep, ab, 0.0)
        rest = ab - kept
        loss, left_k = 0.0, left
        for r_k in r[::-1]:
            loss += left_k @ apply(rest, r_k)
            left_k = apply(kept, left_k)
        return keep, float(loss)

    lo, hi = 0, 1074
    while lo < hi:
        mid = (lo + hi) // 2
        if cut(2.0 ** -mid)[1] <= budget:
            hi = mid
        else:
            lo = mid + 1
    threshold = 2.0 ** -lo
    weight = ab.ravel()
    if floor > 0:
        if weight.size <= floor:
            threshold = 0.0
        else:
            nth = np.partition(weight, weight.size - floor)[weight.size - floor]
            threshold = min(threshold, float(nth))
    return cut(threshold)


def path_level_bisection(kept, dropped, lo, hi, floor, share, bin_floor):
    """The level of a closed-form average's path cut, searched bound first:
    the highest x in [lo, hi] whose dropped(x) weight fits the share, and
    if its kept(x) paths fall short of the floor, the highest below it
    that keeps the floor, searched from no lower than 2 bin_floor + 1."""
    x = _highest(lambda x: dropped(x) <= share, lo, hi)
    if kept(x) < floor:
        x = _highest(lambda x: kept(x) >= floor, min(x, max(lo, 2 * bin_floor + 1)), x)
    return x
