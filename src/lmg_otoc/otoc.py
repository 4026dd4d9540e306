"""Out-of-time-order correlator engine.

Both protocols evolve W = V = S_x/S in the Heisenberg picture and read off

    F(t) = <psi| W(t) V W(t) V |psi>,     W(t) = exp(+iHt) W exp(-iHt),

with everything expressed in the eigenbasis of the evolving Hamiltonian:
the heavy objects are the real matrix of W in that basis and the real
coefficient vector of |psi>, prepared once; each time sample then costs
diagonal phase sandwiches plus matrix products.

Both Hamiltonians commute with the parity m -> -m of the X-basis, and W
is parity-odd. Both kernels therefore work in a folded frame: the even
and odd tridiagonal blocks are solved separately and W is the one block
B coupling them, so every product is half-size. The states themselves
still come from the dense solve of the bare Hamiltonian.

Protocols:
  * quench: |psi> is the ground state of the bare Hamiltonian, evolution
    runs under the field-shifted one.
  * microcanonical: |psi> is the n-th eigenstate of the bare Hamiltonian,
    which also drives the evolution.

Complex numbers enter only through the phase factors; operators, states
and eigenvectors stay real throughout.
"""

from dataclasses import dataclass, field

import numpy as np

from .eigensolver import eigh
from .errors import DomainError
from .model import (LmgParams, QuenchSpec, SpinSector, build_hamiltonian,
                    build_postquench)

DEFAULT_AVERAGING_TIME = 1.0e4
DEFAULT_AVERAGING_DT = 0.5
DEFAULT_DYNAMICS_DT = 0.05

# time samples per product batch; keeps the phase block cache-sized
_BLOCK = 512


def make_time_grid(tmax: float, dt: float) -> np.ndarray:
    """Uniform grid over [0, tmax] whose end snaps to a whole step count."""
    if tmax <= 0 or dt <= 0:
        raise DomainError(f"need tmax > 0 and dt > 0, got tmax={tmax}, dt={dt}")
    steps = max(1, round(tmax / dt))
    return np.arange(steps + 1) * float(dt)


def _validate_grid(times) -> np.ndarray:
    t = np.ascontiguousarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise DomainError("time grid must be a nonempty 1-D array")
    if t[0] != 0.0:
        raise DomainError("time grid must start at t = 0")
    if t.size > 1 and np.any(np.diff(t) <= 0):
        raise DomainError("time grid must be strictly ascending")
    return t


@dataclass(frozen=True)
class OtocSeries:
    """Sampled F(t) with the protocol and initial-state provenance."""

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    protocol: str
    state_label: str
    params: LmgParams
    field_strength: float = 0.0
    level: int | None = None


@dataclass(frozen=True)
class LongTimeAverage:
    """Trapezoidal mean of Re F over the sampled horizon.

    estimator_halfwidth is the absolute difference between the means over
    the full horizon and over its first half, a cheap convergence gauge.
    """

    value: float
    total_time: float
    sample_count: int
    estimator_halfwidth: float


@dataclass(frozen=True)
class CommutatorSeries:
    """Squared-commutator diagnostics alongside F(t).

    c_values follows the printed relation C = 2 Re A - 2 Re F. For the
    Hermitian, non-unitary choice W = V = S_x/S that relation coincides
    with the expectation of [W(t), V]^dag [W(t), V] only when the state is
    an eigenstate of the evolving Hamiltonian; the genuine commutator norm
    (always nonnegative) is kept separately in c_norm_values.
    """

    times: np.ndarray = field(repr=False)
    c_values: np.ndarray = field(repr=False)
    a_values: np.ndarray = field(repr=False)
    f_values: np.ndarray = field(repr=False)
    c_norm_values: np.ndarray = field(repr=False)
    protocol: str
    state_label: str


def _matmul_real_complex(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for real a and C-contiguous complex x via one real GEMM."""
    rows = x.shape[0]
    out = a @ x.view(np.float64).reshape(rows, -1)
    return out.view(np.complex128)


def _fold(pair):
    """Even and odd parity blocks of an X-basis (diag, off) Hamiltonian.

    Parity maps m -> -m, i.e. index k -> D-1-k, and the folded basis pairs
    (|k> +- |D-1-k>)/sqrt(2) for k < D//2, plus the m = 0 state on the even
    side when D is odd. Both blocks stay tridiagonal: the pair coupling
    across the centre lands on the last diagonal entry (D even) or, scaled
    by sqrt(2), on the last off-diagonal of the even block (D odd).
    """
    diag, off = pair
    if not (np.array_equal(diag, diag[::-1]) and np.array_equal(off, off[::-1])):
        raise DomainError("Hamiltonian does not commute with the m -> -m parity")
    h = diag.size // 2
    odd_diag = diag[:h].copy()
    if diag.size % 2:
        even_diag = diag[:h + 1]
        even_off = off[:h].copy()
        even_off[-1] *= np.sqrt(2.0)
    else:
        even_diag = diag[:h].copy()
        even_diag[-1] += off[h - 1]
        odd_diag[-1] -= off[h - 1]
        even_off = off[:h - 1]
    return (even_diag, even_off), (odd_diag, off[:h - 1])


@dataclass(frozen=True)
class _ParityFrame:
    """Eigenbasis of a parity-folded Hamiltonian: even levels first, then odd.

    W = S_x/S flips parity, so in this frame it is [[0, B], [B^T, 0]] with
    B the even x odd block; only B is stored.
    """

    energies: np.ndarray = field(repr=False)
    even_vectors: np.ndarray = field(repr=False)
    odd_vectors: np.ndarray = field(repr=False)
    w_block: np.ndarray = field(repr=False)

    def state(self, psi: np.ndarray) -> np.ndarray:
        """Coefficients in this frame of an X-basis state, or of each column."""
        h = self.odd_vectors.shape[0]
        head, tail = psi[:h], psi[::-1][:h]
        even = (head + tail) / np.sqrt(2.0)
        if psi.shape[0] % 2:
            even = np.concatenate([even, psi[h:h + 1]])
        odd = (head - tail) / np.sqrt(2.0)
        return np.concatenate([self.even_vectors.T @ even, self.odd_vectors.T @ odd])


def _parity_frame(sector: SpinSector, pair) -> _ParityFrame:
    even_block, odd_block = _fold(pair)
    de = eigh(even_block)
    do = eigh(odd_block)
    h = do.dimension
    w = sector.m_values()[:h] / sector.total_spin
    b = de.vectors[:h].T @ (w[:, None] * do.vectors)
    return _ParityFrame(energies=np.concatenate([de.values, do.values]),
                        even_vectors=de.vectors, odd_vectors=do.vectors,
                        w_block=b)


def _state_quench(spec: QuenchSpec):
    """Folded post-quench frame and the bare ground state in it."""
    psi0 = eigh(build_hamiltonian(spec.params)).vectors[:, 0]
    frame = _parity_frame(spec.params.sector, build_postquench(spec))
    return frame, frame.state(psi0)


def _bare_levels(params: LmgParams):
    """Dense eigenvectors of the bare Hamiltonian and its folded frame.

    Levels are taken from the dense eigendecomposition rather than from a
    block, so inside a degenerate doublet each is the same mixture as before
    folding.
    """
    h = build_hamiltonian(params)
    return eigh(h).vectors, _parity_frame(params.sector, h)


def _state_level(params: LmgParams, n: int):
    """Folded bare frame and its n-th level, as the dense solve returns it."""
    d = params.sector.dimension
    if not 0 <= n < d:
        raise DomainError(f"level index {n} outside [0, {d - 1}]")
    vectors, frame = _bare_levels(params)
    return frame, frame.state(vectors[:, n])


def _apply_w(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W x in a parity frame for columns x: two half-size real GEMMs, on
    the real view of complex x."""
    he = b.shape[0]
    xr = x.view(np.float64)
    out = np.empty_like(xr)
    np.matmul(b, xr[he:], out=out[:he])
    np.matmul(b.T, xr[:he], out=out[he:])
    return out.view(x.dtype)


def _phase_batches(energies: np.ndarray, times: np.ndarray):
    """(slice, exp(+iEt)) for consecutive batches of at most _BLOCK samples.

    On a grid with t_k = k * t_1 exactly, as make_time_grid builds it, each
    batch is exp(iE t_lo) times one table of exp(iE k t_1): one complex
    exponential per level per batch. Any other grid takes exp directly.
    """
    n = times.size
    uniform = n > 1 and np.array_equal(times, np.arange(n) * times[1])
    if uniform:
        offsets = np.arange(min(n, _BLOCK)) * times[1]
        table = np.exp(1j * energies[:, None] * offsets[None, :])
    for lo in range(0, n, _BLOCK):
        t = times[lo:lo + _BLOCK]
        if uniform:
            phases = table[:, :t.size] * np.exp(1j * energies * times[lo])[:, None]
        else:
            phases = np.exp(1j * energies[:, None] * t[None, :])
        yield slice(lo, lo + t.size), phases


def _single_state_otoc(frame: _ParityFrame, psi: np.ndarray, times: np.ndarray,
                       commutator: bool = False):
    """F(t) for one state on the grid, in a parity frame.

    With commutator=True also returns the A term, relation-C and the
    commutator norm: (f, a_term, c_rel, c_norm). Each W is two half-size
    products, so a state with both parities costs half the dense flops.
    """
    b = frame.w_block
    u = _apply_w(b, psi[:, None])
    n = times.size
    f = np.empty(n, dtype=np.complex128)
    if commutator:
        a_term = np.empty(n, dtype=np.complex128)
        c_norm = np.empty(n)
    for sl, phases in _phase_batches(frame.energies, times):
        conj = np.conj(phases)
        wt_v_psi = _apply_w(b, conj * u)
        wt_v_psi *= phases                           # W(t) V |psi>
        v_wt_v_psi = _apply_w(b, wt_v_psi)
        if not commutator:
            x = _apply_w(b, v_wt_v_psi * conj)
            x *= phases
            f[sl] = psi @ x
            continue
        wt_psi = _apply_w(b, conj * psi[:, None])
        wt_psi *= phases                             # W(t) |psi>
        f[sl] = np.einsum("ib,ib->b", np.conj(wt_psi), v_wt_v_psi)
        a_term[sl] = np.einsum("ib,ib->b", np.conj(wt_v_psi), wt_v_psi)
        diff = wt_v_psi - _apply_w(b, wt_psi)
        c_norm[sl] = (diff.real ** 2 + diff.imag ** 2).sum(axis=0)
    if not commutator:
        return f
    return f, a_term, 2.0 * a_term.real - 2.0 * f.real, c_norm


def quench_otoc(spec: QuenchSpec, times) -> OtocSeries:
    """F(t) for the quench protocol: ground state of the bare Hamiltonian,
    Heisenberg evolution under the field-shifted one."""
    t = _validate_grid(times)
    values = _single_state_otoc(*_state_quench(spec), t)
    p = spec.params
    return OtocSeries(
        times=t, values=values, protocol="quench",
        state_label=f"ground(alpha={p.alpha}, N={p.sector.n_spins})",
        params=p, field_strength=spec.field_strength)


def micro_otoc(params: LmgParams, n: int, times) -> OtocSeries:
    """F_n(t) in the n-th eigenstate, evolution under the bare Hamiltonian."""
    t = _validate_grid(times)
    frame, psi = _state_level(params, n)
    values = _single_state_otoc(frame, psi, t)
    return OtocSeries(
        times=t, values=values, protocol="microcanonical",
        state_label=f"level(n={n}, alpha={params.alpha}, N={params.sector.n_spins})",
        params=params, level=n)


def _all_levels(params: LmgParams, t: np.ndarray):
    """Yield F_n(t_j) for every level n, one time sample j after another.

    With M(t) = W(t) V, F_n(t) = <n|M(t)^2|n>. M is parity-even, so in the
    frame it is two diagonal blocks, P_e B P_o^* B^T and P_o B^T P_e^* B
    with P = exp(iEt): one half-size product each per sample. The dense
    solve mixes frame levels only of opposite parity, inside degenerate
    doublets, and M^2 does not couple those, so with c_an = <a|n>,
    F_n(t) = sum_a c_an^2 [M(t)^2]_aa exactly.
    """
    vectors, frame = _bare_levels(params)
    weights = frame.state(vectors) ** 2
    b = frame.w_block
    bt = np.ascontiguousarray(b.T)
    he = b.shape[0]
    for tj in t:
        p = np.exp(1j * frame.energies * tj)
        pe, po = p[:he], p[he:]
        m_even = pe[:, None] * _matmul_real_complex(b, np.conj(po)[:, None] * bt)
        m_odd = po[:, None] * _matmul_real_complex(bt, np.conj(pe)[:, None] * b)
        m2 = np.concatenate([np.einsum("ij,ji->i", m_even, m_even),
                             np.einsum("ij,ji->i", m_odd, m_odd)])
        yield _matmul_real_complex(weights.T, m2[:, None])[:, 0]


def micro_otoc_all(params: LmgParams, times) -> list[OtocSeries]:
    """F_n(t) for every level at once."""
    t = _validate_grid(times)
    d = params.sector.dimension
    values = np.empty((d, t.size), dtype=np.complex128)
    for j, f in enumerate(_all_levels(params, t)):
        values[:, j] = f
    return [OtocSeries(times=t, values=values[n].copy(), protocol="microcanonical",
                       state_label=f"level(n={n}, alpha={params.alpha}, N={params.sector.n_spins})",
                       params=params, level=n)
            for n in range(d)]


def micro_fbar_all(params: LmgParams, times):
    """Trapezoidal mean of Re F_n over the grid for every level, streamed.

    Returns (fbar, halfwidth) arrays of length D without materializing the
    D x len(times) series. halfwidth mirrors LongTimeAverage.
    """
    t = _validate_grid(times)
    w_full, w_half = _average_weights(t)
    d = params.sector.dimension
    acc_full = np.zeros(d)
    acc_half = np.zeros(d)
    for j, f in enumerate(_all_levels(params, t)):
        re = f.real
        acc_full += w_full[j] * re
        acc_half += w_half[j] * re
    return acc_full, np.abs(acc_full - acc_half)


def _average_weights(t: np.ndarray):
    """Weights (full, half) whose dot products with samples on t give the
    trapezoidal means over the whole grid and over its first half, which
    ends at the last sample at or below t_end / 2 (at least the second)."""
    if t.size < 2:
        raise DomainError("averaging needs at least two time samples")
    half_end = max(int(np.searchsorted(t, t[-1] / 2.0, side="right")), 2)
    weights = []
    for end in (t.size, half_end):
        w = np.zeros(t.size)
        dt = np.diff(t[:end])
        w[:end - 1] += dt / 2
        w[1:end] += dt / 2
        weights.append(w / (t[end - 1] - t[0]))
    return weights


def long_time_average(series: OtocSeries) -> LongTimeAverage:
    t = series.times
    w_full, w_half = _average_weights(t)
    re = series.values.real
    value = float(w_full @ re)
    half = float(w_half @ re)
    return LongTimeAverage(value=value, total_time=float(t[-1]),
                           sample_count=int(t.size),
                           estimator_halfwidth=abs(value - half))


def commutator_series(spec: QuenchSpec, times) -> CommutatorSeries:
    """Quench-protocol F(t), A(t) and both C readings on the grid."""
    t = _validate_grid(times)
    f, a_term, c_rel, c_norm = _single_state_otoc(*_state_quench(spec), t,
                                                  commutator=True)
    p = spec.params
    return CommutatorSeries(
        times=t, c_values=c_rel, a_values=a_term, f_values=f, c_norm_values=c_norm,
        protocol="quench",
        state_label=f"ground(alpha={p.alpha}, N={p.sector.n_spins})")


def commutator_series_micro(params: LmgParams, n: int, times) -> CommutatorSeries:
    """Microcanonical-protocol counterpart of commutator_series."""
    t = _validate_grid(times)
    frame, psi = _state_level(params, n)
    f, a_term, c_rel, c_norm = _single_state_otoc(frame, psi, t, commutator=True)
    return CommutatorSeries(
        times=t, c_values=c_rel, a_values=a_term, f_values=f, c_norm_values=c_norm,
        protocol="microcanonical",
        state_label=f"level(n={n}, alpha={params.alpha}, N={params.sector.n_spins})")
