"""Out-of-time-order correlator engine.

Both protocols evolve W = V = S_x/S in the Heisenberg picture and read off

    F(t) = <psi| W(t) V W(t) V |psi>,     W(t) = exp(+iHt) W exp(-iHt),

with everything expressed in the eigenbasis of the evolving Hamiltonian:
the heavy objects are the real matrix of W in that basis and the real
coefficient vector of |psi>, prepared once; each time sample of a trace
then costs diagonal phase sandwiches plus three products with W. The
commutator needs no fourth: W is real and symmetric in the frame, so
<chi|W phi> = <W chi|phi> with phi = W(t)V|psi> and chi = W(t)|psi>, and
W chi is already formed for the commutator norm |phi - W chi|^2.

Traces and averages share the grid t_k = k dt, k = 0..K, of _horizon_steps;
only a trace builds it (make_time_grid), and _grid_steps checks it.

A long-time average, of a quench or of a level, takes no time steps at
all: the trapezoid rule on that grid is summed in closed form over the
paths of the banded W (_closed_form_average), so its cost does not
depend on the horizon. Time steps serve traces only.

Both Hamiltonians commute with the parity m -> -m of the X-basis, and W
is parity-odd. Traces and averages therefore work in a folded frame: the
even and odd tridiagonal blocks are solved separately and W is the one
block B coupling them, so every product is half-size. Bare levels are block
levels (_bare_frame); only the quench state comes from a dense solve.

Protocols:
  * quench: |psi> is the ground state of the bare Hamiltonian, evolution
    runs under the field-shifted one.
  * microcanonical: |psi> is the n-th eigenstate of the bare Hamiltonian,
    which also drives the evolution.

Complex numbers enter only through the phase factors; operators, states
and eigenvectors stay real throughout.

A single-state trace can split its time samples over worker threads. The
samples fall into chunks of _CHUNK columns, the last padded to a whole
chunk, and each thread computes whole chunks in a workspace of its own.
Every product then has one shape, so the values depend neither on the
worker count nor on how BLAS splits a product over its threads.

A single-state trace also runs only on the frame levels that can reach
its result. Each sample of F, of A = |W(t)V psi|^2 and of |W W(t) psi|^2
is a sum over five level indices of psi_a W_ab W_bc W_cd W_de psi_e
times phases of modulus 1. In the frame W is banded, and a quench from
the bare ground state weighs on a low-energy window, so most levels
enter only through terms of rounding size. The levels whose terms sum,
in modulus, to at most _DROP_BOUND are dropped before the kernel runs;
that sum bounds, in exact arithmetic and at every t, how far any sample
of F or A can move, and four times it bounds C and the commutator norm.
Each parity block of D_b levels keeps at least 2.5 D_b^0.7 of them
however few reach the result, so that a trace's cost depends on N rather
than on the quench: no quench with alpha in [0.1, 0.7] and lambda <= 2
reaches more (at N = 400 at most 98 of the 201 levels of a block, against
a floor of 103), so each of their traces runs on exactly the floor. A
closed-form average keeps floors of its own, in W entries, pairs and
paths (_closed_form_average), for the same reason.
Where nothing can be dropped the kernel sees the full frame unchanged.
"""

import functools
import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .eigensolver import eigh
from .errors import DomainError
from .model import (LmgParams, QuenchSpec, SpinSector, build_hamiltonian,
                    build_postquench)

DEFAULT_AVERAGING_TIME = 1.0e4
DEFAULT_AVERAGING_DT = 0.5
DEFAULT_DYNAMICS_DT = 0.05

WORKERS_ENV = "LMG_OTOC_WORKERS"

# largest summed path weight a single-state trace (_reachable) or a
# closed-form average (_closed_form_average) may drop
_DROP_BOUND = 1e-14
# a parity block of D_b levels keeps at least _KEEP_SCALE * D_b**_KEEP_POWER
# of them, more than the studied quenches reach at N = 50..3200 (see the
# module docstring)
_KEEP_SCALE = 2.5
_KEEP_POWER = 0.7
# time samples per product, and per phase table: fixed, so no sample's
# arithmetic depends on how many workers or BLAS threads share a trace
_CHUNK = 256
# paths a closed-form average sums at once (_sum_paths)
_PATH_BATCH = 1 << 15
# a closed-form average over a frame of D levels keeps at least
# scale * D**power entries of |B|, pairs (a, b) and paths (see
# _closed_form_average)
_ENTRY_FLOOR = (15.0, 1.0)
_PAIR_FLOOR = (13.0, 1.0)
_PATH_FLOOR = (1800.0, 1.1)
# path weights are compared in bins of 1/_BINS octave, the lowest at
# 2^(_BIN_FLOOR / _BINS)
_BINS = 2
_BIN_FLOOR = -320
# a stage drops at most this fraction of its share, so that summing the
# dropped weights in another order cannot round past _DROP_BOUND
_SLACK = 1.0 - 1e-9


def resolve_workers(requested=None) -> int:
    """The flag, else $LMG_OTOC_WORKERS, else the cores this process may use.
    A count below 1, or a variable that is not an integer, is a ValueError."""
    if requested is None:
        requested = os.environ.get(WORKERS_ENV) or None
    if requested is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    count = int(requested)
    if count < 1:
        raise ValueError(f"worker count must be at least 1, got {count}")
    return count


def _fan_out(job, items, max_workers, on_result=None) -> list:
    """[job(item) for item in items], computed on a pool of worker threads.

    Each result is handed to on_result(item, result) on the calling thread
    as it completes. On the first failing job, the jobs not yet started are
    cancelled and the running ones finish; their results are still handed
    over before the first error is re-raised.
    """
    items = list(items)
    results = [None] * len(items)
    error = None
    with ThreadPoolExecutor(max_workers=resolve_workers(max_workers)) as pool:
        index = {pool.submit(job, item): k for k, item in enumerate(items)}
        pending = set(index)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in sorted(done, key=index.get):     # submission order
                    if fut.exception() is not None:
                        if error is None:
                            error = fut.exception()
                            pending = {f for f in pending if not f.cancel()}
                        continue
                    k = index[fut]
                    results[k] = fut.result()
                    if on_result is not None:
                        on_result(items[k], results[k])
        finally:
            for fut in pending:
                fut.cancel()
    if error is not None:
        raise error
    return results


def _horizon_steps(tmax, dt):
    """(dt, K, K_half) of the grid t_k = k dt, k = 0..K, over [0, tmax], and
    of its first half. tmax and dt must be finite and positive, and dt no
    longer than tmax."""
    if not (0.0 < dt <= tmax < np.inf and tmax / dt < np.inf):
        raise DomainError(f"need finite tmax > 0 and dt > 0 with dt <= tmax, "
                          f"got tmax={tmax}, dt={dt}")
    steps = int(round(tmax / dt))
    return float(dt), steps, max(steps // 2, 1)


def make_time_grid(tmax: float, dt: float) -> np.ndarray:
    """Uniform grid over [0, tmax] whose end snaps to a whole step count.
    MemoryError from 2^59 steps, half the 8-byte items numpy can index; a
    smaller grid that does not fit gets numpy's own."""
    steps = _horizon_steps(tmax, dt)[1]
    if steps >= 2 ** 59:
        raise MemoryError(f"a time grid of {steps + 1} samples is too large to index")
    return np.arange(steps + 1) * float(dt)


def _grid_steps(times):
    """(t, (dt, K, K_half)) of a grid t_k = k dt, k = 0..K with K >= 1, as
    make_time_grid builds it, else DomainError; t_K / dt rounds back to K."""
    t = np.ascontiguousarray(times, dtype=float)
    if not (t.ndim == 1 and t.size > 1 and t[1] > 0.0
            and np.array_equal(t, np.arange(t.size) * t[1])):
        raise DomainError("time grid must be t_k = k dt, k = 0..K with K >= 1, "
                          "as make_time_grid builds it")
    return t, _horizon_steps(t[-1], t[1])


@dataclass(frozen=True)
class OtocSeries:
    """Sampled F(t) with the protocol and initial-state provenance."""

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    protocol: str
    state_label: str
    params: LmgParams
    field_strength: float = 0.0


@dataclass(frozen=True)
class LongTimeAverage:
    """Trapezoidal mean of Re F over the sampled horizon.

    estimator_halfwidth is the absolute difference between the means over
    the full horizon and over its first half, a cheap convergence gauge.
    truncation_bound bounds how far the paths a closed-form average left
    out could move either mean (_closed_form_average); it is 0 for a mean
    over sampled values.
    """

    value: float
    estimator_halfwidth: float
    truncation_bound: float = 0.0


@dataclass(frozen=True)
class CommutatorSeries:
    """Squared-commutator diagnostics alongside F(t).

    c_values follows the printed relation C = 2 Re A - 2 Re F. For the
    Hermitian, non-unitary choice W = V = S_x/S that relation coincides
    with the expectation of [W(t), V]^dag [W(t), V] only when the state is
    an eigenstate of the evolving Hamiltonian; the genuine commutator norm
    (always nonnegative) is kept separately in c_norm_values.

    The trace ran on kept_levels (even, odd) of the frame's levels, and
    truncation_bound bounds how far the levels it left out could move any
    sample of F or A; C and the norm move by at most four times that.
    """

    times: np.ndarray = field(repr=False)
    c_values: np.ndarray = field(repr=False)
    a_values: np.ndarray = field(repr=False)
    f_values: np.ndarray = field(repr=False)
    c_norm_values: np.ndarray = field(repr=False)
    protocol: str
    state_label: str
    kept_levels: tuple
    truncation_bound: float


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
    w_block: np.ndarray = field(repr=False)


def _parity_frame(sector: SpinSector, pair):
    """(frame, to_frame): an X-basis Hamiltonian's folded frame, and the map of
    X-basis states (or columns) into it, which alone holds the eigenvectors."""
    even_block, odd_block = _fold(pair)
    e_even, v_even = eigh(even_block)
    e_odd, v_odd = eigh(odd_block)
    h = e_odd.size
    w = sector.m_values()[:h] / sector.total_spin
    b = v_even[:h].T @ (w[:, None] * v_odd)

    def to_frame(psi):
        head, tail = psi[:h], psi[::-1][:h]
        even = (head + tail) / np.sqrt(2.0)
        if psi.shape[0] % 2:
            even = np.concatenate([even, psi[h:h + 1]])
        odd = (head - tail) / np.sqrt(2.0)
        return np.concatenate([v_even.T @ even, v_odd.T @ odd])

    return _ParityFrame(energies=np.concatenate([e_even, e_odd]), w_block=b), to_frame


@functools.lru_cache(maxsize=64)
def _bare_ground(params: LmgParams) -> np.ndarray:
    """Ground vector of the bare Hamiltonian, as the dense solve returns it,
    kept per (alpha, N) for the fields of a sweep row. Two threads may
    solve it at once, so quench_sweep solves it before its cells."""
    psi0 = eigh(build_hamiltonian(params))[1][:, 0].copy()
    psi0.setflags(write=False)
    return psi0


def _state_quench(spec: QuenchSpec):
    """Folded post-quench frame and the bare ground state in it."""
    psi0 = _bare_ground(spec.params)
    frame, to_frame = _parity_frame(spec.params.sector, build_postquench(spec))
    return frame, to_frame(psi0)


def _bare_frame(params: LmgParams):
    """Folded frame of the bare Hamiltonian, and the frame index of each level.

    For alpha > 0 the bare Hamiltonian is an unreduced persymmetric Jacobi
    matrix, so its levels are simple and alternately symmetric and skew
    from a symmetric top level (Cantoni and Butler, Linear Algebra Appl. 13,
    275 (1976)): level n has parity (-1)^(D-1-n) and is level n // 2 of its
    block, whatever a dense solve picks inside a degenerate doublet. At
    alpha = 0 (every +-m pair exactly degenerate) it picks a valid basis.
    """
    frame = _parity_frame(params.sector, build_hamiltonian(params))[0]
    n = np.arange(params.sector.dimension)
    return frame, n // 2 + frame.w_block.shape[0] * ((n.size - 1 - n) % 2)


def _check_level(sector: SpinSector, n: int):
    """Refuse a level index outside [0, D - 1], before any grid or solve."""
    if not 0 <= n < sector.dimension:
        raise DomainError(f"level index {n} outside [0, {sector.dimension - 1}]")


def _state_level(params: LmgParams, n: int):
    """Folded bare frame and its n-th level, a unit vector of the frame."""
    _check_level(params.sector, n)
    frame, index = _bare_frame(params)
    return frame, np.eye(1, index.size, index[n])[0]


def _reachable(frame: _ParityFrame, psi: np.ndarray):
    """(frame, psi, bound): a single-state trace's frame and state gathered
    on the levels that can reach its result, and the bound on how far the
    others could move it (see the module docstring).

    With e_0 = |psi| and e_(k+1) = |W| e_k, the terms whose k-th of five
    indices is level i sum to at most e_k[i] e_(4-k)[i] in modulus, so
    dropping levels moves a sample by at most the sum of their
    c_i = sum_k e_k[i] e_(4-k)[i]. The levels of smallest c_i go, in a
    stable order, while that sum stays within _DROP_BOUND, but each
    parity block keeps at least its floor (see _KEEP_SCALE) of its
    heaviest levels.
    """
    ab = np.abs(frame.w_block)
    he = ab.shape[0]
    env = [np.abs(psi)]
    for _ in range(4):
        env.append(_apply_w(ab, env[-1], np.empty(psi.size)))
    weight = sum(env[k] * env[4 - k] for k in range(5))
    order = np.argsort(weight, kind="stable")
    # a block may lose only the levels beyond its floor, its lightest first
    odd = order >= he
    rank = np.where(odd, np.cumsum(odd), np.cumsum(~odd)) - 1
    spare = np.array([max(size - _floor(size, _KEEP_SCALE, _KEEP_POWER), 0)
                      for size in (he, psi.size - he)])
    order = order[rank < spare[odd.astype(int)]]
    dropped = np.cumsum(weight[order])
    count = int(np.searchsorted(dropped, _DROP_BOUND, side="right"))
    if count == 0:
        return frame, psi, 0.0
    keep = np.ones(psi.size, dtype=bool)
    keep[order[:count]] = False
    kept = _ParityFrame(energies=frame.energies[keep],
                        w_block=frame.w_block[np.ix_(keep[:he], keep[he:])])
    return kept, psi[keep], float(dropped[count - 1])


def _apply_w(b: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = W x in a parity frame for columns x: two half-size real GEMMs
    on the real views of C-contiguous x and out. A single vector x is summed
    by einsum instead, since BLAS splits a matrix-vector product's sums
    over its threads."""
    he = b.shape[0]
    if x.ndim == 1:
        np.einsum("ij,j->i", b, x[he:], out=out[:he])
        np.einsum("ji,j->i", b, x[:he], out=out[he:])
        return out
    xr, outr = x.view(np.float64), out.view(np.float64)
    np.matmul(b, xr[he:], out=outr[:he])
    np.matmul(b.T, xr[:he], out=outr[he:])
    return out


def _phase_table(energies: np.ndarray, dt: float) -> np.ndarray:
    """exp(iE k dt) for k < _CHUNK: one table serves every chunk."""
    return np.exp(1j * energies[:, None] * (np.arange(_CHUNK) * dt)[None, :])


def _sum_squares(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = sum_i |x_ib|^2 per column b of C-contiguous complex x: one real
    sum of squares over its float64 view, then re + im of each column."""
    r = x.view(np.float64)
    s = np.einsum("ij,ij->j", r, r)
    return np.add(s[0::2], s[1::2], out=out)


def _single_state_otoc(frame: _ParityFrame, psi: np.ndarray, dt: float, n: int,
                       workers: int = 1):
    """(f, a_term, c_rel, c_norm) for one state on the n samples t_k = k dt,
    in a parity frame: F(t), the A term, relation-C and the commutator norm.

    A sample costs three W products, each two half-size products, so a
    state with both parities costs half the dense flops: phi = W(t)V|psi>,
    chi = W(t)|psi> and v = W chi give A = |phi|^2 and the norm
    |phi - v|^2, and since W is real and symmetric,
    F = <chi|W phi> = <W chi|phi> = <v|phi> needs no further product.

    Thread k of `workers` takes every workers-th chunk of _CHUNK samples,
    starting at the k-th. Each thread writes every intermediate into one
    workspace of four D x _CHUNK buffers, and its results into its chunks'
    slices of outputs padded to whole chunks, trimmed to n on return.
    """
    b = frame.w_block
    e = frame.energies
    d = psi.size
    u = _apply_w(b, psi[:, None], np.empty((d, 1)))     # V |psi>
    table = _phase_table(e, dt)
    padded = -(-n // _CHUNK) * _CHUNK
    f = np.empty(padded, dtype=np.complex128)
    a_term = np.empty(padded)
    c_norm = np.empty(padded)
    workers = min(workers, padded // _CHUNK)

    def run(k):
        ph, cj, x, y = np.empty((4, d, _CHUNK), dtype=np.complex128)
        for lo in range(k * _CHUNK, n, workers * _CHUNK):
            cols = slice(lo, lo + _CHUNK)
            # exp(+iEt): exp(iE t_lo) times the table, t_lo = lo * dt as
            # make_time_grid forms it
            np.multiply(table, np.exp(1j * e * (lo * dt))[:, None], out=ph)
            np.conjugate(ph, out=cj)
            np.multiply(cj, u, out=x)
            _apply_w(b, x, y)
            y *= ph                                   # phi = W(t) V |psi>
            np.multiply(cj, psi[:, None], out=x)
            chi = _apply_w(b, x, cj)
            chi *= ph                                 # W(t) |psi>
            v = _apply_w(b, chi, x)                   # V W(t) |psi>
            np.einsum("ib,ib->b", np.conjugate(v, out=ph), y, out=f[cols])
            _sum_squares(y, a_term[cols])
            _sum_squares(np.subtract(y, v, out=v), c_norm[cols])

    if workers > 1:
        _fan_out(run, range(workers), workers)
    else:
        run(0)
    f, a_term, c_norm = f[:n], a_term[:n], c_norm[:n]
    return f, a_term, 2.0 * a_term - 2.0 * f.real, c_norm


def quench_otoc(spec: QuenchSpec, times) -> OtocSeries:
    """F(t) for the quench protocol: ground state of the bare Hamiltonian,
    Heisenberg evolution under the field-shifted one. The F of
    commutator_series."""
    series = commutator_series(spec, times)
    return OtocSeries(
        times=series.times, values=series.f_values, protocol=series.protocol,
        state_label=series.state_label, params=spec.params,
        field_strength=spec.field_strength)


def _level_averages(params: LmgParams, grid):
    """(energies, fbar, halfwidth, bound): the bare frame's energies, the
    closed-form average (_closed_form_average) of every level on the grid
    (dt, K, K_half), and the largest truncation bound among them. Level n is
    a unit vector of the one frame (_state_level), as a level's trace takes."""
    frame, index = _bare_frame(params)
    avgs = [_closed_form_average(frame, np.eye(1, index.size, i)[0], grid) for i in index]
    return (frame.energies, np.array([a.value for a in avgs]),
            np.array([a.estimator_halfwidth for a in avgs]),
            max(a.truncation_bound for a in avgs))


def micro_fbar_all(params: LmgParams, times):
    """Trapezoidal mean of Re F_n over a uniform grid for every level, in
    closed form with no time steps.

    Returns (fbar, halfwidth) arrays of length D; halfwidth mirrors
    LongTimeAverage. A grid other than t_k = k dt raises DomainError.
    """
    return _level_averages(params, _grid_steps(times)[1])[1:3]


def long_time_average(series: OtocSeries) -> LongTimeAverage:
    """Trapezoidal means of Re F over the series' K steps and over the first
    K_half of them (_grid_steps), summed from the samples."""
    _, (_, steps, half_steps) = _grid_steps(series.times)
    re = series.values.real
    value, half = ((re[0] / 2 + re[1:k].sum() + re[k] / 2) / k for k in (steps, half_steps))
    return LongTimeAverage(float(value), float(abs(value - half)))


def _reduce_pi(x: np.ndarray) -> np.ndarray:
    """x less its nearest multiple of pi, in place; tan(x) keeps its value."""
    multiple = np.rint(x * (1.0 / np.pi))
    multiple *= np.pi
    x -= multiple
    return x


def _weighted_means(half: np.ndarray, coef: np.ndarray, steps) -> np.ndarray:
    """Trapezoid means of cos(omega t) on t_k = k dt, over k = 0..K and k =
    0..K_half, weighed by coef and summed: (sum coef m_K, sum coef m_Khalf).
    The means are taken at the half-angles half = omega dt / 2; half and
    coef are overwritten. steps is (K, K_half) with K = 2 K_half + r, r in
    {-1, 0, 1}, as _horizon_steps gives it. Over k = 0..n the mean is
    sin(n theta) / (2n tan(theta/2)) with theta = omega dt, and 1 where
    tan(theta/2) = 0: those exact resonances are summed apart.

    theta/2 is first reduced modulo pi, which moves neither tan(theta/2)
    nor tan(K_half theta/2), so that next to an aliased resonance (theta/2
    near a nonzero multiple of pi) both tangents see the same small angle.
    With t = tan(theta/2), tau = tan(K_half theta/2), q = 1 / (1 + tau^2)
    and p = coef tau q / t, a path adds p / K_half to the half sum, and
    since c = cos(K_half theta) = 2q - 1, p c / K_half to the full sum
    where r = 0. Where r = +-1 the double-angle identities give it as (2 p
    c (1 - t^2) + r coef (2 c^2 - 1)) / (K (1 + t^2)); a tangent of K
    theta/2 would cost a third tangent and a third reduction. numpy's
    tangent is several times faster than its sine while its argument stays
    below ~6e4 in modulus, so K_half theta/2 is reduced as well and the
    cost does not grow with K. That reduction rounds at ~1e-16 of K_half
    theta/2, where the mean is ~1 / (K theta/2): it moves the mean by
    ~1e-16 of itself.
    """
    k, k_half = steps
    t = np.tan(_reduce_pi(half))
    flat = t == 0.0                             # theta/2 = 0: tau = 0 as well
    resonant = np.sum(coef, where=flat)
    np.copyto(t, 1.0, where=flat)
    tau = np.tan(_reduce_pi(half * k_half))
    q = np.multiply(tau, tau, out=half)
    q += 1.0
    np.divide(1.0, q, out=q)
    p = tau
    p *= q
    p *= coef
    p /= t
    s = p.sum()
    if k == k_half:                             # K = 1: the half is the whole grid
        return np.full(2, s) + resonant
    if k == 2 * k_half:
        # np.sum, not a BLAS dot, whose summing order follows its thread count
        return np.array([(2.0 * np.sum(p * q) - s) / k_half, s / k_half]) + resonant
    np.copyto(coef, 0.0, where=flat)
    c = 2.0 * q - 1.0
    t *= t
    full = 2.0 * p * c * (1.0 - t) + (k - 2 * k_half) * coef * (2.0 * c * c - 1.0)
    full /= 1.0 + t
    return np.array([full.sum() / k, s / k_half]) + resonant


def _cut_w(ab: np.ndarray, left: np.ndarray, right: np.ndarray, budget: float,
           floor: int):
    """(keep, loss): which entries of |B| the closed-form average keeps, and
    the summed modulus of the paths through the others.

    The paths psi_a W_ab W_bc W_cd u_d with at least one cut factor sum, in
    modulus, to at most |psi| (|W|^3 - |W_cut|^3) |u| = l_0 R r_2 + l_1 R r_1
    + l_2 R r_0 with R = |W| - |W_cut|, l_k = |W_cut|^k |psi| and r_k =
    |W|^k |u|, a sum of nonnegative terms. The entries below the largest
    power of two whose loss stays within budget are cut, but at least the
    floor largest entries are kept. The loss grows with the threshold, so
    the floor decides where it keeps every entry or where the least power
    of two at or above its threshold fits; else the powers below are bisected.
    """
    r = [right]
    for _ in range(2):
        r.append(_apply_w(ab, r[-1], np.empty_like(right)))

    def cut(threshold):
        keep = ab >= threshold
        kept = np.where(keep, ab, 0.0)
        rest = ab - kept
        loss, left_k = 0.0, left
        for r_k in r[::-1]:
            loss += left_k @ _apply_w(rest, r_k, np.empty_like(r_k))
            left_k = _apply_w(kept, left_k, np.empty_like(left_k))
        return keep, float(loss)

    top = _floor_cut(ab.ravel(), 1.0, floor)
    if top == 0.0:
        return cut(0.0)
    mantissa, exponent = np.frexp(top)  # 2.0 ** -lo: the least power >= top
    lo = int(mantissa == 0.5) - int(exponent)
    if cut(2.0 ** -lo)[1] <= budget:
        return cut(top)
    lo = _highest(lambda k: cut(2.0 ** -k)[1] > budget, lo, 1074)
    return cut(2.0 ** -min(lo + 1, 1074))   # 2.0 ** -1074: only zeros are cut


def _floor(d: int, scale: float, power: float) -> int:
    """ceil(scale * d**power): a count that grows with the frame size d."""
    return int(np.ceil(scale * d ** power))


def _floor_cut(weight: np.ndarray, cut: float, floor: int) -> float:
    """The smaller of cut and the floor-th largest weight: keeping the
    weights at or above it keeps those cut keeps and at least floor."""
    if floor == 0:
        return cut
    if weight.size <= floor:
        return 0.0
    return min(cut, float(np.partition(weight, weight.size - floor)[weight.size - floor]))


def _lightest_cut(weight: np.ndarray, share: float) -> float:
    """The least weight to keep so that the lighter ones, dropped, sum to at
    most share: as many of the lightest go as fit."""
    order = np.sort(weight)
    n = int(np.searchsorted(np.cumsum(order), share, side="right"))
    return float(order[n]) if n < order.size else np.inf


def _highest(holds, lo: int, hi: int) -> int:
    """The highest x in [lo, hi] where holds(x), for holds true at lo and
    true up to some x, false above."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid - 1)
    return lo


def _path_level(kept, dropped, lo: int, hi: int, floor: int, share: float) -> int:
    """The level x in [lo, hi] of a closed-form average's path cut: the
    highest whose kept(x) paths reach the floor (which counts no path whose
    factors both sit in the lowest bins), if its dropped(x) weight fits the
    share, else the highest below that fits; kept falls, dropped rises with x."""
    x = _highest(lambda x: kept(x) >= floor, max(lo, 2 * _BIN_FLOOR + 1), hi)
    if dropped(x) > share:
        x = _highest(lambda x: dropped(x) <= share, lo, x - 1)
    return x


def _bins(x: np.ndarray, rounding) -> np.ndarray:
    """rounding(_BINS log2 x) as 16-bit integers, x (overwritten) raised to
    at least 2^(_BIN_FLOOR / _BINS)."""
    x = np.log2(np.maximum(x, 2.0 ** (_BIN_FLOOR / _BINS), out=x), out=x)
    return rounding(np.multiply(x, _BINS, out=x), out=x).astype(np.int16)


def _sum_paths(c, g, h, served, y_slots, half_slots, steps) -> np.ndarray:
    """(full, half): sums over the paths of the triples (c, g, h) of g y
    times the trapezoid means at the half-angle h + eta, which
    _weighted_means weighs and sums batch by batch: slot k of row c holds y =
    W_cd u_d and eta = (E_c - E_d) dt/2 modulo pi (y_slots[k, c] and
    half_slots[k, c]), and h is the triple's (E_a - E_b) dt/2 modulo pi.
    The triples come ordered by path count, most first, and slot k serves
    the first served[k] of them.

    Each slot's paths are taken at most _PATH_BATCH at a time: two gathers
    from the slot's rows, and contiguous slices of the triples. No matrix
    of means is formed.
    """
    acc = np.zeros(2)
    for k, n in enumerate(served):
        for lo in range(0, n, _PATH_BATCH):
            sl = slice(lo, min(lo + _PATH_BATCH, n))
            half = np.take(half_slots[k], c[sl])
            half += h[sl]
            coef = np.take(y_slots[k], c[sl])
            coef *= g[sl]
            acc += _weighted_means(half, coef, steps)
    return acc


def _closed_form_average(frame: _ParityFrame, psi: np.ndarray, grid) -> LongTimeAverage:
    """Trapezoidal mean of Re F over the grid t_k = k dt, k = 0..K, and over
    its first K_half steps, for the state psi of a parity frame, with no
    time steps. The grid is given as (dt, K, K_half) (_horizon_steps).

    With u = W psi, F(t) is the sum over paths (a, b, c, d) of psi_a W_ab
    W_bc W_cd u_d exp(i Omega t), Omega = (E_a - E_b) + (E_c - E_d), so its
    trapezoid mean on t_k = k dt, k = 0..K, is the sum of those weights
    times the mean of cos(Omega t) (_weighted_means, at Omega dt/2): the
    program's own rule, evaluated exactly. Omega dt/2 is the sum of (E_a -
    E_b) dt/2 and (E_c - E_d) dt/2, each reduced modulo pi once, per pair
    and per entry of W, so a doublet's splitting keeps its digits at any
    horizon, and the cost does not depend on K.

    Only paths that can reach the result are summed; those left out sum,
    in modulus, to at most _DROP_BOUND, which bounds how far either mean
    can move and is returned as truncation_bound:
      * W entries are cut first (_cut_w), within a quarter of the bound;
      * a pair (a, b) weighs |psi_a W_ab| times the envelope |W_cut|^2 |u|
        of its completions, and the lightest pairs go while they sum to
        at most a third of what is left (_lightest_cut);
      * a triple (a, b, c) with g = psi_a W_ab W_bc keeps a prefix of row
        c, whose entries are ordered by |W_cd u_d|: those in bin
        x - bin(|g|) or higher (bins of 1/_BINS octave, _bins), so that
        every path it drops weighs below 2^(x / _BINS). The level x is
        shared by all triples and is the highest whose dropped paths sum
        to at most the rest of the bound (_path_level). Each triple is
        made once; counted and with their |g| summed per cell (c, bin of
        |g|), they give the paths any level keeps and the weight it drops.
    Each stage also keeps a floor that grows with the frame size D, its
    heaviest candidates: at least _ENTRY_FLOOR entries of |B|,
    _PAIR_FLOOR pairs and _PATH_FLOOR paths. No quench with alpha in
    [0.1, 0.7] and lambda <= 2 needs more pairs or paths at N = 50..1600,
    and at N = 400 none keeps more entries, which gives quenches of a
    narrow band (alpha near 0.7) or a small field enough candidates to
    fill the path floor. So each of their averages sums about the same
    number of paths and costs about the same at one N, whatever its
    field. A floor only keeps more, so it only lowers the bound. Each
    search tests its bound at its floor first, which settles it for those.
    The kept triples are ordered by path count, so that slot k of each
    row serves a prefix of them, and _sum_paths sums them slot by slot,
    at most _PATH_BATCH paths at a time: memory grows with the triples
    (~0.2 million at N = 400), not with the paths (~1.3 million).
    """
    dt, steps, half_steps = grid
    b, e = frame.w_block, frame.energies
    d, he = psi.size, b.shape[0]
    u = _apply_w(b, psi, np.empty(d))
    keep, spent = _cut_w(np.abs(b), np.abs(psi), np.abs(u), _DROP_BOUND / 4,
                         _floor(d, *_ENTRY_FLOOR))

    # rows of the cut W over the frame's levels, each in descending
    # |W_cd u_d|: their entries (a row's at starts[c] on), and tables padded
    # to L entries of W_cd, y = W_cd u_d and (E_c - E_d) dt/2 modulo pi
    i, j = np.nonzero(keep)                     # B's entries, then B^T's
    rows = np.concatenate([i, he + j])
    cols = np.concatenate([he + j, i])
    vals = np.tile(b[i, j], 2)
    order = np.lexsort((-np.abs(vals * u[cols]), rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    lengths = np.bincount(rows, minlength=d)
    starts = np.cumsum(lengths) - lengths
    width = max(int(lengths.max(initial=0)), 1)
    slot = np.arange(rows.size) - starts[rows]
    col_t = np.zeros((d, width), dtype=np.intp)
    w_t = np.zeros((d, width))
    col_t[rows, slot] = cols
    w_t[rows, slot] = vals
    y_t = w_t * u[col_t]
    ay_t = np.abs(y_t)
    half_t = _reduce_pi((e[:, None] - e[col_t]) * (dt / 2.0))
    tails = np.zeros((d, width + 1))            # tails[c, k]: |y| summed from slot k
    tails[:, :width] = np.cumsum(ay_t[:, ::-1], axis=1)[:, ::-1]
    env1 = tails[:, 0]                          # |W_cut| |u|
    env2 = (np.abs(w_t) * env1[col_t]).sum(axis=1)

    px = psi[rows] * vals                       # the pairs (a, b) are the entries
    weight = np.abs(px) * env2[cols]
    cut = _lightest_cut(weight, (_DROP_BOUND - spent) / 3.0 * _SLACK)
    kept = (weight >= _floor_cut(weight, cut, _floor(d, *_PAIR_FLOOR))) & (weight > 0.0)
    spent += float(weight[~kept].sum())
    pb, px = cols[kept], px[kept]
    p_half = _reduce_pi((e[rows[kept]] - e[pb]) * (dt / 2.0))

    # above[c, k]: the entries of row c in bin y_lo + k or higher; a count
    # of one row's entries fits 16 bits below N = 65534
    yb = _bins(ay_t[rows, slot], np.floor)
    y_lo = int(yb.min(initial=0))
    n_y = int(yb.max(initial=0)) - y_lo + 2
    above = np.bincount(rows * n_y + (yb - y_lo), minlength=d * n_y).reshape(d, n_y)
    above = np.cumsum(above[:, ::-1], axis=1, dtype=np.int16)[:, ::-1].ravel()

    # every triple (a, b, c) once, pair by pair (the entries of row b):
    # g = psi_a W_ab W_bc, and its cell (c, bin of |g|)
    per_pair = lengths[pb]
    flat = np.repeat(starts[pb] - (np.cumsum(per_pair) - per_pair), per_pair)
    flat += np.arange(flat.size)
    cell, tg = cols[flat], vals[flat]
    del flat
    tg *= np.repeat(px, per_pair)
    gb = _bins(np.abs(tg), np.ceil)
    g_lo = int(gb.min(initial=0))
    n_g = int(gb.max(initial=0)) - g_lo + 1
    cell *= n_g
    cell += gb - g_lo
    del gb

    # the triples per cell, counted and with their |g| summed, give the
    # paths any level keeps and the weight it drops
    count = np.bincount(cell, minlength=d * n_g)
    mass = np.bincount(cell, np.abs(tg), minlength=d * n_g)
    nz = np.flatnonzero(count)
    nc, ng, count, mass = nz // n_g, nz % n_g + g_lo, count[nz], mass[nz]
    first, shift, ends = nc * n_y, ng + y_lo, nc * (width + 1)

    def prefix(x):
        """Paths each cell's triples keep at level x: the entries of row c
        in bin x - bin(|g|) or higher, a prefix of the row."""
        return np.take(above, first + np.clip(x - shift, 0, n_y - 1))

    x = _path_level(lambda x: count @ prefix(x),
                    lambda x: np.sum(mass * np.take(tails, ends + prefix(x))),
                    int(ng.min(initial=0)) + y_lo,          # keeps every path
                    int(ng.max(initial=0)) + y_lo + n_y,    # keeps none
                    _floor(d, *_PATH_FLOOR), (_DROP_BOUND - spent) * _SLACK)
    per_cell = np.zeros(d * n_g, dtype=np.int16)
    per_cell[nz] = prefix(x)
    spent += float(np.sum(mass * np.take(tails, ends + per_cell[nz])))
    counts = np.take(per_cell, cell)            # the paths of each triple
    del nz, nc, ng, count, mass, first, shift, ends, per_cell

    # the kept triples, most paths first (a radix sort of 16-bit counts),
    # so that slot k of a row serves the first served[k]: those with more
    # than k paths
    order = np.flatnonzero(counts)
    counts = counts[order]
    order = order[np.argsort(counts, kind="stable")[::-1]]
    served = np.cumsum(np.bincount(counts, minlength=width + 1)[::-1])[::-1][1:]
    tc, tg = cell[order] // n_g, tg[order]
    del cell
    acc = _sum_paths(tc, tg, np.repeat(p_half, per_pair)[order], served,
                     np.ascontiguousarray(y_t.T), np.ascontiguousarray(half_t.T),
                     (steps, half_steps))
    value, half = float(acc[0]), float(acc[1])
    return LongTimeAverage(value, abs(value - half), spent)


def commutator_series(spec: QuenchSpec, times, workers: int = 1) -> CommutatorSeries:
    """Quench-protocol F(t), A(t) and both C readings on the grid, its time
    samples split over `workers` threads."""
    p = spec.params
    return _commutator(_grid_steps(times), _state_quench(spec), workers, "quench",
                       f"ground(alpha={p.alpha}, N={p.sector.n_spins})")


def commutator_series_micro(params: LmgParams, n: int, times,
                            workers: int = 1) -> CommutatorSeries:
    """Microcanonical-protocol counterpart of commutator_series."""
    return _commutator(_grid_steps(times), _state_level(params, n), workers,
                       "microcanonical",
                       f"level(n={n}, alpha={params.alpha}, N={params.sector.n_spins})")


def _commutator(grid, state, workers, protocol, label) -> CommutatorSeries:
    """CommutatorSeries of a (frame, psi) pair on a _grid_steps grid, traced
    on its reachable levels."""
    t, (dt, _, _) = grid
    frame, psi, bound = _reachable(*state)
    f, a_term, c_rel, c_norm = _single_state_otoc(frame, psi, dt, t.size, workers=workers)
    return CommutatorSeries(
        times=t, c_values=c_rel, a_values=a_term, f_values=f, c_norm_values=c_norm,
        protocol=protocol, state_label=label,
        kept_levels=frame.w_block.shape, truncation_bound=bound)
