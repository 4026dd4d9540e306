"""Order-parameter analysis on top of the OTOC engine.

Normalized long-time averages as functions of quench strength and of
eigenstate energy, parameter sweeps with per-cell diagnostics, the
near-critical spread diagnostic, and ordinary least-squares power-law
fits for the three scaling exponents.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, NumericalError
from .model import (LmgParams, QuenchSpec, SpinSector, critical_lambda,
                    critical_rescaled_energy, rescale_energies)
from .otoc import (DEFAULT_AVERAGING_DT, DEFAULT_AVERAGING_TIME,
                   LongTimeAverage, _bare_ground, _closed_form_average, _fan_out,
                   _horizon_steps, _level_averages, _state_quench)

# Fit windows applied by default, on the fitting abscissa (distance from
# the critical point). Both exclude the finite-size saturation floor close
# to criticality; the field window additionally sits past the crossover
# hump where the asymptotic power law has set in.
DEFAULT_FIELD_FIT_WINDOW = (0.2, 0.5)
DEFAULT_ENERGY_FIT_WINDOW = (0.015, 0.1)
DEFAULT_SIZES = (100, 200, 300, 400)

REFERENCE_FLOOR = 1e-12


@dataclass(frozen=True)
class AveragingConfig:
    """Horizon and sampling step used for long-time averages.

    steps is (dt, K, K_half) of the time grid t_k = k dt, k = 0..K, which
    the closed-form averages take (_horizon_steps): three numbers worked
    out from T and dt, with no grid built, so any horizon costs the same.
    """

    total_time: float = DEFAULT_AVERAGING_TIME
    dt: float = DEFAULT_AVERAGING_DT
    steps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", _horizon_steps(self.total_time, self.dt))


@dataclass(frozen=True)
class SweepGrid:
    """Normalized averages over an (alpha, lambda) grid, held as a
    MicroScan holds its levels: fbar_raw, fbar_norm, halfwidths and flagged
    have shape (len(alphas), len(lambdas)), and reference and lambda_c
    one entry per alpha (lambda_c NaN where undefined). An aborted row is
    NaN in its three value arrays, never flagged, and named in row_errors.

    truncation_bound is the largest truncation bound of its cells
    (LongTimeAverage), those taken from `precomputed` included.
    """

    alphas: tuple
    lambdas: tuple
    n_spins: int
    fbar_raw: np.ndarray = field(repr=False)
    fbar_norm: np.ndarray = field(repr=False)
    halfwidths: np.ndarray = field(repr=False)
    flagged: np.ndarray = field(repr=False)
    reference: np.ndarray = field(repr=False)
    lambda_c: np.ndarray = field(repr=False)
    row_errors: dict = field(default_factory=dict)
    truncation_bound: float = 0.0


@dataclass(frozen=True)
class MicroScan:
    """Per-level long-time averages over the whole spectrum, and the
    largest truncation bound among them (LongTimeAverage)."""

    alpha: float
    n_spins: int
    energies: np.ndarray = field(repr=False)
    energies_per_spin: np.ndarray = field(repr=False)
    rescaled: np.ndarray = field(repr=False)
    fbar_raw: np.ndarray = field(repr=False)
    fbar_norm: np.ndarray = field(repr=False)
    halfwidths: np.ndarray = field(repr=False)
    flagged: np.ndarray = field(repr=False)
    critical_rescaled: float = 0.0
    truncation_bound: float = 0.0


@dataclass(frozen=True)
class FitResult:
    """OLS power-law fit on log-log axes.

    window records the abscissa range of the points actually used, not the
    requested bounds. xs/ys carry those points for reporting, and
    truncation_bound the largest truncation bound of the averages behind
    them (LongTimeAverage), 0 for averages over sampled values.
    """

    exponent: float
    exponent_stderr: float
    amplitude: float
    window: tuple
    n_points: int
    xs: np.ndarray = field(repr=False, default=None)
    ys: np.ndarray = field(repr=False, default=None)
    truncation_bound: float = 0.0


def quench_fbar(spec: QuenchSpec, config: AveragingConfig) -> LongTimeAverage:
    """Long-time average of Re F for one quench: the trapezoid rule on the
    configured grid, evaluated in closed form with no time steps."""
    return _closed_form_average(*_state_quench(spec), config.steps)


def quench_sweep(alphas, lambdas, n_spins: int, config: AveragingConfig,
                 max_workers=None, precomputed=None, on_cell=None) -> SweepGrid:
    """Normalized averages over an (alpha, lambda) grid.

    Each cell is an independent job; rows are normalized by their own
    lambda=0 average and abort (NaN values, the reason in row_errors) when
    that reference is numerically zero. precomputed maps (alpha, lambda)
    to a LongTimeAverage and lets interrupted runs resume; on_cell, when
    given, is called with ((alpha, lambda), average) as each fresh cell
    completes.
    """
    alphas = tuple(float(a) for a in alphas)
    lambdas = tuple(float(lam) for lam in lambdas)
    sector = SpinSector(n_spins)
    precomputed = dict(precomputed or {})

    lams_todo = ((0.0,) if 0.0 not in lambdas else ()) + lambdas
    # every cell's spec is checked before any cell is solved
    specs = {(a, lam): QuenchSpec(LmgParams(a, sector), lam)
             for a in alphas for lam in lams_todo}
    wanted = [cell for cell in specs if cell not in precomputed]

    # each row's bare ground state, solved once before its cells
    _fan_out(_bare_ground, dict.fromkeys(specs[cell].params for cell in wanted),
             max_workers)
    precomputed.update(zip(wanted, _fan_out(lambda cell: quench_fbar(specs[cell], config),
                                            wanted, max_workers, on_cell)))

    critical = []
    for a in alphas:
        try:
            critical.append(critical_lambda(a))
        except DomainError:
            critical.append(np.nan)

    shape = (len(alphas), len(lambdas))
    avgs = [precomputed[(a, lam)] for a in alphas for lam in lambdas]
    raw = np.array([c.value for c in avgs], dtype=float).reshape(shape)
    halfwidths = np.array([c.estimator_halfwidth for c in avgs], dtype=float).reshape(shape)
    reference = np.array([precomputed[(a, 0.0)].value for a in alphas], dtype=float)
    aborted = np.abs(reference) < REFERENCE_FLOOR
    raw[aborted] = halfwidths[aborted] = np.nan
    fbar_norm, flagged = _normalized(raw, halfwidths, reference[:, None])
    flagged[aborted] = False
    row_errors = {a: f"zero-field reference {ref:.3e} below {REFERENCE_FLOOR:g}; row aborted"
                  for a, ref, out in zip(alphas, reference, aborted) if out}
    return SweepGrid(alphas=alphas, lambdas=lambdas, n_spins=n_spins,
                     fbar_raw=raw, fbar_norm=fbar_norm, halfwidths=halfwidths,
                     flagged=flagged, reference=reference,
                     lambda_c=np.array(critical, dtype=float), row_errors=row_errors,
                     truncation_bound=max((precomputed[cell].truncation_bound
                                           for cell in specs), default=0.0))


def _normalized(raw, halfwidths, reference):
    """raw / reference, and the flags of the values whose half-horizon
    estimator drift is not small against the reference: they may be
    under-converged."""
    return raw / reference, ~(halfwidths < 0.01 * np.abs(reference))


def microcanonical_scan(params: LmgParams, config: AveragingConfig) -> MicroScan:
    """Normalized long-time average for every eigenstate of one model.

    The energies are those of the blocks that the levels are taken from,
    sorted: doublet partners can sit ~1e-13 out of order."""
    energies, fbar, halfwidths, bound = _level_averages(params, config.steps)
    energies = np.sort(energies)
    ref = fbar[0]
    if abs(ref) < REFERENCE_FLOOR:
        raise NumericalError(f"ground-state reference {ref:.3e} too small to normalize by")
    n = params.sector.n_spins
    fbar_norm, flagged = _normalized(fbar, halfwidths, ref)
    return MicroScan(
        alpha=params.alpha, n_spins=n,
        energies=energies, energies_per_spin=energies / n,
        rescaled=rescale_energies(energies),
        fbar_raw=fbar, fbar_norm=fbar_norm, halfwidths=halfwidths, flagged=flagged,
        critical_rescaled=critical_rescaled_energy(energies),
        truncation_bound=bound)


def fit_power_law(x, y, window=None) -> FitResult:
    """OLS fit of y = amplitude * x^exponent on log-log axes.

    Only strictly positive (x, y) pairs inside the window participate;
    fewer than three distinct log x among them is an error rather than a
    fit. Repeated abscissae beside three distinct ones are kept.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0)
    if window is not None:
        lo, hi = window
        mask &= (x >= lo) & (x <= hi)
    xs, ys = x[mask], y[mask]
    lx, ly = np.log(xs), np.log(ys)
    distinct = np.unique(lx).size
    if distinct < 3:
        raise DomainError(f"power-law fit needs at least 3 usable points with distinct x, "
                          f"got {xs.size} with {distinct} distinct")
    design = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    slope, intercept = coef
    resid = ly - design @ coef
    sigma2 = float(resid @ resid) / (xs.size - 2)
    stderr = float(np.sqrt(sigma2 / float(((lx - lx.mean()) ** 2).sum())))
    return FitResult(exponent=float(slope), exponent_stderr=stderr,
                     amplitude=float(np.exp(intercept)),
                     window=(float(xs.min()), float(xs.max())),
                     n_points=int(xs.size), xs=xs, ys=ys)


def scaling_mu(alpha: float, sizes=DEFAULT_SIZES,
               config: AveragingConfig = AveragingConfig(),
               max_workers=None) -> FitResult:
    """Decay exponent of the raw critical-field average against system size.

    Fits raw F-bar at lambda = lambda_c(alpha) over the given sizes and
    returns the exponent mu of the decay law size^(-mu); positive mu means
    the critical average shrinks with growing N.
    """
    lam_c = critical_lambda(alpha)
    sizes = tuple(int(s) for s in sizes)

    def job(n):
        return quench_fbar(QuenchSpec(LmgParams(alpha, SpinSector(n)), lam_c), config)

    # a repeated size is solved once and counts once per repeat in the fit
    distinct = tuple(dict.fromkeys(sizes))
    solved = dict(zip(distinct, _fan_out(job, distinct, max_workers)))
    fit = fit_power_law(np.array(sizes, dtype=float), [solved[n].value for n in sizes])
    return replace(fit, exponent=-fit.exponent,
                   truncation_bound=max(a.truncation_bound for a in solved.values()))


def scaling_gamma_lambda(alpha: float, n_spins: int,
                         config: AveragingConfig = AveragingConfig(),
                         window=DEFAULT_FIELD_FIT_WINDOW,
                         max_workers=None) -> FitResult:
    """Power law of the normalized average approaching the critical field
    from below: value ~ |lambda - lambda_c|^gamma.

    The field row is eight distances from the critical point, spaced
    geometrically over the fit window (lo, hi), which must satisfy
    0 < lo < hi <= lambda_c with lambda_c - lo < lambda_c in floating
    point. The values are the row of quench_sweep over those fields; a row
    it aborts is a NumericalError.
    """
    lam_c = critical_lambda(alpha)
    lo, hi = window
    if not (0.0 < lo < hi <= lam_c and lam_c - lo < lam_c):
        raise DomainError(f"field fit window ({lo:g}, {hi:g}) at alpha={alpha} must satisfy "
                          f"0 < lo < hi <= lambda_c = {lam_c:g} with lambda_c - lo < lambda_c")
    distances = np.geomspace(lo, hi, 8)
    grid = quench_sweep((alpha,), lam_c - distances, n_spins, config, max_workers)
    if grid.row_errors:
        raise NumericalError(f"alpha={alpha}: {grid.row_errors[alpha]}")
    return replace(fit_power_law(distances, grid.fbar_norm[0]),
                   truncation_bound=grid.truncation_bound)


def scaling_gamma_epsilon(scan: MicroScan, window=DEFAULT_ENERGY_FIT_WINDOW) -> FitResult:
    """Power law of the scan's per-level normalized average approaching the
    critical energy from below, against rescaled-energy distance."""
    below = scan.energies < 0.0
    dist = scan.critical_rescaled - scan.rescaled[below]
    return replace(fit_power_law(dist, scan.fbar_norm[below], window=window),
                   truncation_bound=scan.truncation_bound)


def dn_diagnostic(scans) -> tuple:
    """Columns (n_spins, n_c, window_lo, window_hi, dn), one entry per scan in
    the order given: the spread dn of the normalized average over the levels
    window_lo..window_hi bracketing the critical level n_c. A spread that
    shrinks with growing N is the finite-size signature.

    The window covers levels [n_c - 15, n_c + 5] clipped to the scan's
    spectrum, where n_c is the level closest to the critical energy (ties
    resolve to the lower index).
    """
    scans = list(scans)
    n_spins = np.array([scan.n_spins for scan in scans], dtype=int)
    n_c = np.array([np.argmin(np.abs(scan.energies)) for scan in scans], dtype=int)
    lo = np.maximum(n_c - 15, 0)
    hi = np.minimum(n_c + 5, n_spins)
    dn = np.array([np.ptp(scan.fbar_norm[a:b + 1]) for scan, a, b in zip(scans, lo, hi)])
    return n_spins, n_c, lo, hi, dn
