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
class NormalizedAverage:
    """A raw long-time average together with its normalization reference.

    flagged marks cells whose half-horizon estimator drift is not small
    against the reference, i.e. the average may be under-converged.
    """

    raw: float
    reference: float
    value: float
    halfwidth: float
    flagged: bool


@dataclass(frozen=True)
class SweepGrid:
    """Normalized cells of an (alpha, lambda) grid.

    truncation_bound is the largest truncation bound of its cells
    (LongTimeAverage), those taken from `precomputed` included.
    """

    alphas: tuple
    lambdas: tuple
    n_spins: int
    cells: list = field(repr=False)            # cells[i][j] or None on row abort
    lambda_c: tuple = ()                       # per alpha; None where undefined
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


@dataclass(frozen=True)
class DnDiagnostic:
    """Spread of the normalized average over levels bracketing the critical one."""

    n_c: int
    window: tuple
    value: float


def quench_fbar(spec: QuenchSpec, config: AveragingConfig) -> LongTimeAverage:
    """Long-time average of Re F for one quench: the trapezoid rule on the
    configured grid, evaluated in closed form with no time steps."""
    return _closed_form_average(*_state_quench(spec), config.steps)


def quench_sweep(alphas, lambdas, n_spins: int, config: AveragingConfig,
                 max_workers=None, precomputed=None, on_cell=None) -> SweepGrid:
    """Normalized averages over an (alpha, lambda) grid.

    Each cell is an independent job; rows are normalized by their own
    lambda=0 average and abort (cells None, the reason in row_errors) when
    that reference is numerically zero. precomputed maps (alpha, lambda)
    to (raw, halfwidth, truncation_bound) triples and lets interrupted runs
    resume; on_cell, when given, is called with (alpha, lambda, raw,
    halfwidth, truncation_bound) as each fresh cell completes.
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

    def settle(cell, avg):
        precomputed[cell] = (avg.value, avg.estimator_halfwidth, avg.truncation_bound)
        if on_cell is not None:
            on_cell(*cell, *precomputed[cell])

    # each row's bare ground state, solved once before its cells
    _fan_out(_bare_ground, dict.fromkeys(specs[cell].params for cell in wanted),
             max_workers)
    _fan_out(lambda cell: quench_fbar(specs[cell], config), wanted, max_workers, settle)

    critical = []
    for a in alphas:
        try:
            critical.append(critical_lambda(a))
        except DomainError:
            critical.append(None)

    cells = []
    row_errors = {}
    for a in alphas:
        ref = precomputed[(a, 0.0)][0]
        if abs(ref) < REFERENCE_FLOOR:
            row_errors[a] = (f"zero-field reference {ref:.3e} below "
                             f"{REFERENCE_FLOOR:g}; row aborted")
            cells.append([None] * len(lambdas))
            continue
        row = []
        for lam in lambdas:
            raw, halfwidth, _ = precomputed[(a, lam)]
            row.append(NormalizedAverage(
                raw=raw, reference=ref, value=raw / ref, halfwidth=halfwidth,
                flagged=not halfwidth < 0.01 * abs(ref)))
        cells.append(row)
    return SweepGrid(alphas=alphas, lambdas=lambdas, n_spins=n_spins,
                     cells=cells, lambda_c=tuple(critical), row_errors=row_errors,
                     truncation_bound=max((precomputed[(a, lam)][2]
                                           for a in alphas for lam in lams_todo), default=0.0))


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
    return MicroScan(
        alpha=params.alpha, n_spins=n,
        energies=energies, energies_per_spin=energies / n,
        rescaled=rescale_energies(energies),
        fbar_raw=fbar, fbar_norm=fbar / ref, halfwidths=halfwidths,
        flagged=~(halfwidths < 0.01 * abs(ref)),
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

    avgs = _fan_out(job, sizes, max_workers)
    fit = fit_power_law(np.array(sizes, dtype=float), np.array([a.value for a in avgs]))
    return replace(fit, exponent=-fit.exponent,
                   truncation_bound=max(a.truncation_bound for a in avgs))


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
    return replace(fit_power_law(distances, [c.value for c in grid.cells[0]]),
                   truncation_bound=grid.truncation_bound)


def scaling_gamma_epsilon(scan: MicroScan, window=DEFAULT_ENERGY_FIT_WINDOW) -> FitResult:
    """Power law of the scan's per-level normalized average approaching the
    critical energy from below, against rescaled-energy distance."""
    below = scan.energies < 0.0
    dist = scan.critical_rescaled - scan.rescaled[below]
    return replace(fit_power_law(dist, scan.fbar_norm[below], window=window),
                   truncation_bound=scan.truncation_bound)


def dn_diagnostic(scans) -> list:
    """(N, spread) pairs, one per scan, measuring how sharply the normalized
    average drops across the critical level; shrinking spread with growing
    N is the finite-size signature.

    The window covers levels [n_c - 15, n_c + 5] clipped to the scan's
    spectrum, where n_c is the level closest to the critical energy (ties
    resolve to the lower index).
    """
    out = []
    for scan in scans:
        n_c = int(np.argmin(np.abs(scan.energies)))
        lo = max(n_c - 15, 0)
        hi = min(n_c + 5, scan.n_spins)
        values = scan.fbar_norm[lo:hi + 1]
        out.append((scan.n_spins, DnDiagnostic(n_c=n_c, window=(lo, hi),
                                               value=float(values.max() - values.min()))))
    return out
