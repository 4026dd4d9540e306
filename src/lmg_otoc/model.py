"""Model assembly: the collective-spin Hamiltonian, its quenched variant,
the critical field strength and energy rescaling.

The Hamiltonian is

    H = -(2(1-alpha)/S) S_x^2 + alpha (S_z + S),        0 <= alpha <= 1,

acting in the symmetric S = N/2 sector. A quench adds a longitudinal
field term lam * S_z at t = 0. Both live in the S_x eigenbasis (the
X-basis, m ascending from -S to +S), where W = V = S_x/S is diagonal and
the Hamiltonians are tridiagonal; the builders return them as a
(diag, off) pair. The diagonal is -(2(1-alpha)/S) m^2 + alpha S, the
first off-diagonal (alpha/2) sqrt(S(S+1) - m(m-1)), and the field adds
(lam/2) sqrt(S(S+1) - m(m-1)) to the latter. The excited-state critical
energy sits at E = 0 for 0 < alpha < 0.8.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

CRITICAL_ENERGY = 0.0
ALPHA_QPT = 0.8


@dataclass(frozen=True)
class SpinSector:
    """The symmetric sector of N spin-1/2 sites: S = N/2, dimension N + 1.

    Half-integer bookkeeping stays exact by deriving everything from the
    integer N; twice the magnetic quantum numbers are integers.
    """

    n_spins: int

    def __post_init__(self):
        if not isinstance(self.n_spins, (int, np.integer)) or self.n_spins < 1:
            raise DomainError(f"n_spins must be a positive integer, got {self.n_spins!r}")

    @property
    def total_spin(self) -> float:
        return self.n_spins / 2

    @property
    def dimension(self) -> int:
        return self.n_spins + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers -S .. +S ascending. Exact in binary."""
        return (2.0 * np.arange(self.dimension) - self.n_spins) / 2.0

    def ladder_strengths(self) -> np.ndarray:
        """sqrt(S(S+1) - m(m-1)) coupling m-1 to m, for m = -S+1 .. +S.

        Evaluated from integers (twice-m) so the radicand is exact.
        """
        n = self.n_spins
        tm = 2 * np.arange(1, self.dimension) - n          # twice m
        return np.sqrt(float(n * (n + 2)) - tm * (tm - 2.0)) / 2.0


@dataclass(frozen=True)
class LmgParams:
    alpha: float
    sector: SpinSector

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class QuenchSpec:
    """Pre-quench model plus the field strength switched on at t = 0."""

    params: LmgParams
    field_strength: float

    def __post_init__(self):
        if not 0.0 <= self.field_strength < np.inf:
            raise DomainError(f"field strength must be finite and nonnegative, "
                              f"got {self.field_strength}")
        _off_diagonal(self.params, self.field_strength)     # refused before any solve


def _off_diagonal(params: LmgParams, field_strength: float) -> np.ndarray:
    """First off-diagonal of H + lam S_z: S_z only adds ladder_strengths/2.
    A field that overflows an entry is a DomainError, with no numpy warning."""
    ladder = params.sector.ladder_strengths()
    with np.errstate(over="ignore"):
        off = (params.alpha / 2.0) * ladder + field_strength * ladder / 2
    if not np.isfinite(off).all():
        raise DomainError(f"field strength {field_strength} overflows the "
                          f"N={params.sector.n_spins} Hamiltonian")
    return off


def build_hamiltonian(params: LmgParams):
    """The X-basis Hamiltonian as its (diagonal, first off-diagonal) pair."""
    sector = params.sector
    alpha = params.alpha
    s = sector.total_spin
    m = sector.m_values()
    diag = -(2.0 * (1.0 - alpha) / s) * m * m + alpha * s
    return diag, _off_diagonal(params, 0.0)


def build_postquench(spec: QuenchSpec):
    """H + lam S_z as an X-basis pair."""
    return build_hamiltonian(spec.params)[0], _off_diagonal(spec.params, spec.field_strength)


def critical_lambda(alpha: float) -> float:
    """Field strength placing the quenched system at the critical energy.

    Valid only in the broken-symmetry phase alpha < 0.8; outside it the
    formula has no derivation, so the request is rejected rather than
    extrapolated.
    """
    if not 0.0 <= alpha < ALPHA_QPT:
        raise DomainError(f"critical field is defined for 0 <= alpha < {ALPHA_QPT}, got {alpha}")
    return (4.0 - 5.0 * alpha) / 2.0


def _spectrum(energies):
    """(e, lowest, span) of a nonempty, ascending 1-D spectrum whose highest
    energy lies above its lowest, else DomainError."""
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or e.size == 0:
        raise DomainError("spectrum must be a nonempty 1-D array")
    if np.any(np.diff(e) < 0):
        raise DomainError("spectrum must be ascending")
    span = e[-1] - e[0]
    if span <= 0.0:
        raise DomainError("degenerate spectrum: highest energy equals lowest")
    return e, e[0], span


def rescale_energies(energies) -> np.ndarray:
    """Affine map of an ascending spectrum onto [0, 2]."""
    e, lowest, span = _spectrum(energies)
    return 2.0 * (e - lowest) / span


def critical_rescaled_energy(energies) -> float:
    """CRITICAL_ENERGY under the affine map of rescale_energies."""
    _, lowest, span = _spectrum(energies)
    return 2.0 * (CRITICAL_ENERGY - lowest) / span
