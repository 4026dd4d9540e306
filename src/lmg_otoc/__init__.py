"""Out-of-time-order correlators for the collective-spin (LMG) model.

Exact diagonalization of the symmetric sector, Heisenberg-picture OTOC
time traces for quench and eigenstate protocols, long-time averages as an
excited-state phase-transition order parameter, and the finite-size and
near-critical power-law fits built on top of them.
"""

from .analysis import (AveragingConfig, FitResult, MicroScan, SweepGrid,
                       dn_diagnostic, fit_power_law, microcanonical_scan,
                       quench_fbar, quench_sweep, scaling_gamma_epsilon,
                       scaling_gamma_lambda, scaling_mu)
from .eigensolver import eigh
from .errors import DomainError, LmgOtocError, NumericalError
from .model import (LmgParams, QuenchSpec, SpinSector, build_hamiltonian,
                    build_postquench, critical_lambda,
                    critical_rescaled_energy, rescale_energies)
from .otoc import (CommutatorSeries, LongTimeAverage, OtocSeries,
                   commutator_series, commutator_series_micro,
                   long_time_average, make_time_grid, micro_fbar_all,
                   quench_otoc)

__version__ = "0.1.0"

__all__ = [
    "AveragingConfig", "CommutatorSeries", "DomainError", "FitResult",
    "LmgOtocError", "LmgParams", "LongTimeAverage", "MicroScan",
    "NumericalError", "OtocSeries", "QuenchSpec", "SpinSector", "SweepGrid",
    "build_hamiltonian", "build_postquench", "commutator_series",
    "commutator_series_micro", "critical_lambda", "critical_rescaled_energy",
    "dn_diagnostic", "eigh", "fit_power_law", "long_time_average",
    "make_time_grid", "micro_fbar_all", "microcanonical_scan", "quench_fbar",
    "quench_otoc", "quench_sweep", "rescale_energies",
    "scaling_gamma_epsilon", "scaling_gamma_lambda", "scaling_mu",
]
