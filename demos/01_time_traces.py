"""Time traces of F(t) across the dynamical transition.

Three quenches from the ground state at alpha = 0.4, where the critical
field sits at lambda_c = 1. Weak driving leaves F(t) pinned near one with
shallow oscillations; at the critical field the signal collapses and
revives; strong driving scrambles it toward a small remnant. A fourth
trace evolves the eigenstate closest to the spectral critical energy under
the bare Hamiltonian and shows the same collapse without any quench.

Writes two-column .dat files and an SVG per trace into demos/out/traces/.
Runs in a few seconds at N = 120.
"""

import os

import numpy as np

from lmg_otoc import (LmgParams, QuenchSpec, SpinSector, build_hamiltonian,
                      commutator_series, commutator_series_micro,
                      critical_lambda, eigh, make_time_grid)
from lmg_otoc.output import emit_line_dat, write_svg_line

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                   "traces")
os.makedirs(OUT, exist_ok=True)

params = LmgParams(alpha=0.4, sector=SpinSector(120))
lam_c = critical_lambda(params.alpha)
times = make_time_grid(200.0, 0.05)

for label, lam in (("weak", 0.1 * lam_c), ("critical", lam_c),
                   ("strong", 2.0 * lam_c)):
    series = commutator_series(QuenchSpec(params, lam), times)
    re_f = series.f_values.real
    emit_line_dat(os.path.join(OUT, f"f_{label}.dat"), times, re_f)
    emit_line_dat(os.path.join(OUT, f"c_{label}.dat"), times,
                  series.c_norm_values)
    write_svg_line(os.path.join(OUT, f"f_{label}.svg"), times, re_f,
                   "t [time]", "Re F [dimensionless]",
                   f"quench lambda = {lam:g}")
    print(f"{label:9s} lambda={lam:4.1f}  "
          f"min Re F = {re_f.min():+.4f}  final Re F = {re_f[-1]:+.4f}")

# eigenstate protocol: pick the level whose energy is closest to the
# separatrix (E = 0) and watch F(t) from that single stationary state
energies, _ = eigh(build_hamiltonian(params))
n_c = int(np.argmin(np.abs(energies)))
series = commutator_series_micro(params, n_c, times)
re_f = series.f_values.real
emit_line_dat(os.path.join(OUT, "f_critical_level.dat"), times, re_f)
write_svg_line(os.path.join(OUT, "f_critical_level.svg"), times, re_f,
               "t [time]", "Re F [dimensionless]",
               f"eigenstate n = {n_c}")
print(f"eigenstate n={n_c} (E = {energies[n_c]:+.3f})  "
      f"min Re F = {re_f.min():+.4f}")
print(f"outputs in {OUT}")
