"""Level-resolved long-time averages across the excited-state transition.

Instead of quenching, evolve each eigenstate of the alpha = 0.4
Hamiltonian under itself and record the long-time average of F for every
level. Plotted against the rescaled energy (0 = ground, 2 = top of band)
the averages fall from order one to a small plateau right at the
separatrix energy, and the drop sharpens with system size: the spread
over a fixed window of levels below the critical one shrinks as N grows.

Writes micro.dat / micro.svg and a spread table into demos/out/micro/.
About a second at these sizes.
"""

import os

import numpy as np

from lmg_otoc import (AveragingConfig, LmgParams, SpinSector, dn_diagnostic,
                      microcanonical_scan)
from lmg_otoc.output import emit_line_dat, write_csv, write_svg_line

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                   "micro")
os.makedirs(OUT, exist_ok=True)

config = AveragingConfig(total_time=2000.0, dt=0.5)
scan = microcanonical_scan(LmgParams(alpha=0.4, sector=SpinSector(100)),
                           config)

emit_line_dat(os.path.join(OUT, "micro.dat"), scan.rescaled, scan.fbar_norm)
write_svg_line(os.path.join(OUT, "micro.svg"), scan.rescaled,
               scan.fbar_norm, "rescaled energy [dimensionless]",
               "normalized Fbar [dimensionless]",
               "per-level averages, N = 100")

below = scan.fbar_norm[scan.rescaled < 0.2].mean()
crit = scan.critical_rescaled
band = scan.fbar_norm[(scan.rescaled >= crit)
                      & (scan.rescaled < crit + 0.2)].mean()
print(f"critical rescaled energy = {crit:.4f}")
print(f"mean Fbar_norm, lowest decile   = {below:.4f}")
print(f"mean Fbar_norm, decile above it = {band:.6f}")
print(f"ratio = {below / band:.0f}")

# spread of the averages over a fixed window of levels ending just above
# the critical level; decreasing values signal the sharpening step
scans = [microcanonical_scan(LmgParams(alpha=0.4, sector=SpinSector(n)),
                             config) for n in (40, 70)] + [scan]
spread = dn_diagnostic(scans)
n_spins, n_c, _, _, dn = spread
for n, level, value in zip(n_spins, n_c, dn):
    print(f"N = {n:3d}  critical level = {level:3d}  spread = {value:.4f}")
write_csv(os.path.join(OUT, "spread.csv"),
          ("n_spins", "n_c", "window_lo", "window_hi", "spread"),
          ("count", "index", "index", "index", "dimensionless"), spread)
print(f"outputs in {OUT}")
