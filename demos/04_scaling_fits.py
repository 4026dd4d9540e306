"""Power-law fits behind the scaling claims, at demo-sized parameters.

Three fits, one per exponent:

  mu            decay of the raw critical-field average with system size
  gamma_lambda  growth of the normalized average with distance below the
                critical field, at fixed size
  gamma_epsilon growth of the per-level average with distance below the
                critical energy, at fixed size

Demo sizes keep each fit to a fraction of a second, so the exponents
here are finite-size effective values only. Production settings
(horizon 1e4, N = 400 for gamma_lambda, N = 300 for gamma_epsilon,
N = 100..400 for mu, default windows) land near gamma_lambda =
0.36..0.37 and gamma_epsilon = 0.64..0.73; through the CLI on one core
(one worker, BLAS on one thread) a fit takes about 0.5 s for
gamma_lambda, 1.6 s for gamma_epsilon and 0.3 s for mu. At the horizon
1e4 the size fit for mu needs sizes past roughly N = 600 before the
decay regime sets in, and the onset moves to larger N as the horizon
grows; at the sizes below the raw average is still growing and the
fitted exponent comes out negative.
"""

import os

from lmg_otoc import (AveragingConfig, LmgParams, SpinSector,
                      microcanonical_scan, scaling_gamma_epsilon,
                      scaling_gamma_lambda, scaling_mu)
from lmg_otoc.output import write_csv

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                   "fits")
os.makedirs(OUT, exist_ok=True)

fast = AveragingConfig(total_time=200.0, dt=0.5)

mu = scaling_mu(0.4, sizes=(30, 40, 60), config=fast)
print(f"mu            = {mu.exponent:+.4f} +- {mu.exponent_stderr:.4f}  "
      f"({mu.n_points} sizes in {mu.window})")

gl = scaling_gamma_lambda(0.4, n_spins=40, config=fast)
print(f"gamma_lambda  = {gl.exponent:+.4f} +- {gl.exponent_stderr:.4f}  "
      f"({gl.n_points} fields in {gl.window})")

scan = microcanonical_scan(LmgParams(alpha=0.4, sector=SpinSector(40)), fast)
ge = scaling_gamma_epsilon(scan, window=(0.01, 0.5))
print(f"gamma_epsilon = {ge.exponent:+.4f} +- {ge.exponent_stderr:.4f}  "
      f"({ge.n_points} levels in {ge.window})")

rows = []
for name, fit in (("mu", mu), ("gamma_lambda", gl), ("gamma_epsilon", ge)):
    rows.append([name, fit.exponent, fit.exponent_stderr, fit.amplitude,
                 fit.n_points])
write_csv(os.path.join(OUT, "fits.csv"),
          ("kind", "exponent", "stderr", "amplitude", "n_points"),
          ("name", "dimensionless", "dimensionless", "dimensionless", "count"),
          tuple(zip(*rows)))

# the raw points behind each fit, for replotting
for name, fit in (("mu", mu), ("gamma_lambda", gl), ("gamma_epsilon", ge)):
    write_csv(os.path.join(OUT, f"points_{name}.csv"), ("x", "y"),
              ("dimensionless", "dimensionless"), (fit.xs, fit.ys))
print(f"outputs in {OUT}")
