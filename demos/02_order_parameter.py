"""Long-time average of F as an order parameter over the (alpha, lambda) plane.

A coarse sweep: for each alpha the quench strength crosses its critical
value and the normalized average drops from order one to nearly zero.
The alpha = 0.9 row sits past the ground-state transition where no
critical field exists; the sweep records the row but leaves the overlay
column empty. Its normalized values swing wildly because the lambda = 0
reference average is itself nearly zero there, which is the point: the
normalization only means something on the ordered side.

Writes sweep.csv and a gnuplot-style heatmap.dat into demos/out/sweep/.
The full-resolution map (N = 400, a 21 x 21 grid, averaging horizon 1e4)
takes about 20 s on one core, and a finer grid proportionally longer;
run it through the CLI when needed:

    lmg-otoc sweep --alphas 0,0.05,...,1.0 --lambdas 0,0.125,...,2.5 \
        --n 400 --out runs/heatmap-full

This demo keeps N = 80 and a horizon of 2000, which finishes in well
under a minute and already shows the cliff.
"""

import os

import numpy as np

from lmg_otoc import AveragingConfig, quench_sweep
from lmg_otoc.output import emit_heatmap_dat, write_csv

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                   "sweep")
os.makedirs(OUT, exist_ok=True)

alphas = (0.2, 0.4, 0.9)
lambdas = tuple(np.round(np.linspace(0.0, 2.5, 11), 10))
grid = quench_sweep(alphas, lambdas, n_spins=80,
                    config=AveragingConfig(total_time=2000.0, dt=0.5))

for alpha, lam_c, values in zip(grid.alphas, grid.lambda_c, grid.fbar_norm):
    print(f"alpha = {alpha}: lambda_c = "
          f"{'undefined' if np.isnan(lam_c) else lam_c}")
    if alpha in grid.row_errors:        # an aborted row has no values
        continue
    for lam, value in zip(grid.lambdas, values):
        marker = " <- lambda_c" if abs(lam - lam_c) < 0.125 else ""
        print(f"  lambda = {lam:5.2f}  Fbar_norm = {value:7.4f}{marker}")

# one row per cell, in sweep order; NaN is written blank
write_csv(os.path.join(OUT, "sweep.csv"),
          ("alpha", "lambda", "fbar_norm", "lambda_c"),
          ("dimensionless", "field", "dimensionless", "field"),
          (np.repeat(grid.alphas, len(grid.lambdas)),
           np.tile(grid.lambdas, len(grid.alphas)), grid.fbar_norm.ravel(),
           np.repeat(grid.lambda_c, len(grid.lambdas))))
# one block per row, aborted rows left out
kept = [k for k, a in enumerate(grid.alphas) if a not in grid.row_errors]
emit_heatmap_dat(os.path.join(OUT, "heatmap.dat"),
                 [grid.alphas[k] for k in kept], grid.lambdas, grid.fbar_norm[kept])
print(f"outputs in {OUT}")
