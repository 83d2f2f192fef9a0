"""Solve one checkerboard problem and export field snapshots.

The medium alternates between wave-like cells (s0 = 1, s1 = 0) and
heat-like cells (s0 = 0, s1 = 1) on an N x N background grid; a box source
acts on [1/4, 3/4]^2 until t = 1.  The run uses the study resolution
h = tau = 1/(2N) and writes VTK + CSV rasters at a few times.
"""

import os
from pathlib import Path

import numpy as np

from parahyp import export_snapshot, rough_problem, run

N = 4
problem = rough_problem(N, T=1.5, rho=1.0)
solution = run(problem, n=2 * N, p=2, q=1, tau=1 / (2 * N))
print(f"solved rough problem N={N}: {solution.n_slabs} slabs, "
      f"{solution.coeffs.shape[2]} spatial unknowns")

out = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out, exist_ok=True)
for t in (0.025, 0.5, 1.0, 1.5):
    t_snap = min(t, solution.T)
    vtk, csv = export_snapshot(solution, t_snap, 64, os.path.join(out, f"u_t{t_snap}"))
    grid = np.array([[float(v) for v in line.split(",")]
                     for line in Path(csv).read_text().strip().splitlines()])
    print(f"t = {t_snap:5.3f}: u range [{grid.min():+.4f}, {grid.max():+.4f}] "
          f"-> {os.path.basename(vtk)}, {os.path.basename(csv)}")

final = solution.final_trace()
print(f"\nfinal-time traces: max |u| = {np.abs(final.u).max():.4f}, "
      f"max |v| = {np.abs(final.v).max():.4f}")
print("(v does not decay: after the source switches off it freezes toward a "
      "divergence-free state)")
