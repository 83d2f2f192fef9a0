"""Periodic mixed finite element spaces and the assembled operator blocks.

Builds the H^1-conforming Q_p space and the H(div)-conforming
Raviart-Thomas space on a periodic mesh, interpolates fields into them, and
verifies the structure the solver relies on: normal-trace continuity across
the periodic seams and the discrete skew-adjointness B_div = -B_grad^T.
"""

import numpy as np

from parahyp import (ScalarSpace, VectorSpace, assemble_div_block,
                     assemble_grad_block, build_mesh, eval_div, eval_scalar,
                     eval_vector, interpolate_scalar, project_vector)

mesh = build_mesh(8)
p = 2
space_u = ScalarSpace(mesh, p)
space_v = VectorSpace(mesh, p)
print(f"mesh 8x8, degree p={p}: dim V_u = {space_u.ndof} (= (p n)^2), "
      f"dim V_v = {space_v.ndof} (= 2 n^2 p^2)")

# a periodic scalar and its interpolant
fn = lambda x, y: np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y)
cu = interpolate_scalar(space_u, fn)
pts = np.random.default_rng(0).random((5, 2))
print("\nscalar interpolation samples (value vs target):")
for (x, y), v in zip(pts, eval_scalar(space_u, cu, pts)):
    print(f"  u({x:.3f}, {y:.3f}) = {v:+.6f}   target {fn(x, y):+.6f}")

# an RT field: interpolate, then look at its divergence
cv = project_vector(space_v, lambda x, y: (np.sin(2 * np.pi * x), np.zeros_like(x)))
vals = eval_vector(space_v, cv, pts)
divs = eval_div(space_v, cv, pts)
print("\nRT interpolant of (sin 2 pi x, 0): divergence vs 2 pi cos(2 pi x):")
for (x, y), d in zip(pts, divs):
    print(f"  div v({x:.3f}, {y:.3f}) = {d:+.5f}   target {2 * np.pi * np.cos(2 * np.pi * x):+.5f}")

# periodic seam: the normal component of a random RT field is continuous
rng = np.random.default_rng(1)
coeffs = rng.standard_normal(space_v.ndof)
y = rng.random(200)
left = eval_vector(space_v, coeffs, np.column_stack([np.full_like(y, 1 - 1e-12), y]))[:, 0]
right = eval_vector(space_v, coeffs, np.column_stack([np.zeros_like(y), y]))[:, 0]
print(f"\nnormal-trace jump across the x-seam (200 samples): "
      f"{np.abs(left - right).max():.2e}")

# the coupling blocks are skew-adjoint under periodic boundary conditions
b_div = assemble_div_block(space_v, space_u)
b_grad = assemble_grad_block(space_u, space_v)
print(f"max entry of B_div + B_grad^T: {abs(b_div + b_grad.T).max():.2e}")
