"""Error functionals, convergence orders and cross-resolution comparison.

Two functionals measure a space-time deviation a(t):

* ``E_sup``: sup over sample times of the M0-weighted spatial form
  <M0 a(t), a(t)> = int s0 |a_u|^2 + |a_v|^2, sampled at every slab's
  weighted Radau nodes and left traces.
* ``E_Q``: the exponentially weighted discrete space-time norm
  (sum_m e^{-2 rho t_{m-1}} Q_m(a, a))^{1/2} with the slab quadrature Q_m;
  for members of the discrete space this is exactly the norm induced by
  the scheme.  The written definition's e^{2 rho T} prefactor would scale
  every value by e^{rho T} and leave every convergence order unchanged.

Cross-resolution comparisons evaluate both solutions pointwise on a tensor
Gauss grid per cell of the finer (nested) mesh, so the spatial quadrature
is exact for the polynomial difference; the temporal samples are the coarse
run's Radau nodes and traces.  The grid values of a solution come from basis
tables built once per comparison, so each sample costs one gather of cell
coefficients and one matmul per field.  ``compare_solutions`` and
``compare_to_exact`` share one sampling loop; they differ only in what they
subtract on the grid.  ``e_sup_discrete``/``e_q_discrete`` evaluate the same
functionals in matrix form and serve as the oracle for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientField
from .mesh import cell_quadrature_points
from .quadrature import gauss_legendre_1d
from .slab import DiscreteSolution


def eoc(e_n: float, e_2n: float) -> float:
    """Experimental order of convergence ln(E_n / E_2n) / ln 2."""
    if e_n <= 0.0 or e_2n <= 0.0:
        raise ValueError(f"eoc needs positive errors, got ({e_n}, {e_2n})")
    return math.log(e_n / e_2n) / math.log(2.0)


def e_sup_from_samples(samples) -> float:
    """sqrt of the largest quadratic-form sample."""
    samples = np.asarray(list(samples), dtype=float)
    if samples.size == 0:
        raise ValueError("E_sup needs at least one sample time")
    return float(np.sqrt(samples.max()))


def e_q_from_slab_terms(slab_terms, rho: float, tau: float) -> float:
    """Assemble E_Q, the discrete L^2_rho(0, T) norm, from the per-slab
    quadrature values Q_m(a, a)."""
    slab_terms = np.asarray(list(slab_terms), dtype=float)
    t_left = np.arange(slab_terms.size) * tau
    return float(np.sqrt(np.sum(np.exp(-2.0 * rho * t_left) * slab_terms)))


@dataclass
class ErrorReport:
    e_sup: float
    e_q: float


@dataclass
class ErrorTable:
    """Rows (N, E_sup_rough, E_Q_rough, E_sup_hom, E_Q_hom) plus derived eocs."""

    rows: list = field(default_factory=list)
    columns = ("e_sup_rough", "e_q_rough", "e_sup_hom", "e_q_hom")

    def add_row(self, N: int, e_sup_rough: float, e_q_rough: float,
                e_sup_hom: float, e_q_hom: float):
        self.rows.append({"N": N, "e_sup_rough": e_sup_rough,
                          "e_q_rough": e_q_rough, "e_sup_hom": e_sup_hom,
                          "e_q_hom": e_q_hom})

    def eoc_rows(self) -> list:
        """Per row, dict of column -> eoc against the previous row (None in row 0)."""
        out = []
        for idx, row in enumerate(self.rows):
            if idx == 0:
                out.append({c: None for c in self.columns})
            else:
                prev = self.rows[idx - 1]
                out.append({c: eoc(prev[c], row[c]) for c in self.columns})
        return out

    def to_csv(self) -> str:
        lines = ["N,E_sup_rough,eoc,E_Q_rough,eoc,E_sup_hom,eoc,E_Q_hom,eoc"]
        for row, eocs in zip(self.rows, self.eoc_rows()):
            cells = [str(row["N"])]
            for col in self.columns:
                cells.append(f"{row[col]:.3e}")
                cells.append("" if eocs[col] is None else f"{eocs[col]:.2f}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def format_pretty(self) -> str:
        header = (f"{'N':>4} {'E_sup(rough)':>13} {'eoc':>6} {'E_Q(rough)':>13} "
                  f"{'eoc':>6} {'E_sup(hom)':>13} {'eoc':>6} {'E_Q(hom)':>13} {'eoc':>6}")
        lines = [header]
        for row, eocs in zip(self.rows, self.eoc_rows()):
            cells = [f"{row['N']:>4}"]
            for col in self.columns:
                cells.append(f"{row[col]:>13.3e}")
                cells.append("      " if eocs[col] is None else f"{eocs[col]:>6.2f}")
            lines.append(" ".join(cells))
        return "\n".join(lines)


def _sample_times(sol: DiscreteSolution):
    """(time, side, kind) samples: left trace plus Radau nodes per slab."""
    samples = []
    for m in range(sol.n_slabs):
        samples.append((m * sol.tau, "+", "trace"))
        samples += [(t, "-", (m, i)) for i, t in enumerate(sol.basis.node_times(m).tolist())]
    return samples


class _CellGridEvaluator:
    """Evaluate a discrete solution on a fixed tensor Gauss grid of a nested
    evaluation mesh (the finer of the two meshes being compared).

    Evaluation cell (I, J), flat index J * eval_n + I, lies at offset
    (oi, oj) = (I % r, J % r) inside solution cell (I // r, J // r), with
    r = eval_n / n.  The basis tables hold every local basis function at all
    r^2 offsets x G^2 grid points, one table per row offset oj, so a sample
    is one gather of cell coefficients and one (batched) matmul whose result
    is already in evaluation-cell order [j, oj, i, oi].
    """

    def __init__(self, sol: DiscreteSolution, eval_n: int, points_1d: np.ndarray):
        n = sol.space_u.mesh.n
        if eval_n % n != 0:
            raise ValueError(f"evaluation mesh n={eval_n} does not nest solution mesh n={n}")
        self.sol = sol
        r = eval_n // n
        self.eval_n = eval_n
        self.g2 = len(points_1d) ** 2
        # reference coordinates within a solution cell, indexed [oj, oi, gx, gy]
        xi = (points_1d[None, :] + np.arange(r)[:, None]) / r      # (r, G)
        shape = (r, r, len(points_1d), len(points_1d))
        px = np.broadcast_to(xi[None, :, :, None], shape).ravel()
        py = np.broadcast_to(xi[:, None, None, :], shape).ravel()
        vals, = sol.space_u.basis_values(px, py)
        vx, vy = sol.space_v.basis_values(px, py)
        # (r, n_loc, r G^2) and (r, n_loc, r G^2 2): one table per row offset oj
        self.tab_u = np.ascontiguousarray(vals.reshape(r, -1, vals.shape[1]).swapaxes(1, 2))
        self.tab_v = np.ascontiguousarray(
            np.stack([vx, vy], axis=1).reshape(r, -1, vx.shape[1]).swapaxes(1, 2))

    def values_at(self, t: float, side: str):
        """u values (cells, G^2) and v values (cells, G^2, 2) on the grid."""
        coeffs = self.sol.coefficients_at(t, side)
        n = self.sol.space_u.mesh.n
        cu = coeffs[: self.sol.ndof_u][self.sol.space_u.cell_dofs].reshape(n, 1, n, -1)
        cv = coeffs[self.sol.ndof_u:][self.sol.space_v.cell_dofs].reshape(n, 1, n, -1)
        n_eval_cells = self.eval_n ** 2
        return ((cu @ self.tab_u).reshape(n_eval_cells, self.g2),
                (cv @ self.tab_v).reshape(n_eval_cells, self.g2, 2))


def _cell_integrals(du: np.ndarray, dv: np.ndarray, w2: np.ndarray):
    """Per-cell integrals of |du|^2 and |dv|^2 on the tensor Gauss grid."""
    return (du**2) @ w2, (dv**2).reshape(len(dv), -1) @ np.repeat(w2, 2)


def _sampled_report(sol: DiscreteSolution, cell_integrals,
                    s0_cells: np.ndarray) -> ErrorReport:
    """E_sup and E_Q from per-cell u and v squared integrals at every sample time.

    ``cell_integrals(t, side)`` returns the two per-cell arrays; E_sup weights
    the u part by ``s0_cells``, E_Q sums each slab's Radau samples.
    """
    sup_samples = []
    slab_terms = np.zeros(sol.n_slabs)
    for t, side, kind in _sample_times(sol):
        u_sq, v_sq = cell_integrals(t, side)
        sup_samples.append(float(s0_cells @ u_sq + v_sq.sum()))
        if kind != "trace":
            m, i = kind
            slab_terms[m] += sol.basis.weights[i] * float(u_sq.sum() + v_sq.sum())
    return ErrorReport(e_sup=e_sup_from_samples(sup_samples),
                       e_q=e_q_from_slab_terms(slab_terms, sol.rho, sol.tau))


def compare_solutions(coarse: DiscreteSolution, reference: DiscreteSolution,
                      s0_weight: CoefficientField) -> ErrorReport:
    """E_sup and E_Q of (reference - coarse) on the coarse discretisation.

    The reference must be nested: its mesh refines the coarse mesh and its
    slab length divides the coarse slab length.  ``s0_weight`` supplies the
    s0 used in the M0-weighted E_sup form; E_Q is weighted by the coarse
    run's rho.
    """
    n_c = coarse.space_u.mesh.n
    n_r = reference.space_u.mesh.n
    if n_r % n_c != 0:
        raise ValueError(f"reference mesh n={n_r} does not refine coarse mesh n={n_c}")
    ratio_t = coarse.tau / reference.tau
    if abs(ratio_t - round(ratio_t)) > 1e-9 or round(ratio_t) < 1:
        raise ValueError(f"reference slab length {reference.tau} does not divide "
                         f"coarse slab length {coarse.tau}")
    if abs(coarse.T - reference.T) > 1e-9 * max(coarse.T, 1.0):
        raise ValueError("solutions cover different time windows")

    g = max(coarse.space_u.p, reference.space_u.p) + 1
    rule = gauss_legendre_1d(g)
    w2 = np.outer(rule.weights, rule.weights).ravel() / n_r**2   # physical cell weights
    ev_c = _CellGridEvaluator(coarse, n_r, rule.nodes)
    ev_r = _CellGridEvaluator(reference, n_r, rule.nodes)

    def cell_integrals(t, side):
        uc, vc = ev_c.values_at(t, side)
        ur, vr = ev_r.values_at(t, side)
        return _cell_integrals(ur - uc, vr - vc, w2)

    return _sampled_report(coarse, cell_integrals,
                           s0_weight.cell_values(reference.space_u.mesh))


def compare_to_exact(sol: DiscreteSolution, exact_u, exact_v,
                     s0_weight: CoefficientField) -> ErrorReport:
    """E_sup/E_Q of (exact - discrete) for a known smooth space-time solution.

    ``exact_u(t, x, y)`` and ``exact_v(t, x, y) -> (vx, vy)`` are evaluated
    on a per-cell (p+3)-point Gauss grid, fine enough that the quadrature
    error is far below the discretisation error being measured.
    """
    mesh = sol.space_u.mesh
    rule = gauss_legendre_1d(sol.space_u.p + 3)
    w2 = np.outer(rule.weights, rule.weights).ravel() / mesh.n**2
    ev = _CellGridEvaluator(sol, mesh.n, rule.nodes)
    X, Y = cell_quadrature_points(mesh, rule.nodes)

    def cell_integrals(t, side):
        uh, vh = ev.values_at(t, side)
        exact = np.empty_like(vh)
        exact[..., 0], exact[..., 1] = exact_v(t, X, Y)
        return _cell_integrals(exact_u(t, X, Y) - uh, exact - vh, w2)

    return _sampled_report(sol, cell_integrals, s0_weight.cell_values(mesh))


def e_sup_discrete(diff: DiscreteSolution, m0) -> float:
    """E_sup of a discrete space-time function given through its coefficients,
    in the norm of the stacked weight ``m0`` (``BlockSystem.m0()``)."""
    states = (diff.coefficients_at(t, side) for t, side, _ in _sample_times(diff))
    return e_sup_from_samples(c @ (m0 @ c) for c in states)


def e_q_discrete(diff: DiscreteSolution, m_unweighted) -> float:
    """E_Q of a discrete space-time function; equals its scheme-induced norm.
    ``m_unweighted`` is the stacked L^2 Gram matrix (``BlockSystem.m_unweighted()``)."""
    terms = [np.einsum("ij,ji->i", c, m_unweighted @ c.T) @ diff.basis.weights
             for c in diff.coeffs]
    return e_q_from_slab_terms(terms, diff.rho, diff.tau)
