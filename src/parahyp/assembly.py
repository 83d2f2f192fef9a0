"""Assembly of the spatial operator blocks.

All cells of the periodic tensor mesh are congruent, so each global matrix
is one reference element matrix scattered over the mesh, scaled per cell by
the (cellwise constant) coefficient where applicable.  The element matrices
are tensor products of small 1D integral matrices, which keeps every entry
exact up to round-off: the spatial coefficients are constant per cell and
all integrands are polynomial.

Block structure of the evolutionary operator on coefficient vectors (u, v):

    M0 = [[Mu(s0), 0], [0, Mv]]        time-derivative weight
    M1 = [[Mu(s1), 0], [0, 0]]         zeroth-order damping
    A  = [[0, B_div], [B_grad, 0]]     skew-adjoint spatial coupling

with B_div[i, j] = <div psi_j, phi_i> and B_grad[i, j] = <grad phi_j, psi_i>;
periodicity makes B_div = -B_grad^T hold entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .coefficients import CoefficientField
from .mesh import cell_quadrature_points
from .quadrature import gauss_legendre_1d
from .spaces import Lagrange1D, ScalarSpace, VectorSpace, gauss_lobatto_points


def _coefficient_cells(space: ScalarSpace, s) -> np.ndarray:
    if isinstance(s, CoefficientField):
        return s.cell_values(space.mesh)
    vals = np.asarray(s, dtype=float)
    if np.ndim(vals) == 0:
        return np.full(space.mesh.n_cells, float(vals))
    if vals.shape != (space.mesh.n_cells,):
        raise ValueError(f"expected one coefficient per cell, got shape {vals.shape}")
    return vals


def _scatter(element: np.ndarray, cell_dofs_rows, cell_dofs_cols,
             cell_scale, shape) -> sparse.csr_matrix:
    """Accumulate per-cell copies of an element matrix into a global CSR matrix."""
    n_cells, n_rows = cell_dofs_rows.shape
    n_cols = cell_dofs_cols.shape[1]
    data = np.multiply.outer(cell_scale, element)
    rows = np.repeat(cell_dofs_rows, n_cols, axis=1)
    cols = np.broadcast_to(cell_dofs_cols[:, None, :], (n_cells, n_rows, n_cols))
    mat = sparse.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    return mat.tocsr()


def _lagrange_integrals(p: int, space_v: VectorSpace | None):
    """1D integral matrices shared by all element matrices of degree p."""
    rule = gauss_legendre_1d(p + 2)
    xq, wq = rule.nodes, rule.weights
    lagrange = Lagrange1D(gauss_lobatto_points(p))
    L = lagrange.values(xq)                  # (Q, p+1)
    dL = lagrange.derivatives(xq)
    out = {"m1": _sym((wq[:, None] * L).T @ L)}
    if space_v is not None:
        G = space_v.lag_normal.values(xq)     # (Q, k+2)
        dG = space_v.lag_normal.derivatives(xq)
        E = space_v.lag_tangent.values(xq)    # (Q, k+1)
        out["gnn"] = _sym((wq[:, None] * G).T @ G)
        out["gee"] = _sym((wq[:, None] * E).T @ E)
        out["gdl"] = (wq[:, None] * dG).T @ L   # [a, alpha] = int G_a' L_alpha
        out["gel"] = (wq[:, None] * E).T @ L    # [b, beta]  = int E_b L_beta
        out["lg"] = (wq[:, None] * dL).T @ G    # [alpha, a] = int L_alpha' G_a
        out["le"] = (wq[:, None] * L).T @ E     # [beta, b]  = int L_beta E_b
    return out


def _sym(m):
    return (m + m.T) / 2.0


def assemble_weighted_mass_u(space: ScalarSpace, s) -> sparse.csr_matrix:
    """Mass matrix with entries int s(x) phi_i phi_j dx, exact for cellwise s."""
    cells = _coefficient_cells(space, s)
    ints = _lagrange_integrals(space.p, None)
    element = space.mesh.h**2 * np.kron(ints["m1"], ints["m1"])
    return _scatter(element, space.cell_dofs, space.cell_dofs,
                    cells, (space.ndof, space.ndof))


def assemble_mass_v(space: VectorSpace) -> sparse.csr_matrix:
    """RT mass matrix, entries int psi_i . psi_j dx."""
    ints = _lagrange_integrals(space.p, space)
    comp = np.kron(ints["gnn"], ints["gee"])
    element = space.mesh.h**2 * np.block(
        [[comp, np.zeros_like(comp)], [np.zeros_like(comp), comp]])
    ones = np.ones(space.mesh.n_cells)
    return _scatter(element, space.cell_dofs, space.cell_dofs,
                    ones, (space.ndof, space.ndof))


def _div_element(space_u: ScalarSpace, space_v: VectorSpace) -> np.ndarray:
    ints = _lagrange_integrals(space_u.p, space_v)
    h = space_u.mesh.h
    p, k = space_u.p, space_v.k
    de_x = h * np.einsum("aA,bB->BAab", ints["gdl"], ints["gel"])
    de_y = h * np.einsum("aA,bB->BAba", ints["gel"], ints["gdl"])
    n_u = (p + 1) ** 2
    return np.concatenate([de_x.reshape(n_u, -1), de_y.reshape(n_u, -1)], axis=1)


def _grad_element(space_u: ScalarSpace, space_v: VectorSpace) -> np.ndarray:
    ints = _lagrange_integrals(space_u.p, space_v)
    h = space_u.mesh.h
    p = space_u.p
    ge_x = h * np.einsum("Aa,Bb->abBA", ints["lg"], ints["le"])
    ge_y = h * np.einsum("Aa,Bb->baBA", ints["le"], ints["lg"])
    n_u = (p + 1) ** 2
    return np.concatenate([ge_x.reshape(-1, n_u), ge_y.reshape(-1, n_u)], axis=0)


def assemble_div_block(space_v: VectorSpace, space_u: ScalarSpace) -> sparse.csr_matrix:
    """Coupling block with entries <div psi_j, phi_i>, shape (dim_u, dim_v)."""
    if space_v.mesh is not space_u.mesh and space_v.mesh != space_u.mesh:
        raise ValueError("spaces must share one mesh")
    element = _div_element(space_u, space_v)
    ones = np.ones(space_u.mesh.n_cells)
    return _scatter(element, space_u.cell_dofs, space_v.cell_dofs,
                    ones, (space_u.ndof, space_v.ndof))


def assemble_grad_block(space_u: ScalarSpace, space_v: VectorSpace) -> sparse.csr_matrix:
    """Coupling block with entries <grad phi_j, psi_i>, shape (dim_v, dim_u)."""
    if space_v.mesh is not space_u.mesh and space_v.mesh != space_u.mesh:
        raise ValueError("spaces must share one mesh")
    element = _grad_element(space_u, space_v)
    ones = np.ones(space_u.mesh.n_cells)
    return _scatter(element, space_v.cell_dofs, space_u.cell_dofs,
                    ones, (space_v.ndof, space_u.ndof))


def assemble_load(space: ScalarSpace, f, t: float, quad_points: int | None = None) -> np.ndarray:
    """Load vector with entries <f(t, .), phi_i>.

    ``f`` is called as f(t, x, y) with coordinate arrays.  The default
    quadrature (p+1 points per direction) is exact for loads that are
    polynomial per cell, which covers the box source whenever the mesh
    resolves the box; pass a higher ``quad_points`` for general smooth data.
    """
    h = space.mesh.h
    rule = gauss_legendre_1d(quad_points or (space.p + 1))
    xi, eta = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    w2 = np.outer(rule.weights, rule.weights).ravel()
    basis, _, _ = space.basis_tables(xi.ravel(), eta.ravel())   # (Q^2, n_loc)
    px, py = cell_quadrature_points(space.mesh, rule.nodes)     # cells in dof order
    fvals = np.asarray(f(t, px, py), dtype=float)
    if fvals.shape != px.shape:
        fvals = np.broadcast_to(fvals, px.shape)
    contrib = h * h * (fvals * w2[None, :]) @ basis     # (cells, n_loc)
    out = np.zeros(space.ndof)
    np.add.at(out, space.cell_dofs, contrib)
    return out


@dataclass
class BlockSystem:
    """Assembled spatial operators of one problem on one mesh."""

    space_u: ScalarSpace
    space_v: VectorSpace
    mu0: sparse.csr_matrix
    mu1: sparse.csr_matrix
    mu_unweighted: sparse.csr_matrix
    mv: sparse.csr_matrix
    b_div: sparse.csr_matrix
    b_grad: sparse.csr_matrix
    s0_cells: np.ndarray
    s1_cells: np.ndarray

    @property
    def ndof(self) -> int:
        return self.space_u.ndof + self.space_v.ndof

    def m0(self) -> sparse.csr_matrix:
        """blockdiag(Mu(s0), Mv)."""
        return sparse.block_diag([self.mu0, self.mv], format="csr")

    def m_unweighted(self) -> sparse.csr_matrix:
        """blockdiag(Mu(1), Mv): the plain L^2 Gram matrix of (u, v)."""
        return sparse.block_diag([self.mu_unweighted, self.mv], format="csr")

    def coupling(self) -> sparse.csr_matrix:
        """[[Mu(s1), B_div], [B_grad, 0]]."""
        return sparse.bmat([[self.mu1, self.b_div], [self.b_grad, None]], format="csr")

    def rows(self, rows_u, rows_v) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Rows (rows_u of the u block, then rows_v of the v block) of m0()
        and of coupling(), without assembling either whole matrix."""
        return (sparse.bmat([[self.mu0[rows_u], None], [None, self.mv[rows_v]]], format="csr"),
                sparse.bmat([[self.mu1[rows_u], self.b_div[rows_u]],
                             [self.b_grad[rows_v], None]], format="csr"))


def build_block_system(space_u: ScalarSpace, space_v: VectorSpace,
                       s0, s1) -> BlockSystem:
    """Assemble all operator blocks for a coefficient pair."""
    s0_cells = _coefficient_cells(space_u, s0)
    s1_cells = _coefficient_cells(space_u, s1)
    return BlockSystem(
        space_u=space_u,
        space_v=space_v,
        mu0=assemble_weighted_mass_u(space_u, s0_cells),
        mu1=assemble_weighted_mass_u(space_u, s1_cells),
        mu_unweighted=assemble_weighted_mass_u(space_u, 1.0),
        mv=assemble_mass_v(space_v),
        b_div=assemble_div_block(space_v, space_u),
        b_grad=assemble_grad_block(space_u, space_v),
        s0_cells=s0_cells,
        s1_cells=s1_cells,
    )

