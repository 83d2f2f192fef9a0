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

``BlockSystem`` holds each stacked matrix in one form, its element matrices
per kind of cell (``cell_matrices``): the coefficients are constant per
cell, so the checkerboard has two kinds and constant coefficients one.  The
sparse-LU path condenses the cell interiors and forms the jump flux from
them, and the Floquet-Bloch path groups cell 0's by cell offset into the
fibre symbols (``slab._symbol_terms``).  Every whole matrix is scattered by
``_scatter``: the ``assemble_*`` functions scatter one block each, and
``BlockSystem`` stacks those blocks on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from types import MappingProxyType

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


def _scatter(element: np.ndarray, row_space, col_space, cell_scale=1.0) -> sparse.csr_matrix:
    """Per-cell copies of an element matrix, scaled per cell, summed in cell
    order: sorted stably by (row, column), no row is left for SciPy to sort."""
    cells_r, cells_c = row_space.cell_dofs, col_space.cell_dofs
    data = np.multiply.outer(np.broadcast_to(cell_scale, len(cells_r)), element).ravel()
    rows = np.repeat(cells_r, cells_c.shape[1], axis=1).ravel()
    cols = np.tile(cells_c, (1, cells_r.shape[1])).ravel()
    order = np.argsort(rows * col_space.ndof + cols, kind="stable")
    return sparse.coo_matrix((data[order], (rows[order], cols[order])),
                             shape=(row_space.ndof, col_space.ndof)).tocsr()


@cache
def _lagrange_integrals(p: int) -> MappingProxyType:
    """1D integral matrices shared by all element matrices of degree p,
    computed once per degree and read-only."""
    rule = gauss_legendre_1d(p + 2)
    xq, wq = rule.nodes, rule.weights
    lagrange = Lagrange1D(gauss_lobatto_points(p))
    L = lagrange.values(xq)                  # (Q, p+1)
    dL = lagrange.derivatives(xq)
    # RT_{p-1} (``VectorSpace``): its normal basis G is Q_p's basis L, its
    # tangential basis E is Lagrange on the p Gauss points
    G, dG = L, dL
    E = Lagrange1D((np.polynomial.legendre.leggauss(p)[0] + 1.0) / 2.0).values(xq)  # (Q, p)
    out = {"m1": _sym((wq[:, None] * L).T @ L),
           "gnn": _sym((wq[:, None] * G).T @ G),
           "gee": _sym((wq[:, None] * E).T @ E),
           "gdl": (wq[:, None] * dG).T @ L,     # [a, alpha] = int G_a' L_alpha
           "gel": (wq[:, None] * E).T @ L,      # [b, beta]  = int E_b L_beta
           "lg": (wq[:, None] * dL).T @ G,      # [alpha, a] = int L_alpha' G_a
           "le": (wq[:, None] * L).T @ E}       # [beta, b]  = int L_beta E_b
    for matrix in out.values():
        matrix.flags.writeable = False
    return MappingProxyType(out)


def _sym(m):
    return (m + m.T) / 2.0


def _same_mesh(space_u: ScalarSpace, space_v: VectorSpace) -> None:
    if space_v.mesh is not space_u.mesh and space_v.mesh != space_u.mesh:
        raise ValueError("spaces must share one mesh")


# The element matrix of each block on one cell of width h, for degree p.

def _mass_u_element(p: int, h: float) -> np.ndarray:
    ints = _lagrange_integrals(p)
    return h**2 * np.kron(ints["m1"], ints["m1"])


def _mass_v_element(p: int, h: float) -> np.ndarray:
    comp = np.kron(_lagrange_integrals(p)["gnn"], _lagrange_integrals(p)["gee"])
    return h**2 * np.block([[comp, np.zeros_like(comp)], [np.zeros_like(comp), comp]])


def _div_element(p: int, h: float) -> np.ndarray:
    ints = _lagrange_integrals(p)
    de_x = h * np.einsum("aA,bB->BAab", ints["gdl"], ints["gel"])
    de_y = h * np.einsum("aA,bB->BAba", ints["gel"], ints["gdl"])
    return np.concatenate([de_x.reshape((p + 1) ** 2, -1), de_y.reshape((p + 1) ** 2, -1)], axis=1)


def _grad_element(p: int, h: float) -> np.ndarray:
    ints = _lagrange_integrals(p)
    ge_x = h * np.einsum("Aa,Bb->abBA", ints["lg"], ints["le"])
    ge_y = h * np.einsum("Aa,Bb->baBA", ints["le"], ints["lg"])
    return np.concatenate([ge_x.reshape(-1, (p + 1) ** 2), ge_y.reshape(-1, (p + 1) ** 2)], axis=0)


def assemble_weighted_mass_u(space: ScalarSpace, s) -> sparse.csr_matrix:
    """Mass matrix with entries int s(x) phi_i phi_j dx, exact for cellwise s."""
    return _scatter(_mass_u_element(space.p, space.mesh.h), space, space,
                    _coefficient_cells(space, s))


def assemble_mass_v(space: VectorSpace) -> sparse.csr_matrix:
    """RT mass matrix, entries int psi_i . psi_j dx."""
    return _scatter(_mass_v_element(space.p, space.mesh.h), space, space)


def assemble_div_block(space_v: VectorSpace, space_u: ScalarSpace) -> sparse.csr_matrix:
    """Coupling block with entries <div psi_j, phi_i>, shape (dim_u, dim_v)."""
    _same_mesh(space_u, space_v)
    return _scatter(_div_element(space_u.p, space_u.mesh.h), space_u, space_v)


def assemble_grad_block(space_u: ScalarSpace, space_v: VectorSpace) -> sparse.csr_matrix:
    """Coupling block with entries <grad phi_j, psi_i>, shape (dim_v, dim_u)."""
    _same_mesh(space_u, space_v)
    return _scatter(_grad_element(space_u.p, space_u.mesh.h), space_v, space_u)


def assemble_load(space: ScalarSpace, f, t: float, quad_points: int | None = None) -> np.ndarray:
    """Load vector with entries <f(t, .), phi_i>.

    ``f`` is called as f(t, x, y) with coordinate arrays and integrated by
    ``quad_points`` Gauss points per direction and cell (default p+1),
    exact when f is, on each cell, a polynomial of degree
    2 quad_points - 1 - p per axis, as the box source is on meshes that
    resolve the box.
    ``slab.run`` integrates every source by p+2 points.
    """
    h = space.mesh.h
    rule = gauss_legendre_1d(quad_points or (space.p + 1))
    xi, eta = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    w2 = np.outer(rule.weights, rule.weights).ravel()
    basis, = space.basis_values(xi.ravel(), eta.ravel())        # (Q^2, n_loc)
    px, py = cell_quadrature_points(space.mesh, rule.nodes)     # cells in dof order
    fvals = np.asarray(f(t, px, py), dtype=float)
    if fvals.shape != px.shape:
        fvals = np.broadcast_to(fvals, px.shape)
    contrib = h * h * (fvals * w2[None, :]) @ basis     # (cells, n_loc)
    out = np.zeros(space.ndof)
    np.add.at(out, space.cell_dofs, contrib)
    return out


# the blocks of each stacked matrix: (element matrix, per-cell coefficient or
# None for weight 1, row space, column space), space 0 = u, 1 = v
_STACKED = {"m0": ((_mass_u_element, "s0_cells", 0, 0), (_mass_v_element, None, 1, 1)),
            "m_unweighted": ((_mass_u_element, None, 0, 0), (_mass_v_element, None, 1, 1)),
            "coupling": ((_mass_u_element, "s1_cells", 0, 0), (_div_element, None, 0, 1),
                         (_grad_element, None, 1, 0))}


@dataclass
class BlockSystem:
    """The spatial operators of one problem on one mesh, in one form.

    Each stacked matrix ("m0", "m_unweighted" or "coupling") is given by
    ``cell_matrices``, its element matrices per kind of cell; ``m0()``,
    ``m_unweighted()`` and ``coupling()`` stack its blocks, each scattered
    over all cells by ``_scatter``, on first use and cache the result.
    """

    space_u: ScalarSpace
    space_v: VectorSpace
    s0_cells: np.ndarray
    s1_cells: np.ndarray
    _assembled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def ndof(self) -> int:
        return self.space_u.ndof + self.space_v.ndof

    @cached_property
    def _kinds(self) -> tuple[np.ndarray, np.ndarray]:
        # the first cell of each kind and each cell's kind
        _, first, kind = np.unique(np.stack([self.s0_cells, self.s1_cells], axis=1), axis=0,
                                   return_index=True, return_inverse=True)
        return first, kind.reshape(-1)

    @property
    def n_kinds(self) -> int:
        """Kinds of cell (equal s0 and s1): 1 if constant, 2 for the checkerboard."""
        return len(self._kinds[0])

    def cell_dofs(self) -> np.ndarray:
        """Stacked DOFs of each cell's local basis, shape
        (n^2, (p+1)^2 + 2p(p+1)) in cell order: the u ``cell_dofs``, then the
        v ``cell_dofs`` shifted by ndof_u."""
        su, sv = self.space_u, self.space_v
        return np.concatenate([su.cell_dofs, su.ndof + sv.cell_dofs], axis=1)

    def cell_matrices(self, matrix: str) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's kind, shape (n^2,), and the element matrices of
        ``matrix`` per kind on the local DOFs of ``cell_dofs()``, shape
        (``n_kinds``, n_loc, n_loc); nothing is assembled.  Scattering
        ``matrices[kind[c]]`` at ``cell_dofs()[c]`` over all cells c sums to
        the whole matrix."""
        first, kind = self._kinds
        n_u = self.space_u.n_loc
        n_loc = n_u + self.space_v.n_loc
        out = np.zeros((len(first), n_loc, n_loc))
        for element_of, coefficient, row_space, col_space in _STACKED[matrix]:
            element = element_of(self.space_u.p, self.space_u.mesh.h)
            scale = getattr(self, coefficient)[first] if coefficient else np.ones(len(first))
            slots = np.s_[row_space * n_u:row_space * n_u + element.shape[0],
                          col_space * n_u:col_space * n_u + element.shape[1]]
            out[:, slots[0], slots[1]] += np.multiply.outer(scale, element)
        return kind, out

    def _assemble(self, matrix: str) -> sparse.csr_matrix:
        """``matrix`` stacked from its blocks, each scattered over all cells."""
        spaces = (self.space_u, self.space_v)
        grid = [[None, None], [None, None]]
        for element_of, coefficient, row_space, col_space in _STACKED[matrix]:
            grid[row_space][col_space] = _scatter(
                element_of(self.space_u.p, self.space_u.mesh.h), spaces[row_space],
                spaces[col_space], getattr(self, coefficient) if coefficient else 1.0)
        return sparse.bmat(grid, format="csr")

    def _matrix(self, matrix: str) -> sparse.csr_matrix:
        if matrix not in self._assembled:
            self._assembled[matrix] = self._assemble(matrix)
        return self._assembled[matrix]

    def m0(self) -> sparse.csr_matrix:
        """blockdiag(Mu(s0), Mv)."""
        return self._matrix("m0")

    def m_unweighted(self) -> sparse.csr_matrix:
        """blockdiag(Mu(1), Mv): the plain L^2 Gram matrix of (u, v)."""
        return self._matrix("m_unweighted")

    def coupling(self) -> sparse.csr_matrix:
        """[[Mu(s1), B_div], [B_grad, 0]]."""
        return self._matrix("coupling")


def build_block_system(space_u: ScalarSpace, space_v: VectorSpace,
                       s0, s1) -> BlockSystem:
    """The operator blocks for a coefficient pair; the coefficients are
    checked here, the blocks assembled on first use."""
    _same_mesh(space_u, space_v)
    return BlockSystem(space_u=space_u, space_v=space_v,
                       s0_cells=_coefficient_cells(space_u, s0),
                       s1_cells=_coefficient_cells(space_u, s1))
