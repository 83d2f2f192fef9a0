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

``BlockSystem`` assembles each whole block on first use only.  Its
``stencil`` sums cell 0's element matrices into the cell-offset blocks of
M0 or C, which is all the Floquet-Bloch path needs: with constant
coefficients those blocks are the fibre symbols' Fourier coefficients, so
that path assembles no global matrix.  Its ``cell_matrices`` gives the
element matrices of M0 or C per kind of cell, from which the sparse-LU
path condenses the cell interiors without assembling C.
"""

from __future__ import annotations

from dataclasses import dataclass
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


# Each block is described once, as the arguments of ``_scatter``: its element
# matrix, the row and column cell_dofs, the per-cell scale and the shape.

def _mass_u_parts(space: ScalarSpace, cells: np.ndarray):
    ints = _lagrange_integrals(space.p)
    element = space.mesh.h**2 * np.kron(ints["m1"], ints["m1"])
    return element, space.cell_dofs, space.cell_dofs, cells, (space.ndof, space.ndof)


def _mass_v_parts(space: VectorSpace):
    ints = _lagrange_integrals(space.p)
    comp = np.kron(ints["gnn"], ints["gee"])
    element = space.mesh.h**2 * np.block(
        [[comp, np.zeros_like(comp)], [np.zeros_like(comp), comp]])
    return (element, space.cell_dofs, space.cell_dofs, np.ones(space.mesh.n_cells),
            (space.ndof, space.ndof))


def _div_parts(space_u: ScalarSpace, space_v: VectorSpace):
    ints = _lagrange_integrals(space_u.p)
    h = space_u.mesh.h
    de_x = h * np.einsum("aA,bB->BAab", ints["gdl"], ints["gel"])
    de_y = h * np.einsum("aA,bB->BAba", ints["gel"], ints["gdl"])
    n_u = (space_u.p + 1) ** 2
    element = np.concatenate([de_x.reshape(n_u, -1), de_y.reshape(n_u, -1)], axis=1)
    return (element, space_u.cell_dofs, space_v.cell_dofs, np.ones(space_u.mesh.n_cells),
            (space_u.ndof, space_v.ndof))


def _grad_parts(space_u: ScalarSpace, space_v: VectorSpace):
    ints = _lagrange_integrals(space_u.p)
    h = space_u.mesh.h
    ge_x = h * np.einsum("Aa,Bb->abBA", ints["lg"], ints["le"])
    ge_y = h * np.einsum("Aa,Bb->baBA", ints["le"], ints["lg"])
    n_u = (space_u.p + 1) ** 2
    element = np.concatenate([ge_x.reshape(-1, n_u), ge_y.reshape(-1, n_u)], axis=0)
    return (element, space_v.cell_dofs, space_u.cell_dofs, np.ones(space_u.mesh.n_cells),
            (space_v.ndof, space_u.ndof))


def assemble_weighted_mass_u(space: ScalarSpace, s) -> sparse.csr_matrix:
    """Mass matrix with entries int s(x) phi_i phi_j dx, exact for cellwise s."""
    return _scatter(*_mass_u_parts(space, _coefficient_cells(space, s)))


def assemble_mass_v(space: VectorSpace) -> sparse.csr_matrix:
    """RT mass matrix, entries int psi_i . psi_j dx."""
    return _scatter(*_mass_v_parts(space))


def assemble_div_block(space_v: VectorSpace, space_u: ScalarSpace) -> sparse.csr_matrix:
    """Coupling block with entries <div psi_j, phi_i>, shape (dim_u, dim_v)."""
    _same_mesh(space_u, space_v)
    return _scatter(*_div_parts(space_u, space_v))


def assemble_grad_block(space_u: ScalarSpace, space_v: VectorSpace) -> sparse.csr_matrix:
    """Coupling block with entries <grad phi_j, psi_i>, shape (dim_v, dim_u)."""
    _same_mesh(space_u, space_v)
    return _scatter(*_grad_parts(space_u, space_v))


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


# the blocks of m0() and coupling(): (name, row space, column space), 0 = u, 1 = v
_STACKED = {"m0": (("mu0", 0, 0), ("mv", 1, 1)),
            "coupling": (("mu1", 0, 0), ("b_div", 0, 1), ("b_grad", 1, 0))}


@dataclass
class BlockSystem:
    """The spatial operators of one problem on one mesh, assembled on demand.

    Each whole block is assembled on first access and then cached under its
    name: ``mu0`` = Mu(s0), ``mu1`` = Mu(s1), ``mu_unweighted`` = Mu(1),
    ``mv``, ``b_div`` and ``b_grad``.  ``stencil`` assembles none of them.
    """

    space_u: ScalarSpace
    space_v: VectorSpace
    s0_cells: np.ndarray
    s1_cells: np.ndarray

    mu0 = cached_property(lambda self: self._whole("mu0"))
    mu1 = cached_property(lambda self: self._whole("mu1"))
    mu_unweighted = cached_property(lambda self: self._whole("mu_unweighted"))
    mv = cached_property(lambda self: self._whole("mv"))
    b_div = cached_property(lambda self: self._whole("b_div"))
    b_grad = cached_property(lambda self: self._whole("b_grad"))

    @property
    def ndof(self) -> int:
        return self.space_u.ndof + self.space_v.ndof

    def _parts(self, name: str):
        su, sv = self.space_u, self.space_v
        if name == "mv":
            return _mass_v_parts(sv)
        if name == "b_div":
            return _div_parts(su, sv)
        if name == "b_grad":
            return _grad_parts(su, sv)
        cells = {"mu0": self.s0_cells, "mu1": self.s1_cells,
                 "mu_unweighted": np.ones(su.mesh.n_cells)}[name]
        return _mass_u_parts(su, cells)

    def _whole(self, name: str) -> sparse.csr_matrix:
        return _scatter(*self._parts(name))

    @cached_property
    def _owned(self) -> np.ndarray:
        su, sv = self.space_u, self.space_v
        owned = np.concatenate([su.owned_dofs(), su.ndof + sv.owned_dofs()], axis=1)
        owned.flags.writeable = False
        return owned

    def owned_dofs(self) -> np.ndarray:
        """Stacked DOFs each cell owns, shape (n^2, 3p^2) in cell order: its
        u DOFs, then its v DOFs (shifted by ndof_u).  Built once, read-only."""
        return self._owned

    def cell_dofs(self) -> np.ndarray:
        """Stacked DOFs of each cell's local basis, shape
        (n^2, (p+1)^2 + 2p(p+1)) in cell order: the u ``cell_dofs``, then the
        v ``cell_dofs`` shifted by ndof_u."""
        su, sv = self.space_u, self.space_v
        return np.concatenate([su.cell_dofs, su.ndof + sv.cell_dofs], axis=1)

    def cell_matrices(self, matrix: str) -> tuple[np.ndarray, np.ndarray]:
        """The element matrices of ``m0()`` or ``coupling()`` on the local
        DOFs of ``cell_dofs()``, one per cell kind; nothing is assembled.

        Cells with equal (s0, s1) values are of one kind, so the checkerboard
        has two kinds and constant coefficients one.  Returns each cell's
        kind, shape (n^2,), and the kinds' matrices, shape (kinds, n_loc,
        n_loc); scattering ``matrices[kind[c]]`` at ``cell_dofs()[c]`` over
        all cells c sums to the whole matrix.
        """
        pairs = np.stack([self.s0_cells, self.s1_cells], axis=1)
        _, first, kind = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
        start = (0, self.space_u.n_loc)
        n_loc = self.space_u.n_loc + self.space_v.n_loc
        out = np.zeros((len(first), n_loc, n_loc))
        for name, row_space, col_space in _STACKED[matrix]:
            element, _, _, scale, _ = self._parts(name)
            rows, cols = start[row_space], start[col_space]
            out[:, rows:rows + element.shape[0], cols:cols + element.shape[1]] \
                += np.multiply.outer(scale[first], element)
        return kind.reshape(-1), out

    def stencil(self, matrix: str) -> tuple[np.ndarray, np.ndarray]:
        """The cell-offset blocks of ``m0()`` or ``coupling()`` (``matrix`` =
        "m0" or "coupling") for constant coefficients, from cell 0's element
        matrices; nothing is assembled or cached.

        Every cell adds cell 0's element entries, translated, so the DOFs
        that cell 0 owns couple to those that cell d = j n + i owns through
        one block: the sum of cell 0's entries whose column's owner lies
        (i, j) cells from its row's owner, mod n per axis (the periodic
        wrap).  Returns the offsets d that occur, increasing, and their
        row-major blocks in the order of ``owned_dofs()``, shape
        (len(d), (3p^2)^2).
        """
        n = self.space_u.mesh.n
        owned = self.owned_dofs()
        n_own = owned.shape[1]
        slot = np.empty(self.ndof, dtype=np.int64)      # stacked DOF -> cell-major slot
        slot[owned.ravel()] = np.arange(self.ndof)
        cell, local = np.divmod(slot, n_own)
        shift = (0, self.space_u.ndof)
        offsets, indices, values = [], [], []
        for name, row_space, col_space in _STACKED[matrix]:
            element, row_dofs, col_dofs, scale, _ = self._parts(name)
            rows = shift[row_space] + row_dofs[0][:, None]
            cols = shift[col_space] + col_dofs[0][None, :]
            row_cell, col_cell = cell[rows], cell[cols]
            offsets.append(((col_cell // n - row_cell // n) % n * n
                            + (col_cell - row_cell) % n).ravel())
            indices.append((local[rows] * n_own + local[cols]).ravel())
            values.append((scale[0] * element).ravel())
        offsets, which = np.unique(np.concatenate(offsets), return_inverse=True)
        blocks = np.zeros((len(offsets), n_own * n_own))
        np.add.at(blocks, (which, np.concatenate(indices)), np.concatenate(values))
        return offsets, blocks

    def m0(self) -> sparse.csr_matrix:
        """blockdiag(Mu(s0), Mv)."""
        return sparse.block_diag([self.mu0, self.mv], format="csr")

    def m_unweighted(self) -> sparse.csr_matrix:
        """blockdiag(Mu(1), Mv): the plain L^2 Gram matrix of (u, v)."""
        return sparse.block_diag([self.mu_unweighted, self.mv], format="csr")

    def coupling(self) -> sparse.csr_matrix:
        """[[Mu(s1), B_div], [B_grad, 0]]."""
        return sparse.bmat([[self.mu1, self.b_div], [self.b_grad, None]], format="csr")


def build_block_system(space_u: ScalarSpace, space_v: VectorSpace,
                       s0, s1) -> BlockSystem:
    """The operator blocks for a coefficient pair; the coefficients are
    checked here, the blocks assembled on first use."""
    _same_mesh(space_u, space_v)
    return BlockSystem(space_u=space_u, space_v=space_v,
                       s0_cells=_coefficient_cells(space_u, s0),
                       s1_cells=_coefficient_cells(space_u, s1))
