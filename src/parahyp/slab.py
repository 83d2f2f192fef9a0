"""Discontinuous-Galerkin-in-time slab iteration.

On each time slab the discrete state is a degree-q polynomial with FE
coefficients, represented by its values at the q+1 weighted Gauss-Radau
nodes (the right slab endpoint is always a node).  Testing against the same
basis and applying the weighted Radau rule turns one slab into the block
linear system

    sum_i K[j,i] M0 U_i + w_j C U_j = w_j F_j + l_j(0) M0 U_prev

with K[j,i] = w_j l_i'(s_j) + l_i(0) l_j(0), C = M1 + A, and U_prev the
previous slab's right trace (or the initial state on the first slab).  The
quadrature is exact for all products of slab polynomials, and testing with
the nodal Lagrange basis makes the temporal mass matrix diagonal.

The slab matrix is identical for every slab, so it is factorised once, by
diagonalising the small temporal coupling matrix K / w = V diag(lam) V^-1
(Richter, Springer & Vexler, Numer. Math. 124, 2013): the (q+1)-fold block
system splits into one spatial system lam M0 + C per eigenvalue.  The
solutions of a complex conjugate pair are conjugate, so both spatial solvers
step by one eigenbasis row per real eigenvalue or pair and recombine the
nodal coefficients as Re(w @ y) (``_temporal_eigenbasis``).  With constant
coefficients each spatial system is block-circulant over the mesh cells
and splits into its n^2 Floquet-Bloch fibres (2-D FFT over the cells).
Each fibre eliminates its flux unknowns through the invertible RT mass
symbol, which leaves a p^2 x p^2 Schur complement per row in place of the
3p^2 x 3p^2 fibre system.  For a separable source the iteration then stays
in fibre space from slab to slab: the eliminated fibre operators and loads
are built once, each slab is two small batched matvecs per row, and only
the stored coefficients are transformed back.  For other coefficients or
loads the checkerboard's point group, the reflections (x, y) -> (y, x) and
(x, y) -> (1-x, 1-y), which commutes with the operators, splits the run
into one independent run per character that the start or the loads reach:
one for the study's symmetric data.  Each runs on one representative value
per orbit of the group, condenses out the DOFs inside the cells of the free
orbits through small dense solves per kind of cell on one representative
cell each, and factorises the remaining quarter-size skeleton block by
sparse LU (``_SpluSteps``).  Both paths read the operators as element
matrices per kind of cell and assemble no global matrix, and the path
follows from the inputs alone.  The temporal eigenbasis is a precondition:
a slab whose eigenbasis fails its conditioning check is refused with a
``ValueError`` before anything is assembled.  That happens only for long
slabs under a strong weight: never for q = 0 (up to rho tau = 100), and
on and off from rho tau of about 12 for q = 1, from 11 for q = 2 (all but
once), 8.5 for q = 3 and 4, and 6.5-7.5 for q = 5-7; every q <= 7 passes
below rho tau = 6.5.  Shorter slabs or a lower q pass the check.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .assembly import BlockSystem, assemble_load, build_block_system
from .coefficients import ProblemData, SeparableSource
from .mesh import build_mesh
from .quadrature import weighted_gauss_radau
from .spaces import FieldPair, Lagrange1D, ScalarSpace, VectorSpace


class SlabBasis:
    """Lagrange time basis at the weighted Radau nodes of one slab, and the
    temporal coupling K[j, i] = w_j l_i'(s_j) + l_i(0) l_j(0)."""

    def __init__(self, q: int, rho: float, tau: float):
        rule = weighted_gauss_radau(q, rho, tau)
        self.q = q
        self.rho = rho
        self.tau = tau
        self.nodes = rule.nodes                    # in (0, tau], last = tau
        self.weights = rule.weights
        self.lagrange = Lagrange1D(self.nodes)
        self.left_values = self.lagrange.values(np.array([0.0]))[0]
        self.deriv_at_nodes = self.lagrange.derivatives(self.nodes)  # [j, i] = l_i'(s_j)
        self.K = self.weights[:, None] * self.deriv_at_nodes \
            + np.outer(self.left_values, self.left_values)

    def values_at(self, s: float) -> np.ndarray:
        return self.lagrange.values(np.array([float(s)]))[0]

    def node_times(self, m: int) -> np.ndarray:
        """The times m tau + s_j of slab m's nodes, the last exactly (m + 1) tau."""
        times = m * self.tau + self.nodes
        times[-1] = (m + 1) * self.tau
        return times


# the slab matrices have symmetric sparsity structure (masses plus the
# B_div/B_grad transpose pair), where SuperLU's symmetric mode gives an
# order-of-magnitude less fill than the default column ordering
_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                     options=dict(SymmetricMode=True))


def _factor(matrix):
    try:
        return spla.splu(matrix, **_SPLU_OPTIONS)
    except RuntimeError as err:
        raise RuntimeError("slab matrix factorisation failed (singular or "
                           f"ill-posed data): {err}") from err


@dataclass(frozen=True)
class _Eigenbasis:
    """One row r per real eigenvalue or conjugate pair of K / w: ``lam[r]``
    (imaginary part >= 0), row r of V^-1 (``vinv``), the jump weight
    ``beta = vinv (l(0) / w)`` and the recombination weights ``w``, the
    columns of V with a pair's column doubled, so that the nodal
    coefficients of a slab are Re(w @ y) for the row solutions y."""

    lam: np.ndarray
    vinv: np.ndarray
    beta: np.ndarray
    w: np.ndarray
    meta: dict


def _temporal_eigenbasis(basis: SlabBasis) -> _Eigenbasis:
    """Diagonalise K / w = V diag(lam) V^-1.  For a real matrix LAPACK returns
    real eigenvalues with real vectors and complex ones as adjacent, exactly
    conjugate pairs, the member with positive imaginary part first; the
    partner's solution is the conjugate of its row's, so only rows with
    ``lam.imag >= 0`` are kept.  A basis whose kept rows reproduce the
    identity only to more than 1e-8 is refused with a ``ValueError`` that
    names q and rho tau (see the module docstring for where).  Passing is
    not accuracy: just below the q = 2 band (rho tau 9-13, n = 2, p = 1)
    the solution differs from one LU of the whole slab by 2.6e-9 to 1.3e-8
    relative; the a-posteriori slab residual of ROADMAP item 4 would catch it."""
    lam, vmat = np.linalg.eig(basis.K / basis.weights[:, None])
    vinv = np.linalg.inv(vmat)
    # a real eigenvalue's row of V^-1 is real up to the rounding of inv
    real = lam.imag == 0
    vinv[real] = vinv[real].real
    keep = lam.imag >= 0
    vinv = vinv[keep]
    w = vmat[:, keep] * np.where(lam[keep].imag > 0, 2.0, 1.0)
    # the identity as the kept rows reproduce it, V V^-1 with every pair's
    # second row taken as the conjugate of its first
    resid = np.abs((w @ vinv).real - np.eye(len(lam))).max()
    if not np.isfinite(resid) or resid > 1e-8:
        raise ValueError(f"the temporal eigenbasis of q={basis.q} slabs at rho*tau="
                         f"{basis.rho * basis.tau:g} is too ill-conditioned (residual "
                         f"{resid:.2e} > 1e-8); use shorter slabs or a lower q")
    return _Eigenbasis(lam=lam[keep], vinv=vinv,
                       beta=vinv @ (basis.left_values / basis.weights), w=w,
                       meta={"eigenbasis_residual": float(resid),
                             "eigenbasis_cond": float(np.linalg.cond(vmat))})


def _recombine(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re(w @ y) for complex eigenbasis rows y (rows, ...), flattened to
    (len(w), -1), in real arithmetic: [Re w, -Im w] @ [Re y; Im y]."""
    rows = len(y)
    w_parts = np.stack([w.real, -w.imag], axis=2).reshape(len(w), -1)
    parts = y.reshape(rows, -1).view(float).reshape(rows, -1, 2)
    return w_parts @ parts.transpose(0, 2, 1).reshape(2 * rows, -1)


def _interior_slots(cell_dofs: np.ndarray) -> np.ndarray:
    """The local slots whose DOF occurs in no other cell and at no other
    slot, in every cell: (p-1)^2 Q_p nodes and 2p(p-1) RT_{p-1} values of
    ``BlockSystem.cell_dofs()``, none for p = 1."""
    count = np.bincount(cell_dofs.ravel())
    return np.flatnonzero((count[cell_dofs] == 1).all(axis=0))


def _owned_slots(cell_dofs: np.ndarray) -> np.ndarray:
    """The slots, the same in every cell, at which a cell owns its DOFs: a
    DOF belongs to the cell where it sits at its lowest slot.  Of
    ``BlockSystem.cell_dofs()`` these are 3p^2 slots: the Q_p nodes a, b < p
    and the RT_{p-1} values inside the cell and on its left and bottom edges."""
    lowest = np.empty(cell_dofs.max() + 1, dtype=np.int64)
    for slot in reversed(range(cell_dofs.shape[1])):
        lowest[cell_dofs[:, slot]] = slot
    return np.flatnonzero(lowest[cell_dofs[0]] == np.arange(cell_dofs.shape[1]))


_POINT_GROUP = ("s: (x, y) -> (y, x)", "r: (x, y) -> (1-x, 1-y)")


def _cell_images(n: int) -> np.ndarray:
    """Each cell's images under e, s, r and sr, shape (4, n^2): cell (i, j) =
    j n + i maps to (j, i) under s and to (n-1-i, n-1-j) under r."""
    cells = np.arange(n * n).reshape(n, n)
    return np.stack([cells, cells.T, cells[::-1, ::-1], cells.T[::-1, ::-1]]).reshape(4, -1)


def _point_group(blocks: BlockSystem) -> list[tuple[np.ndarray, np.ndarray]]:
    """The generators s and r of the checkerboard's point group G = {e, s, r,
    sr} (``_POINT_GROUP``) as signed permutations T_g of the stacked DOFs,
    each a pair (source, sign) with (T_g x)[d] = sign[d] x[source[d]]: the
    coefficients of (u o g, J_g v o g).  Both are involutions and commute,
    and M0 and C commute with them because the cell coefficients are
    invariant under both cell maps, which is checked exactly: a
    ``ValueError`` names the map that is not a symmetry.

    The action is combinatorial: T_g maps ``cell_dofs()[c, l]`` to
    sigma_g(l) ``cell_dofs()[g(c), pi_g(l)]`` for the cell maps g of
    ``_cell_images``.  On the local slots, s transposes the Q_p node grid
    (slot b (p+1) + a) and swaps the RT x and y blocks, whose slots at equal
    offsets hold mirrored points; r reverses the Q_p slots and each RT block
    and negates the RT values."""
    n, p = blocks.space_u.mesh.n, blocks.space_u.p
    n_u, n_c = (p + 1) ** 2, p * (p + 1)
    images, u, v = _cell_images(n), np.arange(n_u), np.arange(2 * n_c)
    # (cell map, slot map, slot signs) of s and of r
    s = (images[1], np.concatenate([u.reshape(p + 1, p + 1).T.ravel(), n_u + np.roll(v, n_c)]),
         1.0)
    r = (images[2], np.concatenate([u[::-1], n_u + v.reshape(2, n_c)[:, ::-1].ravel()]),
         np.concatenate([np.ones(n_u), -np.ones(2 * n_c)]))
    dofs = blocks.cell_dofs()
    group = []
    for name, (cell_map, slot_map, slot_sign) in zip(_POINT_GROUP, (s, r)):
        for coefficient in ("s0_cells", "s1_cells"):
            values = getattr(blocks, coefficient)
            if not np.array_equal(values[cell_map], values):
                raise ValueError(f"the {coefficient[:2]} cell values are not invariant under "
                                 f"{name}; the sparse-LU rows need the checkerboard's symmetry")
        source = np.empty(blocks.ndof, dtype=np.int64)
        sign = np.empty(blocks.ndof)
        source[dofs] = dofs[cell_map][:, slot_map]
        sign[dofs] = slot_sign
        group.append((source, sign))
    return group


# the characters (chi(s), chi(r)) of G, the trivial one first
_CHARACTERS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _symmetry_bases(group, key: np.ndarray) -> list[SimpleNamespace]:
    """For each character chi in ``_CHARACTERS``, the vectors x with T_g x =
    chi(g) x for all g in G, the range of P_chi = sum_g chi(g) T_g / 4, as
    x = E_chi u: u holds x at one representative DOF per orbit, the image of
    least ``key``, and DOF d holds ``coef[d] u[index[d]]`` with ``coef`` in
    {1, -1}, or 0 on an orbit that some g fixes with chi(g) sign = -1, which
    chi forces to zero.  The orbits are numbered in the order of their
    representatives' keys, ``size`` of them, and ``counts`` holds the DOFs
    per orbit, so that P_chi x = E_chi (E_chi^T x / counts) (``_orbit_sums``)."""
    ndof = len(key)
    (src_s, sign_s), (src_r, sign_r) = group
    # the images of each DOF under e, s, r and sr = s r
    src = np.stack([np.arange(ndof), src_s, src_r, src_r[src_s]])
    sign = np.stack([np.ones(ndof), sign_s, sign_r, sign_s * sign_r[src_s]])
    rep = np.take_along_axis(src, key[src].argmin(axis=0)[None], axis=0)[0]
    # the elements that map d onto its representative agree on chi(g) sign,
    # or cancel exactly
    onto_rep = sign * (src == rep)
    order = np.argsort(key)
    bases = []
    for c_s, c_r in _CHARACTERS:
        coef = np.sign(np.array([1.0, c_s, c_r, c_s * c_r]) @ onto_rep)
        alive = order[((rep == np.arange(ndof)) & (coef != 0))[order]]
        size = len(alive)
        number = np.zeros(ndof, dtype=np.int64)
        number[alive] = np.arange(size)
        index = number[rep]
        bases.append(SimpleNamespace(index=index, coef=coef, size=size,
                                     counts=np.bincount(index, np.abs(coef), size)[:size]))
    return bases


def _orbit_sums(ch: SimpleNamespace, data: np.ndarray) -> np.ndarray:
    """E_chi^T data, the signed orbit sums along the last axis, (..., size)."""
    rows = data.reshape(-1, data.shape[-1])
    sums = [np.bincount(ch.index, ch.coef * row, ch.size)[:ch.size] for row in rows]
    return np.reshape(sums, (*data.shape[:-1], ch.size))


class _SpluSteps:
    """Decoupled slab steps with sparse LUs per eigenbasis row r (real for a
    real eigenvalue) and character of the checkerboard's point group, of the
    skeleton system left once cell interiors are condensed out of A_r =
    lam_r M0 + C.  Slab m solves

        y_r = A_r^-1 (vinv_r F + beta_r M0 p)

    for the loads F at its nodes and the previous right trace p, and its
    nodal coefficients are Re(w @ y).

    The operators commute with G = {e, s, r, sr} (``_point_group``, checked
    on the cell coefficients), so P_chi A_r^-1 = A_r^-1 P_chi for each of the
    four characters chi, and a run is the sum of four independent runs on
    the components P_chi x0 and P_chi F of its inputs.  Each runs on the
    representative values u of x = E_chi u (``_symmetry_bases``): its state,
    the jump and the solution are such u, its right-hand sides the orbit sums
    E_chi^T f, and A_r becomes E_chi^T A_r E_chi.  A character joins the run
    at the first input that reaches it, a component |P_chi x| above 1e-12 of
    |x| of the start x0, of the separable load's spatial vector (once) or of
    a slab's loads (general sources), and starts from a zero state, which is
    exact since characters never mix; ``meta["symmetry_dropped"]`` records
    the largest component left out, relative to its input.  Data invariant
    under G (the study's checkerboards, constants, box source and zero
    start) run the trivial character alone, and ``meta["symmetry_blocks"]``
    counts the characters run.

    A cell's images under G are 4 cells, or 2 (or 1, the centre of odd n)
    on the two diagonals, which s or sr fixes.  Since T_g maps cell c's
    element terms onto cell g(c)'s, E^T A E is the sum over one
    representative cell per orbit of its element term, weighted by the
    orbit's size: all per-cell work runs on the representatives.  The
    interior slots I of a free orbit's cells (``_interior_slots``) belong to
    one cell and couple only to its local DOFs, so they are condensed out
    per kind of cell (``BlockSystem.cell_matrices``): with W = A_II^-1 A_IB,
    the skeleton block B = E^T S E sums 4 (A_BB - A_BI W) over the free
    representatives and the whole element matrix over the diagonal ones,
    whose interiors stay on the skeleton.  For orbit sums f a solve is

        g = A_II^-1 f_I / 4,   u_S = B^-1 (f_S - P A_BI A_II^-1 f_I),   u_I = g - W u_B,

    from one GEMM per kind, where P sums the representatives' B slots into
    the skeleton orbits.  The jump E^T M0 E p is formed per representative
    too, on the nonzero blocks of its element only: the u block of each kind
    with s0 != 0 and the two RT component blocks.  A character's folds and
    blocks are built, and its blocks factorised, when it joins; no global
    matrix is assembled.  A stored slab is expanded by one signed gather per
    character, straight into the natural DOF order.  For p = 1 no slot is
    interior.
    """

    # an input's component below this fraction of its norm does not start
    # its character
    _ACTIVE = 1e-12

    def __init__(self, blocks: BlockSystem, eig: _Eigenbasis,
                 spatial_load: np.ndarray | None = None):
        self._eig, self._spatial, self._load = eig, spatial_load, {}
        group = _point_group(blocks)
        n, ndof = blocks.space_u.mesh.n, blocks.ndof
        kind, m0_cells = blocks.cell_matrices("m0")
        _, c_cells = blocks.cell_matrices("coupling")
        cell_dofs = blocks.cell_dofs()
        inner = _interior_slots(cell_dofs)
        outer = np.setdiff1d(np.arange(cell_dofs.shape[1]), inner)
        # an orbit of cells is represented by its least cell, free orbits
        # first, by kind
        images = _cell_images(n)
        orbit = 1 + np.count_nonzero(np.diff(np.sort(images, axis=0), axis=0), axis=0)
        reps = np.flatnonzero(images.min(axis=0) == images[0])
        reps = reps[np.lexsort((kind[reps], orbit[reps] < 4))]
        free = np.flatnonzero(orbit == 4)
        free = free[np.argsort(kind[free], kind="stable")]
        self._n_free, self._n_i = len(free) // 4, len(inner)
        # the free cells' interiors are numbered after every other DOF, so each
        # character lists them last, (representative, slot) in the order of reps
        key = np.arange(ndof)
        key[cell_dofs[free][:, inner]] = ndof + np.arange(free.size * len(inner)).reshape(
            len(free), len(inner))
        self._chars = _symmetry_bases(group, key)
        self._rep_dofs, self._rep_kind, self._weight = cell_dofs[reps], kind[reps], orbit[reps]
        # (representatives, skeleton slots) of the free and the diagonal orbits
        self._groups = ((slice(0, self._n_free), outer),
                        (slice(self._n_free, None), np.arange(cell_dofs.shape[1])))

        def by_kind(start, part):
            bounds = start + np.searchsorted(kind[part], np.arange(len(m0_cells) + 1))
            return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]

        self._kinds = by_kind(0, reps[:self._n_free])
        fixed = by_kind(self._n_free, reps[self._n_free:])
        # M0's nonzero diagonal blocks as (representatives, local slots, right
        # factor): Mu(s0) per kind where s0 != 0, and the RT x and y blocks of
        # Mv, which carries no coefficient
        n_u, n_c = blocks.space_u.n_loc, blocks.space_v.n_loc // 2
        u, v_x, v_y = slice(0, n_u), slice(n_u, n_u + n_c), slice(n_u + n_c, n_u + 2 * n_c)
        self._m0_blocks = [(group[k], u, m0_cells[k, u, u].T) for group in (self._kinds, fixed)
                           for k in range(len(m0_cells)) if m0_cells[k, u, u].any()]
        self._m0_blocks += [(slice(None), v, m0_cells[0, v, v].T) for v in (v_x, v_y)]
        self.skeleton_dofs = ndof - free.size * len(inner)
        self.meta = {"solver": "decoupled", "spatial_solver": "splu",
                     "skeleton_dofs": self.skeleton_dofs, "symmetry_blocks": 0,
                     "symmetry_dropped": 0.0, **eig.meta}
        self._rows = []
        for r, lam in enumerate(eig.lam):
            real = lam.imag == 0
            a = (float(lam.real) if real else complex(lam)) * m0_cells + c_cells
            a_ii_inv = np.linalg.inv(a[:, inner[:, None], inner])
            a_bi = a[:, outer[:, None], inner]
            w = a_ii_inv @ a[:, inner[:, None], outer]
            schur = a[:, outer[:, None], outer] - a_bi @ w
            # right factors: f_I @ left = [g, A_BI A_II^-1 f_I], x_B @ w^T = W x_B;
            # the interior right-hand sides are orbit sums over four cells
            left = np.concatenate([a_ii_inv / 4, a_bi @ a_ii_inv], axis=1).transpose(0, 2, 1)
            vinv, beta = (eig.vinv[r].real, eig.beta[r].real) if real \
                else (eig.vinv[r], eig.beta[r])
            self._rows.append((vinv, beta, left, w.transpose(0, 2, 1), (schur, a)))

    def _reach(self, data: np.ndarray, active) -> dict:
        """The orbit sums E_chi^T data (..., size) of the characters in
        ``active`` and of those that ``data`` (..., ndof) reaches."""
        norm = np.linalg.norm(data)
        sums = {}
        for chi, ch in enumerate(self._chars):
            part = _orbit_sums(ch, data)
            reached = np.linalg.norm(part / np.sqrt(ch.counts))       # |P_chi data|
            if chi in active or reached > self._ACTIVE * norm:
                sums[chi] = part
            elif reached:
                self.meta["symmetry_dropped"] = max(self.meta["symmetry_dropped"], reached / norm)
        return sums

    def _join(self, state: dict, reached) -> dict:
        """``state`` with each character of ``reached`` that it lacks started
        at zero: its folds built and its blocks factorised."""
        for chi in sorted(set(reached) - state.keys()):
            ch = self._chars[chi]
            ch.local = index, coef = ch.index[self._rep_dofs], ch.coef[self._rep_dofs]
            ch.jump_fold = sparse.csr_matrix(((self._weight[:, None] * coef).ravel(),
                                              (index.ravel(), np.arange(index.size))),
                                             shape=(ch.size, index.size))
            outer = self._groups[0][1]
            ch.skeleton = ch.size - self._n_free * self._n_i
            ch.boundary = index[:self._n_free, outer], coef[:self._n_free, outer]
            width = self._n_i + len(outer)
            cols = np.arange(self._n_free)[:, None] * width + self._n_i + np.arange(len(outer))
            ch.fold = sparse.csr_matrix((ch.boundary[1].ravel(), (ch.boundary[0].ravel(),
                                                                  cols.ravel())),
                                        shape=(ch.skeleton, self._n_free * width))
            for fold in (ch.jump_fold, ch.fold):
                fold.eliminate_zeros()
            ch.lus = [self._block(ch, matrices) for *_, matrices in self._rows]
            self.meta["symmetry_blocks"] += 1
            state[chi] = np.zeros(ch.size)
        return state

    def _block(self, ch, matrices):
        """The LU of B = E^T S E, scattered from the representatives' Schur
        blocks (free orbits) and element matrices (diagonal ones), each
        weighted by its orbit's size.  A DOF that the character forces to
        zero scatters zeros onto row and column 0, which are dropped with
        the exact zeros of S."""
        rows, cols, vals = [], [], []
        for (cells, slots), matrix in zip(self._groups, matrices):
            index, coef = (part[cells][:, slots] for part in ch.local)
            scale = self._weight[cells, None, None] * coef[:, :, None] * coef[:, None, :]
            vals.append((matrix[self._rep_kind[cells]] * scale).ravel())
            rows.append(np.repeat(index, len(slots), axis=1).ravel())
            cols.append(np.tile(index, (1, len(slots))).ravel())
        entries = np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))
        block = sparse.csc_matrix(entries, shape=(ch.skeleton,) * 2)
        block.eliminate_zeros()
        return _factor(block)

    def initial_state(self, x0: np.ndarray) -> dict:
        """The representative values of each character that x0 reaches, and
        zero for those that only the separable load reaches."""
        start = self._reach(x0, ())
        if self._spatial is not None:
            self._load = self._reach(self._spatial, start)
        state = self._join({}, start.keys() | self._load.keys())
        for chi, sums in start.items():
            state[chi] = sums / self._chars[chi].counts
        return state

    def _solve(self, ch, lu, left: np.ndarray, w: np.ndarray, f: np.ndarray) -> np.ndarray:
        """(E^T A_r E)^-1 f for orbit sums f, from row r's factors."""
        n_s = ch.skeleton
        f_i = f[n_s:].reshape(self._n_free, self._n_i)
        g = np.empty((self._n_free, left.shape[2]), dtype=f.dtype)
        for k, cells in enumerate(self._kinds):
            np.matmul(f_i[cells], left[k], out=g[cells])
        x = np.empty_like(f)
        x[:n_s] = lu.solve(f[:n_s] - ch.fold @ g.ravel())
        x_i = x[n_s:].reshape(self._n_free, self._n_i)
        x_b = ch.boundary[1] * np.take(x[:n_s], ch.boundary[0])
        for k, cells in enumerate(self._kinds):
            np.matmul(x_b[cells], w[k], out=x_i[cells])
        np.subtract(g[:, :self._n_i], x_i, out=x_i)
        return x

    def _jump(self, ch, prev: np.ndarray) -> np.ndarray:
        """E^T M0 E prev: M0 on each representative's local values, on the
        element's nonzero blocks, summed into the orbits by weight."""
        index, coef = ch.local
        x = coef * np.take(prev, index)
        y = np.zeros_like(x)
        for cells, slots, m0 in self._m0_blocks:
            np.matmul(x[cells, slots], m0, out=y[cells, slots])
        return ch.jump_fold @ y.ravel()

    def step(self, state: dict, loads, m: int, out: np.ndarray) -> dict:
        if self._spatial is None:
            load = self._reach(loads(m), state)
            state = self._join(dict(state), load)
        else:
            factors = loads.factors(m)
            load = {chi: np.multiply.outer(factors, sums) for chi, sums in self._load.items()}
        new = {}
        for chi in sorted(state):
            ch = self._chars[chi]
            jump = self._jump(ch, state[chi])
            y = np.empty((len(self._rows), ch.size), dtype=complex)
            for r, (vinv, beta, left, w, _) in enumerate(self._rows):
                f = beta * jump
                if chi in load:
                    f = f + vinv @ load[chi]
                y[r] = self._solve(ch, ch.lus[r], left, w, f)
            coeffs = _recombine(self._eig.w, y)
            new[chi] = coeffs[-1]
            if len(new) == 1:
                np.multiply(np.take(coeffs, ch.index, axis=1, out=out), ch.coef, out=out)
            else:
                out += ch.coef * np.take(coeffs, ch.index, axis=1)
        if not new:
            out[:] = 0.0
        return new


def _symbol_terms(blocks: BlockSystem, matrix: str,
                  slot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fibre symbols of ``m0()`` or ``coupling()`` for constant
    coefficients as a product: row k of ``phases @ offset_blocks`` is the
    row-major 3p^2 x 3p^2 symbol of fibre k = ky n + kx, at theta =
    2 pi (kx, ky) / n, on the owned DOFs (``_owned_slots``): ``slot`` maps
    each stacked DOF to its owner's cell-major slot c 3p^2 + l.  Raises a
    ``ValueError`` for more than one kind of cell.

    Every cell adds cell 0's element entries (``cell_matrices``),
    translated, so the DOFs that cell 0 owns couple to those that cell
    d = j n + i owns through one block: the sum of cell 0's entries whose
    column's owner lies (i, j) cells from its row's owner, mod n per axis
    (the periodic wrap).  The phases of a self-conjugate fibre (theta_x,
    theta_y in {0, pi}) are exactly +-1, so its symbol is real."""
    if blocks.n_kinds > 1:
        raise ValueError(f"the fibre symbols need constant coefficients; these blocks "
                         f"have {blocks.n_kinds} kinds of cell")
    n = blocks.space_u.mesh.n
    n_own = blocks.ndof // (n * n)
    cell, local = np.divmod(slot, n_own)
    dofs = blocks.cell_dofs()[0]
    rows, cols = np.repeat(dofs, len(dofs)), np.tile(dofs, len(dofs))
    offsets, which = np.unique((cell[cols] // n - cell[rows] // n) % n * n
                               + (cell[cols] - cell[rows]) % n, return_inverse=True)
    offset_blocks = np.zeros((len(offsets), n_own * n_own))
    np.add.at(offset_blocks, (which, local[rows] * n_own + local[cols]),
              blocks.cell_matrices(matrix)[1][0].ravel())
    theta = 2.0 * np.pi * np.arange(n) / n
    # cell d = j n + i sits at (i, j)
    phases = np.exp(1j * (theta[:, None, None] * (offsets // n)
                          + theta[None, :, None] * (offsets % n)))
    zero_or_pi = 2 * np.arange(n) % n == 0
    real = np.ix_(zero_or_pi, zero_or_pi)
    phases[real] = phases[real].real
    return phases.reshape(n * n, -1), offset_blocks


class _BlochFibres:
    """Decoupled slab steps in fibre space: constant coefficients, separable source.

    Each cell owns 3p^2 DOFs (``_owned_slots``) and both spaces wrap modulo
    n, so with constant coefficients M0 and C are block-circulant in the
    cell-major order of the owned DOFs: cell offset d couples through one
    3p^2 x 3p^2 block.  The 2-D DFT over the cell grid splits them into n^2
    dense fibre symbols, grouped by offset from cell 0's element matrices
    (``_symbol_terms``), so this path builds no global matrix.  A fibre
    holds p^2 u-unknowns, then 2p^2 flux unknowns v:

        M0^ = [[M_u, 0], [0, M_v]],   C^ = [[C_uu, C_uv], [C_vu, 0]],

    where M_v, the RT mass symbol, is Hermitian and invertible, and
    C_uv = -C_vu^H (B_div = -B_grad^T).  The eigenvalue lam_i (never 0) of
    each row of ``_temporal_eigenbasis`` gives A_i = lam_i M0^ + C^, solved
    by eliminating v through K = M_v^-1 C_vu (once per fibre, independent of
    lam_i) and the p^2 x p^2 Schur complement
    S_i = lam_i M_u + C_uu - C_uv K / lam_i:

        A_i^-1 [f_u; f_v] = [y_u; (M_v^-1 f_v - K y_u) / lam_i],
        y_u = S_i^-1 (f_u + K^H f_v / lam_i),

    using -C_uv M_v^-1 = K^H.  The jump term G_i p^ = beta_i A_i^-1 M0^ p^,
    with beta_i = V^-1[i] (l(0) / w), needs no M_v^-1:

        G_i p^ = [z; (beta_i p^_v - K z) / lam_i],
        z = X_i p^,   X_i = beta_i S_i^-1 [M_u, -C_uv / lam_i].

    The separable source's spatial load L^, transformed once, has no flux
    part, so its response is A_i^-1 [L^_u; 0] = [h_i; -K h_i / lam_i] with
    h_i = S_i^-1 L^_u.  The factorisation stores X_i, K and h_i (5p^4 + p^2
    numbers per fibre for one eigenvalue, against 9p^4 for a dense G_i).
    The operators are real, so every symbol at -theta is the conjugate of
    the one at theta: the symbols, K and C_uv K are formed on the half zone
    f <= flip(f) only and conjugated onto the partner fibres.  X_i and h_i
    are then formed on every fibre alike, one inversion of S per fibre and
    row.  With alpha_i = V^-1[i] f(t_nodes of m), slab m is

        y^_u = X_i p^ + alpha_i h_i,   y^_v = (beta_i p^_v - K y^_u) / lam_i,

    two batched small matvecs per eigenbasis row, where p^ is the previous
    right trace in fibre space: the time-basis change commutes with the
    FFT.  The next p^ is formed in fibre space too, since a conjugate
    partner's fibre at theta is conj(y^(-theta)), an index flip.  Only the
    stored coefficients go back to cells, by two in-place 1-D inverse FFTs
    over the cell axes of the step's own y^ plus a scatter; no transform
    runs forward per slab and no sparse matvec.
    """

    # half-zone fibres per batch while building the operators, bounding the
    # temporaries: a batch forms them on up to twice as many fibres
    _CHUNK = 128

    def __init__(self, blocks: BlockSystem, eig: _Eigenbasis, spatial_load: np.ndarray):
        self.meta = {"solver": "decoupled", "spatial_solver": "bloch", **eig.meta}
        n = blocks.space_u.mesh.n
        cell_dofs = blocks.cell_dofs()
        owned = cell_dofs[:, _owned_slots(cell_dofs)]
        n_own = owned.shape[1]
        n_u = n_own // 3
        self._n, self._n_u, self._perm = n, n_u, owned.ravel()
        self._order = np.empty_like(self._perm)   # stacked DOF -> cell-major slot
        self._order[self._perm] = np.arange(self._perm.size)
        (m0_phase, m0_d), (c_phase, c_d) = (_symbol_terms(blocks, "m0", self._order),
                                            _symbol_terms(blocks, "coupling", self._order))
        fibre = np.arange(n)
        self._flip = ((-fibre[:, None] % n) * n + (-fibre[None, :] % n)).ravel()
        self._lam, self._vinv, self._beta, self._w = eig.lam, eig.vinv, eig.beta, eig.w
        # the right trace Re(z), z = sum_r w[-1, r] y_r, has fibres (z^ + conj z^(-theta)) / 2
        self._w_last = eig.w[-1] / 2.0
        rows, n_fib = len(eig.lam), n * n
        self._x = np.empty((rows, n_fib, n_u, n_own), dtype=complex)
        self._k = np.empty((n_fib, n_own - n_u, n_u), dtype=complex)
        self._h = np.empty((rows, n_fib, n_u), dtype=complex)
        l_u = self.to_fibres(spatial_load)[:, :n_u, None]
        u, v = slice(None, n_u), slice(n_u, None)
        half = np.flatnonzero(np.arange(n_fib) <= self._flip)
        for start in range(0, len(half), self._CHUNK):
            f = half[start:start + self._CHUNK]
            pair = self._flip[f] != f
            fibres = np.concatenate([f, self._flip[f[pair]]])
            m0_hat = (m0_phase[f] @ m0_d).reshape(-1, n_own, n_own)
            c_hat = (c_phase[f] @ c_d).reshape(-1, n_own, n_own)
            k = np.linalg.solve(m0_hat[:, v, v], c_hat[:, v, u])
            # values at f, then their conjugates at the partner fibres
            m_u, c_uu, c_uv, k, c_uv_k = (np.concatenate([a, a[pair].conj()]) for a in (
                m0_hat[:, u, u], c_hat[:, u, u], c_hat[:, u, v], k, c_hat[:, u, v] @ k))
            self._k[fibres] = k
            for r, lam in enumerate(self._lam):
                s_inv = np.linalg.inv(lam * m_u + c_uu - c_uv_k / lam)
                x = s_inv @ np.concatenate([m_u, -c_uv / lam], axis=2)
                self._x[r, fibres] = self._beta[r] * x
                self._h[r, fibres] = (s_inv @ l_u[fibres])[..., 0]

    def to_fibres(self, vec: np.ndarray) -> np.ndarray:
        """The fibres (n^2, 3p^2) of stacked vectors (..., ndof)."""
        n = self._n
        cells = vec[..., self._perm].astype(complex).reshape(*vec.shape[:-1], n, n, -1)
        np.fft.fft(cells, axis=-3, out=cells)
        np.fft.fft(cells, axis=-2, out=cells)
        return cells.reshape(*vec.shape[:-1], n * n, -1)

    def initial_state(self, x0: np.ndarray) -> np.ndarray:
        return self.to_fibres(x0)

    def row_solutions(self, prev_hat: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """alpha_i A_i^-1 L^ + G_i p^ for every eigenbasis row i, shape (rows, n^2, 3p^2)."""
        y_u = self._x @ prev_hat[:, :, None]
        y_u[..., 0] += alpha[:, None, None] * self._h
        y_v = self._k @ y_u
        y_v[..., 0] -= self._beta[:, None, None] * prev_hat[:, self._n_u:]
        y_v /= -self._lam[:, None, None, None]
        return np.concatenate([y_u, y_v], axis=2)[..., 0]

    def step(self, prev_hat: np.ndarray, loads, m: int, out: np.ndarray) -> np.ndarray:
        y = self.row_solutions(prev_hat, self._vinv @ loads.factors(m))
        trace = np.tensordot(self._w_last, y, 1)
        # y is this step's own array: back to cells in place, one cell axis at a time
        cells = y.reshape(len(y), self._n, self._n, -1)
        np.fft.ifft(cells, axis=1, out=cells)
        np.fft.ifft(cells, axis=2, out=cells)
        np.take(_recombine(self._w, cells), self._order, axis=1, out=out)
        partner = np.take(trace, self._flip, axis=0)
        np.conjugate(partner, out=partner)
        partner += trace
        return partner


def _make_factorisation(blocks: BlockSystem, eig: _Eigenbasis, loads):
    """The slab factorisation, decoupled through the temporal eigenbasis
    ``eig``: translation-invariant blocks with a separable load
    (``loads.spatial``) step in fibre space, all others by condensed sparse
    LUs.  Each factorisation keeps its own ``meta``: the path taken, the
    eigenbasis diagnostics, and for the sparse LUs the skeleton size and the
    symmetry blocks factorised so far, which the slabs add to as they reach
    them."""
    if loads.spatial is not None and blocks.n_kinds == 1:
        return _BlochFibres(blocks, eig, loads.spatial)
    return _SpluSteps(blocks, eig, loads.spatial)


def solve_slab(factorisation, state, loads, m: int, out: np.ndarray):
    """One slab solve: writes slab ``m``'s nodal coefficients, shape
    (q+1, ndof), into ``out`` and returns the state the next slab couples
    to (the right trace, in the factorisation's own representation)."""
    return factorisation.step(state, loads, m, out)


def slab_count(T: float, tau: float) -> int | None:
    """T / tau if T is a positive integer multiple of tau (to 1e-9 relative), else None."""
    n_slabs = int(round(T / tau))
    return n_slabs if n_slabs >= 1 and abs(n_slabs * tau - T) <= 1e-9 * max(T, 1.0) else None


@dataclass
class DiscreteSolution:
    """Per-slab nodal trajectories of one space-time solve.

    ``initial_state`` is the datum x0 the first slab was coupled to (zero
    when not given) and the left limit at t = 0; the trajectory lives on
    (0, T] (its value at 0+ is the first left trace, which differs from x0
    by the first jump).  ``rho`` must be the weight of ``basis``.
    """

    space_u: ScalarSpace
    space_v: VectorSpace
    basis: SlabBasis
    coeffs: np.ndarray          # (M, q+1, ndof_u + ndof_v)
    rho: float
    meta: dict = field(default_factory=dict)
    initial_state: np.ndarray | None = None

    def __post_init__(self):
        if self.rho != self.basis.rho:
            raise ValueError(f"rho={self.rho!r} differs from the slab basis's "
                             f"rho={self.basis.rho!r}")
        if self.initial_state is None:
            self.initial_state = np.zeros(self.coeffs.shape[2])

    @property
    def n_slabs(self) -> int:
        return self.coeffs.shape[0]

    @property
    def tau(self) -> float:
        return self.basis.tau

    @property
    def T(self) -> float:
        return self.n_slabs * self.basis.tau

    @property
    def ndof_u(self) -> int:
        return self.space_u.ndof

    def _check_slab(self, m: int):
        if not 0 <= m < self.n_slabs:
            raise IndexError(f"slab index {m} out of range [0, {self.n_slabs})")

    def right_trace(self, m: int) -> FieldPair:
        self._check_slab(m)
        return FieldPair.split(self.coeffs[m, -1], self.ndof_u)

    def final_trace(self) -> FieldPair:
        return self.right_trace(self.n_slabs - 1)

    def coefficients_at(self, t: float, side: str = "-") -> np.ndarray:
        """Coefficient vector at time t; ``side`` picks the one-sided limit
        at slab boundaries ('-' from below, '+' from above).  The left limit
        at t = 0 is the datum x0."""
        if side not in ("-", "+"):
            raise ValueError(f"side must be '-' or '+', got {side!r}")
        if not -1e-12 <= t <= self.T + 1e-12:
            raise ValueError(f"time {t} outside [0, {self.T}]")
        r = t / self.tau
        nearest = int(round(r))
        if abs(r - nearest) < 1e-9:
            if side == "+":
                if nearest >= self.n_slabs:
                    raise ValueError(f"right-sided limit undefined at final time {t}")
                return self.basis.left_values @ self.coeffs[nearest]
            return (self.coeffs[nearest - 1, -1] if nearest else self.initial_state).copy()
        m = min(int(r), self.n_slabs - 1)
        local = t - m * self.tau
        return self.basis.values_at(local) @ self.coeffs[m]


class _Loads:
    """The load vectors <F(t), Phi> of each slab at its nodes, (q+1, ndof).

    The source is integrated by p+2 Gauss points per direction and cell,
    separable or not (``assemble_load``).  For a separable source
    ``spatial`` is its stacked load vector, assembled once, and
    ``factors(m)`` the time factor at slab m's nodes, which both solver
    paths read in place of the loads of a slab; otherwise ``spatial`` is
    None.  ``forcing`` (M, q+1, ndof) gives the right-hand side through its
    coefficients in the discrete space instead.
    """

    def __init__(self, blocks: BlockSystem, basis: SlabBasis, source, forcing=None):
        self._blocks, self._basis = blocks, basis
        self._source, self._quad_points = source, blocks.space_u.p + 2
        self._forcing = forcing
        self._mass = blocks.m_unweighted() if forcing is not None else None
        self.spatial = None
        if forcing is None and isinstance(source, SeparableSource):
            self.spatial = np.zeros(blocks.ndof)
            self.spatial[:blocks.space_u.ndof] = assemble_load(
                blocks.space_u, lambda t, x, y: source.spatial(x, y), 0.0, self._quad_points)

    def factors(self, m: int) -> np.ndarray:
        return np.array([self._source.time_factor(float(t)) for t in self._basis.node_times(m)])

    def __call__(self, m: int) -> np.ndarray:
        if self._forcing is not None:
            return (self._mass @ self._forcing[m].T).T
        ndof_u = self._blocks.space_u.ndof
        loads = np.zeros((self._basis.q + 1, self._blocks.ndof))
        for idx, t in enumerate(self._basis.node_times(m)):
            loads[idx, :ndof_u] = assemble_load(self._blocks.space_u, self._source,
                                                float(t), self._quad_points)
        return loads


def run(problem: ProblemData, n: int, p: int, q: int, tau: float,
        x0: FieldPair | None = None, *,
        discrete_forcing: np.ndarray | None = None) -> DiscreteSolution:
    """Solve the evolutionary problem on [0, T] with M = T/tau uniform slabs.

    The run builds its own mesh, spaces and operator blocks, and integrates
    the problem source by p+2 Gauss points per direction and cell: exact for
    sources that are polynomials of degree p+3 per axis on each cell, and
    so for the study's box source on meshes that resolve the box.
    ``discrete_forcing`` (shape (M, q+1, ndof_u + ndof_v)) replaces the
    problem source by a right-hand side given through its coefficients in
    the discrete space; this is how vector-valued or random discrete data is
    fed in.  ``x0`` defaults to rest.  The solver path follows from the
    inputs alone.  The solution's ``meta`` holds the run's parameters and
    the factorisation's own ``meta``, read once the last slab is done, and
    ``meta["solver"]`` is ``"decoupled"``: the temporal eigenbasis is a
    precondition, and slabs whose eigenbasis fails its conditioning check
    (long slabs under a strong weight: for q >= 1 from rho tau of about 12
    to 6.5, falling with q, see the module docstring) are refused with a
    ``ValueError`` that names q and rho tau, before the mesh and blocks are
    built.  ``meta["spatial_solver"]`` is ``"bloch"`` (constant
    coefficients, separable source) or ``"splu"`` and ``meta`` carries the
    temporal eigenbasis residual ``|V V^-1 - I|_max`` and ``cond(V)``.  Both
    spatial solvers step by one eigenbasis row per real temporal eigenvalue
    or conjugate pair.  The ``splu`` path is a sum of independent runs, one
    per character of the checkerboard's point group that x0 or the loads
    reach, each on one representative value per orbit:
    ``meta["symmetry_blocks"]`` counts them (1 for data invariant under the
    group, such as every study problem) and ``meta["symmetry_dropped"]``
    gives the largest input component below 1e-12 of its input's norm that
    was left out.  The interior unknowns of the cells off the two diagonals
    are condensed out, ``meta["skeleton_dofs"]`` counts the unknowns left,
    and each slab is one sparse triangular solve per character and row plus
    small dense products on one cell per orbit (see ``_SpluSteps``).  Its
    cell coefficients must be invariant under the group, or a
    ``ValueError`` is raised.  On the ``bloch``
    path the state stays in Floquet-Bloch fibre space from slab to slab.
    Each fibre's flux unknowns are eliminated once and the load enters the
    u block alone, so each slab is a p^2 x 3p^2 and a 2p^2 x p^2 batched
    fibre matvec per row plus two in-place 1-D inverse FFTs for the stored
    coefficients; the fibre symbols are built on half the Brillouin zone
    and conjugated onto the other half, and the eliminated operators are
    formed on every fibre (see ``_BlochFibres``).

    Both paths read the operators as element matrices per kind of cell and
    assemble no global matrix; only ``discrete_forcing`` assembles a whole
    matrix, the unweighted mass.
    """
    T = problem.T
    if (n_slabs := slab_count(T, tau)) is None:
        raise ValueError(f"final time {T} is not an integer multiple of tau={tau}")
    basis = SlabBasis(q, problem.rho, tau)
    eig = _temporal_eigenbasis(basis)
    mesh = build_mesh(n)
    blocks = build_block_system(ScalarSpace(mesh, p), VectorSpace(mesh, p),
                                problem.s0, problem.s1)
    ndof = blocks.ndof
    if discrete_forcing is not None and np.shape(discrete_forcing) != (n_slabs, q + 1, ndof):
        raise ValueError(f"discrete_forcing has shape {np.shape(discrete_forcing)}, "
                         f"expected (n_slabs, q+1, ndof) = {(n_slabs, q + 1, ndof)}")
    initial = np.zeros(ndof) if x0 is None else x0.concat()
    if initial.shape != (ndof,):
        raise ValueError(f"initial state has {initial.shape[0]} coefficients, expected {ndof}")
    loads = _Loads(blocks, basis, problem.source, discrete_forcing)
    fact = _make_factorisation(blocks, eig, loads)
    state = fact.initial_state(initial)
    coeffs = np.empty((n_slabs, q + 1, ndof))
    for m in range(n_slabs):
        state = solve_slab(fact, state, loads, m, coeffs[m])
    return DiscreteSolution(space_u=blocks.space_u, space_v=blocks.space_v,
                            basis=basis, coeffs=coeffs, rho=problem.rho,
                            meta={"n": n, "p": p, "q": q, "tau": tau,
                                  "T": T, "rho": problem.rho, **fact.meta},
                            initial_state=initial)


@contextmanager
def atomic_open(path):
    """Open a temporary binary file beside ``path`` and move it onto ``path``
    once the block completes, so a killed writer never leaves a partial file
    under the final name.  On an exception the temporary file is removed."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


_MAGIC = b"parahyp-checkpoint\n"
_OLD_TEXT_MAGIC = b"parahyp-solution 1\n"
_FORMAT_VERSION = 2
_ALIGN = 64
_FLOAT = np.dtype("<f8")


def save_solution(sol: DiscreteSolution, path) -> None:
    """Checkpoint a solution as one binary file.

    Layout: the magic line ``parahyp-checkpoint``, one line of JSON (format
    version, ``slabs``, ``ndof_u``, ``ndof_v`` and ``meta``) space-padded so
    that the data start at a multiple of 64 bytes, then little-endian
    float64 data: the initial state followed by ``coeffs`` in C order.
    """
    header = json.dumps({"format": _FORMAT_VERSION, "slabs": sol.n_slabs,
                         "ndof_u": sol.space_u.ndof, "ndof_v": sol.space_v.ndof,
                         "meta": sol.meta}).encode()
    used = len(_MAGIC) + len(header) + 1
    header += b" " * (-used % _ALIGN) + b"\n"
    with atomic_open(path) as fh:
        fh.write(_MAGIC + header)
        np.asarray(sol.initial_state, dtype=_FLOAT).tofile(fh)
        np.asarray(sol.coeffs, dtype=_FLOAT).tofile(fh)


def load_solution(path) -> DiscreteSolution:
    """Reopen a checkpoint written by save_solution.

    The coefficients are a read-only memory map of the file: bit-exact and
    not copied.  A file of another format version, or whose size does not
    match its header (a truncated write), is refused.
    """
    with open(path, "rb") as fh:
        magic = fh.readline(_ALIGN)
        if magic == _OLD_TEXT_MAGIC:
            raise ValueError(f"{path}: old text checkpoint (parahyp-solution 1); "
                             "delete it and re-solve")
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a solution checkpoint (header {magic!r})")
        try:
            header = json.loads(fh.readline())
            version, meta = header["format"], header["meta"]
            ndof_u, ndof_v = header["ndof_u"], header["ndof_v"]
            shape = (header["slabs"], meta["q"] + 1, ndof_u + ndof_v)
            n, p, rho, tau = meta["n"], meta["p"], meta["rho"], meta["tau"]
        except (ValueError, KeyError, TypeError) as err:
            raise ValueError(f"{path}: malformed checkpoint header ({err!r})") from None
        if version != _FORMAT_VERSION:
            raise ValueError(f"{path}: checkpoint format version {version!r}, "
                             f"expected {_FORMAT_VERSION}")
        offset = fh.tell()
        state_bytes = _FLOAT.itemsize * shape[2]
        expected = offset + state_bytes * (1 + shape[0] * shape[1])
        actual = os.fstat(fh.fileno()).st_size
        if actual != expected:
            raise ValueError(f"{path}: checkpoint holds {actual} bytes, its header "
                             f"describes {expected}; truncated or corrupt, re-solve it")
        x0 = np.frombuffer(fh.read(state_bytes), dtype=_FLOAT).astype(float)
    mesh = build_mesh(n)
    space_u = ScalarSpace(mesh, p)
    space_v = VectorSpace(mesh, p)
    if (space_u.ndof, space_v.ndof) != (ndof_u, ndof_v):
        raise ValueError(f"{path}: checkpoint dimensions do not match its metadata")
    coeffs = np.memmap(path, dtype=_FLOAT, mode="r", shape=shape,
                       offset=offset + state_bytes)
    return DiscreteSolution(space_u=space_u, space_v=space_v,
                            basis=SlabBasis(meta["q"], rho, tau),
                            coeffs=coeffs, rho=rho, meta=meta,
                            initial_state=x0)
