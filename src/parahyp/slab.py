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
3p^2 x 3p^2 fibre system.  The iteration then stays in fibre space from
slab to slab: the eliminated fibre operators are built once, each slab is
two small batched matvecs per row, and only the stored coefficients are
transformed back.  Otherwise each row's spatial system gets a sparse LU and
the slabs are solved on stacked coefficient vectors (``_SpluSteps``).  A
direct LU of the full block system is the fallback when the temporal
eigenbasis fails its conditioning check.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .assembly import BlockSystem, _coefficient_cells, assemble_load, build_block_system
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


def _slab_matrix(basis: SlabBasis, m0, coupling) -> sparse.csr_matrix:
    return (sparse.kron(sparse.csr_matrix(basis.K), m0)
            + sparse.kron(sparse.diags(basis.weights), coupling)).tocsr()


def build_slab_system(blocks: BlockSystem, basis: SlabBasis) -> sparse.csr_matrix:
    """The full slab matrix kron(K, M0) + kron(diag(w), M1 + A)."""
    return _slab_matrix(basis, blocks.m0(), blocks.coupling())


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


class _DirectFactorisation:
    """One LU of the full (q+1)-fold slab matrix.  Each slab solves for the
    weighted load plus the jump flux l(0) M0 U_prev; the state handed from
    slab to slab is the right trace itself."""

    def __init__(self, blocks: BlockSystem, basis: SlabBasis):
        self._basis = basis
        self.m0 = blocks.m0()
        self._lu = _factor(_slab_matrix(basis, self.m0, blocks.coupling()).tocsc())

    def initial_state(self, x0: np.ndarray) -> np.ndarray:
        return x0

    def step(self, prev: np.ndarray, loads, m: int, out: np.ndarray) -> np.ndarray:
        rhs = self._basis.weights[:, None] * loads(m)
        rhs += np.outer(self._basis.left_values, self.m0 @ prev)
        out[:] = self._lu.solve(rhs.ravel()).reshape(out.shape)
        return out[-1]


class _EigenbasisError(RuntimeError):
    """The temporal coupling matrix has no usable eigenbasis."""


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
    ``lam.imag >= 0`` are kept."""
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
        raise _EigenbasisError("temporal eigenbasis too ill-conditioned "
                               f"(residual {resid:.2e}); use the direct solver")
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


class _SpluSteps:
    """Decoupled slab steps with one sparse LU of lam_r M0 + C per eigenbasis
    row r (real for a real eigenvalue).  Slab m solves

        y_r = (lam_r M0 + C)^-1 (vinv_r F + beta_r M0 p)

    for the loads F at its nodes and the previous right trace p, and its
    nodal coefficients are Re(w @ y)."""

    def __init__(self, blocks: BlockSystem, eig: _Eigenbasis):
        self._eig = eig
        m0 = blocks.m0().tocsc()
        coupling = blocks.coupling().tocsc()
        self._lus = [_factor((float(lam.real) if lam.imag == 0 else complex(lam)) * m0
                             + coupling) for lam in eig.lam]
        # the jump flux's CSR copy, made once the factorisations are done
        self.m0 = m0.tocsr()

    def initial_state(self, x0: np.ndarray) -> np.ndarray:
        return x0

    def step(self, prev: np.ndarray, loads, m: int, out: np.ndarray) -> np.ndarray:
        eig = self._eig
        rhs = eig.vinv @ loads(m) + np.outer(eig.beta, self.m0 @ prev)
        y = np.empty(rhs.shape, dtype=complex)
        for r, lu in enumerate(self._lus):
            y[r] = lu.solve(rhs[r].real if eig.lam[r].imag == 0 else rhs[r])
        out[:] = _recombine(eig.w, y)
        return out[-1]


def _symbol_terms(blocks: BlockSystem, matrix: str) -> tuple[np.ndarray, np.ndarray]:
    """The fibre symbols of ``m0()`` or ``coupling()`` for constant
    coefficients as a product: row k of ``phases @ offset_blocks`` is the
    row-major 3p^2 x 3p^2 symbol of fibre k = ky n + kx, at theta =
    2 pi (kx, ky) / n, in the order of ``blocks.owned_dofs()``."""
    n = blocks.space_u.mesh.n
    theta = 2.0 * np.pi * np.arange(n) / n
    # cell d = j n + i sits at (i, j)
    offsets, offset_blocks = blocks.stencil(matrix)
    phases = np.exp(1j * (theta[:, None, None] * (offsets // n)
                          + theta[None, :, None] * (offsets % n)))
    return phases.reshape(n * n, -1), offset_blocks


class _BlochFibres:
    """Decoupled slab steps for translation-invariant blocks, in fibre space.

    Both spaces own 3p^2 DOFs per cell and wrap modulo n, so with constant
    coefficients M0 and C are block-circulant in cell-major order: cell
    offset d couples through one 3p^2 x 3p^2 block.  The 2-D DFT over the
    cell grid (``fft2`` of the cell-major gather) splits them into n^2 dense
    fibre symbols, read from cell 0's element matrices (``_symbol_terms``),
    so this path builds no global matrix.  A fibre holds p^2 u-unknowns,
    then 2p^2 flux unknowns v:

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

    The factorisation stores X_i and K (5p^4 numbers per fibre for one
    eigenvalue, against 9p^4 for a dense G_i) and, for a separable source,
    H_i = A_i^-1 L^ (its spatial load, transformed once); other loads keep
    S_i^-1 and M_v^-1.  Slab m is then

        y^_i = alpha_i H_i + G_i p^,   alpha_i = V^-1[i] f(t_nodes of m),

    two batched small matvecs per eigenbasis row, where p^ is the previous
    right trace in fibre space: the time-basis change commutes with the
    FFT.  The next p^ is formed in fibre space too, since a conjugate
    partner's fibre at theta is conj(y^(-theta)), an index flip.  Only the
    stored coefficients need an ``ifft2`` and a scatter; there is no
    per-slab ``fft2`` and no sparse matvec.
    """

    # fibres per batch while building the operators, bounding the temporaries
    _CHUNK = 128

    def __init__(self, blocks: BlockSystem, eig: _Eigenbasis, loads):
        n = blocks.space_u.mesh.n
        perm = blocks.owned_dofs()
        n_own = perm.shape[1]
        n_u = n_own // 3
        (m0_phase, m0_d), (c_phase, c_d) = (_symbol_terms(blocks, "m0"),
                                            _symbol_terms(blocks, "coupling"))
        self._n, self._n_u, self._perm = n, n_u, perm.ravel()
        self._order = np.argsort(self._perm)      # stacked DOF -> cell-major slot
        fibre = np.arange(n)
        self._flip = ((-fibre[:, None] % n) * n + (-fibre[None, :] % n)).ravel()
        self._lam, self._vinv, self._beta, self._w = eig.lam, eig.vinv, eig.beta, eig.w
        # the right trace Re(z), z = sum_r w[-1, r] y_r, has fibres (z^ + conj z^(-theta)) / 2
        self._w_last = eig.w[-1] / 2.0
        self._separable = loads.spatial is not None
        rows, n_fib = len(eig.lam), n * n
        self._x = np.empty((rows, n_fib, n_u, n_own), dtype=complex)
        self._k = np.empty((n_fib, n_own - n_u, n_u), dtype=complex)
        if self._separable:
            self._h = np.empty((rows, n_fib, n_own), dtype=complex)
            l_u = self.to_fibres(loads.spatial)[:, :n_u, None]
        else:
            self._s_inv = np.empty((rows, n_fib, n_u, n_u), dtype=complex)
            self._mv_inv = np.empty((n_fib, n_own - n_u, n_own - n_u), dtype=complex)
        u, v = slice(None, n_u), slice(n_u, None)
        for start in range(0, n_fib, self._CHUNK):
            part = slice(start, start + self._CHUNK)
            m0_hat = (m0_phase[part] @ m0_d).reshape(-1, n_own, n_own)
            c_hat = (c_phase[part] @ c_d).reshape(-1, n_own, n_own)
            m_u, m_v, c_uv = m0_hat[:, u, u], m0_hat[:, v, v], c_hat[:, u, v]
            self._k[part] = k = np.linalg.solve(m_v, c_hat[:, v, u])
            c_uv_k = c_uv @ k
            if not self._separable:
                self._mv_inv[part] = np.linalg.inv(m_v)
            for r, lam in enumerate(self._lam):
                s_inv = np.linalg.inv(lam * m_u + c_hat[:, u, u] - c_uv_k / lam)
                jump = np.concatenate([m_u, -c_uv / lam], axis=2)
                np.matmul(s_inv, jump, out=self._x[r, part])
                self._x[r, part] *= self._beta[r]
                if self._separable:
                    h_u = s_inv @ l_u[part]
                    self._h[r, part, u] = h_u[..., 0]
                    self._h[r, part, v] = (k @ h_u)[..., 0] / -lam
                else:
                    self._s_inv[r, part] = s_inv

    def to_fibres(self, vec: np.ndarray) -> np.ndarray:
        """The fibres (n^2, 3p^2) of stacked vectors (..., ndof)."""
        n = self._n
        cells = vec[..., self._perm].reshape(*vec.shape[:-1], n, n, -1)
        return np.fft.fft2(cells, axes=(-3, -2)).reshape(*vec.shape[:-1], n * n, -1)

    def initial_state(self, x0: np.ndarray) -> np.ndarray:
        return self.to_fibres(x0)

    def jump(self, prev_hat: np.ndarray) -> np.ndarray:
        """G_i p^ for every eigenbasis row i, shape (rows, n^2, 3p^2)."""
        z = self._x @ prev_hat[:, :, None]
        y_v = self._k @ z
        y_v[..., 0] -= self._beta[:, None, None] * prev_hat[:, self._n_u:]
        y_v /= -self._lam[:, None, None, None]
        return np.concatenate([z, y_v], axis=2)[..., 0]

    def solve(self, f_hat: np.ndarray) -> np.ndarray:
        """A_i^-1 f^_i for every eigenbasis row i; ``f_hat`` is (rows, n^2, 3p^2).
        Needs a factorisation built for a non-separable load."""
        n_u = self._n_u
        lam = self._lam[:, None, None, None]
        f_u, f_v = f_hat[..., :n_u, None], f_hat[..., n_u:, None]
        k_h = self._k.conj().swapaxes(1, 2)
        y_u = self._s_inv @ (f_u + (k_h @ f_v) / lam)
        y_v = (self._mv_inv @ f_v - self._k @ y_u) / lam
        return np.concatenate([y_u, y_v], axis=2)[..., 0]

    def step(self, prev_hat: np.ndarray, loads, m: int, out: np.ndarray) -> np.ndarray:
        y = self.jump(prev_hat)
        if self._separable:
            alpha = self._vinv @ loads.factors(m)
            y += alpha[:, None, None] * self._h
        else:
            y += self.solve(self.to_fibres(self._vinv @ loads(m)))
        trace = np.tensordot(self._w_last, y, 1)
        n = self._n
        cells = np.fft.ifft2(y.reshape(len(y), n, n, -1), axes=(1, 2))
        np.take(_recombine(self._w, cells), self._order, axis=1, out=out)
        partner = np.take(trace, self._flip, axis=0)
        np.conjugate(partner, out=partner)
        partner += trace
        return partner


SOLVERS = ("auto", "direct", "decoupled")


def _make_factorisation(blocks: BlockSystem, basis: SlabBasis, method: str, loads):
    """The slab factorisation for ``method`` and the meta entries naming the
    path taken: ``auto`` decouples and falls back to the direct LU only when
    the temporal eigenbasis check fails, recording why.  The decoupled path
    steps translation-invariant blocks in fibre space and others by sparse
    LUs, and records that spatial solver and the eigenbasis diagnostics.
    ``loads`` lets the fibre path transform a separable source's spatial
    load once."""
    if method not in SOLVERS:
        raise ValueError(f"unknown solver method {method!r}; expected one of {SOLVERS}")
    if method == "direct":
        return _DirectFactorisation(blocks, basis), {"solver": "direct"}
    try:
        eig = _temporal_eigenbasis(basis)
    except _EigenbasisError as err:
        if method == "decoupled":
            raise
        return _DirectFactorisation(blocks, basis), {"solver": "direct",
                                                     "solver_fallback": str(err)}
    if np.all(blocks.s0_cells == blocks.s0_cells[0]) \
            and np.all(blocks.s1_cells == blocks.s1_cells[0]):
        fact, spatial = _BlochFibres(blocks, eig, loads), "bloch"
    else:
        fact, spatial = _SpluSteps(blocks, eig), "splu"
    return fact, {"solver": "decoupled", "spatial_solver": spatial, **eig.meta}


def solve_slab(factorisation, state, loads, m: int, out: np.ndarray):
    """One slab solve: writes slab ``m``'s nodal coefficients, shape
    (q+1, ndof), into ``out`` and returns the state the next slab couples
    to (the right trace, in the factorisation's own representation)."""
    return factorisation.step(state, loads, m, out)


@dataclass
class DiscreteSolution:
    """Per-slab nodal trajectories of one space-time solve.

    ``initial_state`` is the datum x0 the first slab was coupled to; the
    trajectory itself lives on (0, T] (its value at 0+ is the first left
    trace, which differs from x0 by the first jump).
    """

    space_u: ScalarSpace
    space_v: VectorSpace
    basis: SlabBasis
    coeffs: np.ndarray          # (M, q+1, ndof_u + ndof_v)
    rho: float
    meta: dict = field(default_factory=dict)
    initial_state: np.ndarray | None = None

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

    def left_trace(self, m: int) -> FieldPair:
        self._check_slab(m)
        vec = self.basis.left_values @ self.coeffs[m]
        return FieldPair.split(vec, self.ndof_u)

    def final_trace(self) -> FieldPair:
        return self.right_trace(self.n_slabs - 1)

    def coefficients_at(self, t: float, side: str = "-") -> np.ndarray:
        """Coefficient vector at time t; ``side`` picks the one-sided limit
        at slab boundaries ('-' from below, '+' from above)."""
        if side not in ("-", "+"):
            raise ValueError(f"side must be '-' or '+', got {side!r}")
        if t < -1e-12 or t > self.T + 1e-12:
            raise ValueError(f"time {t} outside [0, {self.T}]")
        r = t / self.tau
        nearest = int(round(r))
        if abs(r - nearest) < 1e-9:
            if side == "+":
                if nearest >= self.n_slabs:
                    raise ValueError(f"right-sided limit undefined at final time {t}")
                return self.basis.left_values @ self.coeffs[nearest]
            if nearest == 0:
                raise ValueError("left-sided limit undefined at t = 0")
            return self.coeffs[nearest - 1, -1].copy()
        m = min(int(r), self.n_slabs - 1)
        local = t - m * self.tau
        return self.basis.values_at(local) @ self.coeffs[m]


class _Loads:
    """The load vectors <F(t), Phi> of each slab at its nodes, (q+1, ndof).

    For a separable source ``spatial`` is its stacked load vector, assembled
    once, and ``factors(m)`` the time factor at slab m's nodes; otherwise
    ``spatial`` is None.  ``forcing`` (M, q+1, ndof) gives the right-hand
    side through its coefficients in the discrete space instead.
    """

    def __init__(self, blocks: BlockSystem, basis: SlabBasis, source,
                 quad_points, forcing=None):
        self._blocks, self._basis = blocks, basis
        self._source, self._quad_points = source, quad_points
        self._forcing = forcing
        self._mass = blocks.m_unweighted() if forcing is not None else None
        self.spatial = None
        if forcing is None and isinstance(source, SeparableSource):
            self.spatial = np.zeros(blocks.ndof)
            self.spatial[:blocks.space_u.ndof] = assemble_load(
                blocks.space_u, lambda t, x, y: source.spatial(x, y), 0.0, quad_points)

    def _node_times(self, m: int) -> np.ndarray:
        tau = self._basis.tau
        times = m * tau + self._basis.nodes
        times[-1] = (m + 1) * tau
        return times

    def factors(self, m: int) -> np.ndarray:
        return np.array([self._source.time_factor(float(t)) for t in self._node_times(m)])

    def __call__(self, m: int) -> np.ndarray:
        if self._forcing is not None:
            return (self._mass @ self._forcing[m].T).T
        ndof_u = self._blocks.space_u.ndof
        loads = np.zeros((self._basis.q + 1, self._blocks.ndof))
        if self.spatial is not None:
            loads[:, :ndof_u] = np.outer(self.factors(m), self.spatial[:ndof_u])
            return loads
        for idx, t in enumerate(self._node_times(m)):
            loads[idx, :ndof_u] = assemble_load(self._blocks.space_u, self._source,
                                                float(t), self._quad_points)
        return loads


def _check_blocks(blocks: BlockSystem, n: int, p: int, problem: ProblemData):
    space_u, space_v = blocks.space_u, blocks.space_v
    if (space_u.mesh.n, space_u.p, space_v.p) != (n, p, p):
        raise ValueError(f"blocks were built for n={space_u.mesh.n}, p={space_u.p}; "
                         f"the run asks for n={n}, p={p}")
    for name, s in (("s0", problem.s0), ("s1", problem.s1)):
        if not np.array_equal(getattr(blocks, f"{name}_cells"), _coefficient_cells(space_u, s)):
            raise ValueError(f"blocks were built for other {name} cell values than the problem's")


def run(problem: ProblemData, n: int, p: int, q: int, tau: float,
        x0: FieldPair | None = None, *, solver: str = "auto",
        load_quad_points: int | None = None,
        discrete_forcing: np.ndarray | None = None,
        blocks: BlockSystem | None = None) -> DiscreteSolution:
    """Solve the evolutionary problem on [0, T] with M = T/tau uniform slabs.

    ``discrete_forcing`` (shape (M, q+1, ndof_u + ndof_v)) replaces the
    problem source by a right-hand side given through its coefficients in
    the discrete space; this is how vector-valued or random discrete data is
    fed in.  ``x0`` defaults to rest.  ``meta["solver"]`` names the solver
    path taken; ``meta["solver_fallback"]`` says why ``auto`` fell back to it.
    On the decoupled path ``meta["spatial_solver"]`` is ``"bloch"`` or
    ``"splu"`` and ``meta`` carries the temporal eigenbasis residual
    ``|V V^-1 - I|_max`` and ``cond(V)``.  Both spatial solvers step by one
    eigenbasis row per real temporal eigenvalue or conjugate pair.  On the
    ``splu`` path each slab is one sparse triangular solve per row.  On the
    ``bloch`` path the state stays in Floquet-Bloch fibre space from slab to
    slab.  Each fibre's flux unknowns are eliminated once, so each slab is a
    p^2 x 3p^2 and a 2p^2 x p^2 batched fibre matvec per row plus one
    ``ifft2`` for the stored coefficients (see ``_BlochFibres``).

    ``blocks`` (from ``build_block_system``) shares one set of operator
    blocks between runs; a ``ValueError`` is raised before factorising when
    its mesh size, degree or coefficient cell values differ from ``n``,
    ``p`` and the problem's.  Whole blocks are assembled on first use: the
    ``bloch`` path assembles none, the ``splu`` and ``direct`` paths the
    ones of M0 and C once, and ``discrete_forcing`` the unweighted mass.
    """
    T = problem.T
    n_slabs = int(round(T / tau))
    if abs(n_slabs * tau - T) > 1e-9 * max(T, 1.0) or n_slabs < 1:
        raise ValueError(f"final time {T} is not an integer multiple of tau={tau}")
    if blocks is None:
        mesh = build_mesh(n)
        space_u = ScalarSpace(mesh, p)
        space_v = VectorSpace(mesh, p)
        blocks = build_block_system(space_u, space_v, problem.s0, problem.s1)
    else:
        _check_blocks(blocks, n, p, problem)
    basis = SlabBasis(q, problem.rho, tau)
    ndof = blocks.ndof
    if discrete_forcing is not None and np.shape(discrete_forcing) != (n_slabs, q + 1, ndof):
        raise ValueError(f"discrete_forcing has shape {np.shape(discrete_forcing)}, "
                         f"expected (n_slabs, q+1, ndof) = {(n_slabs, q + 1, ndof)}")
    initial = np.zeros(ndof) if x0 is None else x0.concat()
    if initial.shape != (ndof,):
        raise ValueError(f"initial state has {initial.shape[0]} coefficients, expected {ndof}")
    loads = _Loads(blocks, basis, problem.source, load_quad_points, discrete_forcing)
    fact, path = _make_factorisation(blocks, basis, solver, loads)
    state = fact.initial_state(initial)
    coeffs = np.empty((n_slabs, q + 1, ndof))
    for m in range(n_slabs):
        state = solve_slab(fact, state, loads, m, coeffs[m])
    return DiscreteSolution(space_u=blocks.space_u, space_v=blocks.space_v,
                            basis=basis, coeffs=coeffs, rho=problem.rho,
                            meta={"n": n, "p": p, "q": q, "tau": tau,
                                  "T": T, "rho": problem.rho, **path},
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
    x0 = sol.initial_state if sol.initial_state is not None \
        else np.zeros(sol.coeffs.shape[2])
    header = json.dumps({"format": _FORMAT_VERSION, "slabs": sol.n_slabs,
                         "ndof_u": sol.space_u.ndof, "ndof_v": sol.space_v.ndof,
                         "meta": sol.meta}).encode()
    used = len(_MAGIC) + len(header) + 1
    header += b" " * (-used % _ALIGN) + b"\n"
    with atomic_open(path) as fh:
        fh.write(_MAGIC + header)
        np.asarray(x0, dtype=_FLOAT).tofile(fh)
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
