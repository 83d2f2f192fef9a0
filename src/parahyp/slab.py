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
diagonalising the small temporal coupling matrix: the (q+1)-fold block
system splits into one spatial system per eigenvalue, and complex conjugate
pairs share a factorisation (Richter, Springer & Vexler, Numer. Math. 124,
2013).  With constant coefficients each spatial system lam M0 + C is
block-circulant over the mesh cells and splits into its n^2 Floquet-Bloch
fibres (2-D FFT over the cells).  The iteration then stays in fibre space
from slab to slab: the fibre operators are built once, each slab is one
batched dense matvec per eigenvalue, and only the stored coefficients are
transformed back.  Otherwise each spatial system gets a sparse LU and the
slabs are solved on stacked coefficient vectors.  A direct LU of the full
block system is the fallback when the temporal eigenbasis fails its pairing
or conditioning check.
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
    """Lagrange time basis at the weighted Radau nodes of one slab."""

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

    def values_at(self, s: float) -> np.ndarray:
        return self.lagrange.values(np.array([float(s)]))[0]


@dataclass(frozen=True)
class TimeMatrices:
    """Temporal coupling K, diagonal temporal mass, and jump vector."""

    K: np.ndarray
    Mt: np.ndarray
    jump: np.ndarray


def time_matrices(basis: SlabBasis) -> TimeMatrices:
    K = basis.weights[:, None] * basis.deriv_at_nodes \
        + np.outer(basis.left_values, basis.left_values)
    return TimeMatrices(K=K, Mt=np.diag(basis.weights), jump=basis.left_values.copy())


def _slab_matrix(basis: SlabBasis, m0, coupling) -> sparse.csr_matrix:
    tm = time_matrices(basis)
    return (sparse.kron(sparse.csr_matrix(tm.K), m0)
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


class _RealSpaceSteps:
    """Slab steps on stacked coefficient vectors: the right-hand side is the
    weighted load plus the jump flux l(0) M0 U_prev, and ``solve`` applies
    the inverse slab matrix.  The state handed from slab to slab is the
    right trace itself."""

    def initial_state(self, x0: np.ndarray) -> np.ndarray:
        return x0

    def step(self, prev: np.ndarray, loads, m: int, out: np.ndarray) -> np.ndarray:
        rhs = self._basis.weights[:, None] * loads(m)
        rhs += np.outer(self._basis.left_values, self.m0 @ prev)
        out[:] = self.solve(rhs)
        return out[-1]


class _DirectFactorisation(_RealSpaceSteps):
    def __init__(self, blocks: BlockSystem, basis: SlabBasis):
        self._basis = basis
        self.m0 = blocks.m0()
        self._lu = _factor(_slab_matrix(basis, self.m0, blocks.coupling()).tocsc())
        self._shape = (basis.q + 1, blocks.ndof)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs.ravel()).reshape(self._shape)


class _EigenbasisError(RuntimeError):
    """The temporal coupling matrix has no usable eigenbasis."""


class _DecoupledFactorisation(_RealSpaceSteps):
    """Diagonalise the temporal coupling; one spatial system lam M0 + C per
    eigenvalue (or conjugate pair).  Translation-invariant blocks leave the
    spatial solves to ``_BlochFibres`` (``spatial == "bloch"``); otherwise
    each system gets a sparse LU here."""

    def __init__(self, blocks: BlockSystem, basis: SlabBasis):
        tm = time_matrices(basis)
        ktil = tm.K / basis.weights[:, None]
        lam, vmat = np.linalg.eig(ktil)
        vinv = np.linalg.inv(vmat)
        # enforce the exact conjugate-pair structure so that real input data
        # provably yields conjugate partial solutions
        used = np.zeros(len(lam), dtype=bool)
        self.plan = []   # (index, partner or None, real flag)
        for i in range(len(lam)):
            if used[i]:
                continue
            used[i] = True
            if abs(lam[i].imag) < 1e-12 * max(1.0, abs(lam[i])):
                lam[i] = lam[i].real
                vmat[:, i] = vmat[:, i].real
                vinv[i] = vinv[i].real
                self.plan.append((i, None, True))
                continue
            partner = None
            for j in range(i + 1, len(lam)):
                if not used[j] and abs(lam[j] - lam[i].conjugate()) < 1e-8 * abs(lam[i]):
                    partner = j
                    break
            if partner is None:
                raise _EigenbasisError("temporal eigenvalues do not pair up; "
                                       "use the direct solver")
            used[partner] = True
            lam[partner] = lam[i].conjugate()
            vmat[:, partner] = vmat[:, i].conjugate()
            vinv[partner] = vinv[i].conjugate()
            self.plan.append((i, partner, False))
        resid = np.abs(vmat @ vinv - np.eye(len(lam))).max()
        if not np.isfinite(resid) or resid > 1e-8:
            raise _EigenbasisError("temporal eigenbasis too ill-conditioned "
                                   f"(residual {resid:.2e}); use the direct solver")
        self.lam, self.vmat, self.vinv = lam, vmat, vinv
        self._basis = basis
        self.meta = {"eigenbasis_residual": float(resid),
                     "eigenbasis_cond": float(np.linalg.cond(vmat))}
        if np.all(blocks.s0_cells == blocks.s0_cells[0]) \
                and np.all(blocks.s1_cells == blocks.s1_cells[0]):
            self.spatial = "bloch"
            return
        self.spatial = "splu"
        m0 = blocks.m0().tocsc()
        coupling = blocks.coupling().tocsc()
        self._lus = {}
        for i, partner, is_real in self.plan:
            mat = float(lam[i].real) * m0 + coupling if is_real else \
                complex(lam[i]) * m0.astype(np.complex128) + coupling.astype(np.complex128)
            self._lus[i] = _factor(mat.tocsc())
        # the jump flux's CSR copy, made once the factorisations are done
        self.m0 = m0.tocsr()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        scaled = rhs / self._basis.weights[:, None]
        transformed = self.vinv @ scaled
        out = np.empty_like(transformed)
        for i, partner, is_real in self.plan:
            y = self._lus[i].solve(transformed[i].real if is_real else transformed[i])
            out[i] = y.real if is_real else y
            if partner is not None:
                out[partner] = y.conjugate()
        result = self.vmat @ out
        return np.ascontiguousarray(result.real)


class _BlochFibres:
    """Decoupled slab steps for translation-invariant blocks, in fibre space.

    Both spaces own 3p^2 DOFs per cell and wrap modulo n, so with constant
    coefficients M0 and C are block-circulant in cell-major order: cell
    offset d couples through one 3p^2 x 3p^2 block.  The 2-D DFT over the
    cell grid (``fft2`` of the cell-major gather) splits them into n^2 dense
    fibre symbols M0^(theta) and C^(theta), read from cell 0's element
    matrices (``BlockSystem.stencil``), so this path builds no global matrix.
    With A_i = lam_i M0^ + C^ for each planned temporal eigenvalue, the
    factorisation stores G_i = beta_i A_i^-1 M0^ per fibre, where
    beta_i = V^-1[i] (l(0) / w) weights the jump, and for a separable source
    H_i = A_i^-1 L^ (its spatial load, transformed once); other loads keep
    A_i^-1 itself.  Slab m is then

        y^_i = alpha_i H_i + G_i p^,   alpha_i = V^-1[i] f(t_nodes of m),

    one batched matvec per plan row, where p^ is the previous right trace in
    fibre space: the time-basis change commutes with the FFT.  The next p^
    is formed in fibre space too, since a conjugate partner's fibre at theta
    is conj(y^(-theta)), an index flip.  Only the stored coefficients need an
    ``ifft2`` and a scatter; there is no per-slab ``fft2`` and no sparse
    matvec.
    """

    # fibres per batch while building the operators, bounding the temporaries
    _CHUNK = 128

    def __init__(self, blocks: BlockSystem, basis: SlabBasis,
                 eig: _DecoupledFactorisation, loads):
        n = blocks.space_u.mesh.n
        perm = blocks.owned_dofs()
        n_own = perm.shape[1]
        # cell c = j n + i sits at (i, j); fibre [ky, kx] has theta = 2 pi (kx, ky) / n
        theta = 2.0 * np.pi * np.arange(n) / n

        def symbol(matrix):
            offsets, blocks_d = blocks.stencil(matrix)
            phase = np.exp(1j * (theta[:, None, None] * (offsets // n)
                                 + theta[None, :, None] * (offsets % n)))
            return phase.reshape(n * n, -1), blocks_d

        (m0_phase, m0_d), (c_phase, c_d) = symbol("m0"), symbol("coupling")
        self._n, self._perm = n, perm.ravel()
        self._order = np.argsort(self._perm)      # stacked DOF -> cell-major slot
        fibre = np.arange(n)
        self._flip = ((-fibre[:, None] % n) * n + (-fibre[None, :] % n)).ravel()
        plan = [i for i, _, _ in eig.plan]
        lams, self._vinv = eig.lam[plan], eig.vinv[plan]
        beta = self._vinv @ (basis.left_values / basis.weights)
        # node j's coefficients are sum_r Re(w[j, r] y_r): a real row gives
        # v Re(y), a conjugate pair v y + conj(v y); in real arithmetic that
        # is [Re w, -Im w] @ [Re y; Im y]
        w = eig.vmat[:, plan] * np.array([1.0 if real else 2.0 for _, _, real in eig.plan])
        self._w = np.stack([w.real, -w.imag], axis=2).reshape(len(w), -1)
        # the right trace Re(z), z = sum_r w[-1, r] y_r, has fibres (z^ + conj z^(-theta)) / 2
        self._w_last = w[-1] / 2.0
        self._separable = loads.spatial is not None
        shape = (len(plan), n * n, n_own)
        self._g = np.empty(shape + (n_own,), dtype=complex)
        if self._separable:
            self._h = np.empty(shape, dtype=complex)
            l_hat = self.to_fibres(loads.spatial)
        else:
            self._inv = np.empty(shape + (n_own,), dtype=complex)
        for start in range(0, n * n, self._CHUNK):
            part = slice(start, start + self._CHUNK)
            m0_hat = (m0_phase[part] @ m0_d).reshape(-1, n_own, n_own)
            c_hat = (c_phase[part] @ c_d).reshape(-1, n_own, n_own)
            for r, lam in enumerate(lams):
                a_hat = lam * m0_hat
                a_hat += c_hat
                inv = np.linalg.inv(a_hat)
                del a_hat
                np.matmul(inv, m0_hat, out=self._g[r, part])
                self._g[r, part] *= beta[r]
                if self._separable:
                    self._h[r, part] = (inv @ l_hat[part, :, None])[..., 0]
                else:
                    self._inv[r, part] = inv

    def to_fibres(self, vec: np.ndarray) -> np.ndarray:
        """The fibres (n^2, 3p^2) of stacked vectors (..., ndof)."""
        n = self._n
        cells = vec[..., self._perm].reshape(*vec.shape[:-1], n, n, -1)
        return np.fft.fft2(cells, axes=(-3, -2)).reshape(*vec.shape[:-1], n * n, -1)

    def initial_state(self, x0: np.ndarray) -> np.ndarray:
        return self.to_fibres(x0)

    def step(self, prev_hat: np.ndarray, loads, m: int, out: np.ndarray) -> np.ndarray:
        if self._separable:
            alpha = self._vinv @ loads.factors(m)
            y = alpha[:, None, None] * self._h
        else:
            f_hat = self.to_fibres(self._vinv @ loads(m))
            y = (self._inv @ f_hat[..., None])[..., 0]
        y += (self._g @ prev_hat[:, :, None])[..., 0]
        trace = np.tensordot(self._w_last, y, 1)
        n = self._n
        cells = np.fft.ifft2(y.reshape(len(y), n, n, -1), axes=(1, 2))
        parts = cells.reshape(len(y), -1).view(float).reshape(len(y), -1, 2)
        values = self._w @ parts.transpose(0, 2, 1).reshape(2 * len(y), -1)
        np.take(values, self._order, axis=1, out=out)
        partner = np.take(trace, self._flip, axis=0)
        np.conjugate(partner, out=partner)
        partner += trace
        return partner


SOLVERS = ("auto", "direct", "decoupled")


def _make_factorisation(blocks: BlockSystem, basis: SlabBasis, method: str, loads):
    """The slab factorisation for ``method`` and the meta entries naming the
    path taken: ``auto`` decouples and falls back to the direct LU only when
    the temporal eigenbasis check fails, recording why.  The decoupled path
    also records its spatial solver and eigenbasis diagnostics.  ``loads``
    lets the fibre path transform a separable source's spatial load once."""
    if method not in SOLVERS:
        raise ValueError(f"unknown solver method {method!r}; expected one of {SOLVERS}")
    if method == "direct":
        return _DirectFactorisation(blocks, basis), {"solver": "direct"}
    try:
        fact = _DecoupledFactorisation(blocks, basis)
    except _EigenbasisError as err:
        if method == "decoupled":
            raise
        return _DirectFactorisation(blocks, basis), {"solver": "direct",
                                                     "solver_fallback": str(err)}
    path = {"solver": "decoupled", "spatial_solver": fact.spatial, **fact.meta}
    if fact.spatial == "bloch":
        return _BlochFibres(blocks, basis, fact, loads), path
    return fact, path


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
    ``|V V^-1 - I|_max`` and ``cond(V)``.  On the ``bloch`` path the state
    stays in Floquet-Bloch fibre space from slab to slab: each slab is one
    batched fibre matvec per temporal eigenvalue plus one ``ifft2`` for the
    stored coefficients (see ``_BlochFibres``).

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
