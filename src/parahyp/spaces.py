"""Periodic conforming finite element spaces on the unit square.

Two spaces are provided on a periodic n x n tensor mesh:

* ``ScalarSpace``: H^1-conforming tensor polynomials Q_p, realised as
  Lagrange elements on Gauss-Lobatto points so that continuity (including
  across the periodic seams) follows from node sharing.  Global dimension
  (p n)^2.

* ``VectorSpace``: H(div)-conforming Raviart-Thomas elements RT_{p-1},
  i.e. Q_{p,p-1} x Q_{p-1,p} per cell.  The normal component of each basis
  function is continuous across every edge.  Degrees of freedom are point
  values: the +x/+y component at Gauss points on each owned edge, plus
  interior values.  Global dimension 2 n^2 p^2.

Both DOF layouts wrap modulo n, which implements the periodic trace
identification; no orientation signs are needed because an edge DOF stores
the component along the positive axis rather than an outward flux.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh


@dataclass
class FieldPair:
    """Coefficient record of a discrete state U = (u, v) at one time."""

    u: np.ndarray
    v: np.ndarray

    def concat(self) -> np.ndarray:
        return np.concatenate([self.u, self.v])

    @staticmethod
    def split(vec, ndof_u: int) -> "FieldPair":
        vec = np.asarray(vec)
        return FieldPair(u=vec[:ndof_u], v=vec[ndof_u:])


def gauss_lobatto_points(p: int) -> np.ndarray:
    """The p+1 Gauss-Lobatto points on [0, 1], endpoints included."""
    if p < 1:
        raise ValueError(f"need degree >= 1, got p={p}")
    pts = np.empty(p + 1)
    pts[0], pts[-1] = 0.0, 1.0
    if p > 1:
        # interior points are the roots of P'_p, i.e. of the Jacobi(1, 1)
        # polynomial of degree p-1: the eigenvalues of its symmetric Jacobi
        # matrix (Golub-Welsch), whose diagonal is zero
        k = np.arange(1.0, p - 1)
        off = np.sqrt(k * (k + 2) / ((2 * k + 1) * (2 * k + 3)))
        interior = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
        pts[1:-1] = (interior + 1.0) / 2.0
    return pts


class Lagrange1D:
    """Lagrange basis on a given 1D node set, evaluated by direct products."""

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, dtype=float)
        self.n = len(self.nodes)

    def values(self, x) -> np.ndarray:
        """Basis values, shape (len(x), n)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.ones((len(x), self.n))
        for j in range(self.n):
            for k in range(self.n):
                if k != j:
                    out[:, j] *= (x - self.nodes[k]) / (self.nodes[j] - self.nodes[k])
        return out

    def derivatives(self, x) -> np.ndarray:
        """Basis first derivatives, shape (len(x), n)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros((len(x), self.n))
        for j in range(self.n):
            for m in range(self.n):
                if m == j:
                    continue
                term = np.ones(len(x)) / (self.nodes[j] - self.nodes[m])
                for k in range(self.n):
                    if k != j and k != m:
                        term *= (x - self.nodes[k]) / (self.nodes[j] - self.nodes[k])
                out[:, j] += term
        return out


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per point, the products a_i b_j of two 1-D tables at local index i * b's width + j."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[-1] != 2:
        raise ValueError("points must have two coordinates")
    return pts


def _locate(mesh: Mesh, pts):
    """Cell indices and local coordinates of points in [0,1)^2."""
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite point coordinates")
    if np.any(pts < 0.0) or np.any(pts >= 1.0):
        raise ValueError("points must lie in [0,1)^2; reduce modulo 1 first")
    scaled = pts * mesh.n
    idx = np.minimum(scaled.astype(int), mesh.n - 1)
    local = scaled - idx
    return idx[:, 0], idx[:, 1], local[:, 0], local[:, 1]


class ScalarSpace:
    """Periodic Q_p Lagrange space on an n x n mesh."""

    def __init__(self, mesh: Mesh, p: int):
        if p < 1:
            raise ValueError(f"scalar space needs p >= 1, got p={p}")
        self.mesh = mesh
        self.p = p
        self.nodes_1d = gauss_lobatto_points(p)
        self.lagrange = Lagrange1D(self.nodes_1d)
        self.ndof = (p * mesh.n) ** 2
        self.n_loc = (p + 1) ** 2
        self.cell_dofs = self._build_cell_dofs()

    def _build_cell_dofs(self) -> np.ndarray:
        n, p = self.mesh.n, self.p
        # cell (i, j) -> row j*n + i, local node (a, b) -> column b*(p+1) + a
        # global node index along one axis of cell i's local node a: [i, a]
        g = (np.arange(n)[:, None] * p + np.arange(p + 1)) % (n * p)
        dofs = g[:, None, :, None] * (n * p) + g[None, :, None, :]     # [j, i, b, a]
        return dofs.reshape(n * n, self.n_loc)

    def node_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """1D coordinates of the distinct global Lagrange nodes per axis."""
        n, p = self.mesh.n, self.p
        g = np.arange(n * p)
        return (g // p + self.nodes_1d[g % p]) / n, (g // p + self.nodes_1d[g % p]) / n

    def basis_values(self, xi, eta) -> tuple[np.ndarray]:
        """Values of all local basis functions as a 1-tuple of shape
        (npts, (p+1)^2), with local index b*(p+1) + a for the tensor
        function L_a(xi) L_b(eta)."""
        return (_outer(self.lagrange.values(eta), self.lagrange.values(xi)),)

    def basis_derivatives(self, xi, eta) -> tuple[np.ndarray, np.ndarray]:
        """Reference gradients (dxi, deta) of the local basis, each shaped
        and indexed as ``basis_values``."""
        lx, ly = self.lagrange.values(xi), self.lagrange.values(eta)
        return (_outer(ly, self.lagrange.derivatives(xi)),
                _outer(self.lagrange.derivatives(eta), lx))


class VectorSpace:
    """Periodic Raviart-Thomas space RT_{p-1} on an n x n mesh."""

    def __init__(self, mesh: Mesh, p: int):
        if p < 1:
            raise ValueError(f"vector space needs p >= 1, got p={p}")
        self.mesh = mesh
        self.p = p
        self.k = p - 1
        k = self.k
        # normal direction: degree k+1 Lagrange on Lobatto points (endpoints
        # carry the edge coupling); tangential direction: degree k on Gauss
        # points (purely cell-local)
        self.normal_nodes = gauss_lobatto_points(k + 1)
        gauss, _ = np.polynomial.legendre.leggauss(k + 1)
        self.tangent_nodes = (gauss + 1.0) / 2.0
        self.lag_normal = Lagrange1D(self.normal_nodes)
        self.lag_tangent = Lagrange1D(self.tangent_nodes)
        self.n_comp_loc = (k + 2) * (k + 1)
        self.n_loc = 2 * self.n_comp_loc
        self.ndof = 2 * mesh.n**2 * (k + 1) ** 2
        self.cell_dofs = self._build_cell_dofs()

    def _edge_dof_vertical(self, i, j, b):
        n, k = self.mesh.n, self.k
        return ((j % n) * n + (i % n)) * (k + 1) + b

    def _edge_dof_horizontal(self, i, j, a):
        n, k = self.mesh.n, self.k
        return n * n * (k + 1) + ((j % n) * n + (i % n)) * (k + 1) + a

    def _build_cell_dofs(self) -> np.ndarray:
        n, k = self.mesh.n, self.k
        # cell c = j*n + i; x-component G_a(xi) E_b(eta) at local index
        # a*(k+1) + b, y-component E_a(xi) G_b(eta) at n_comp_loc + b*(k+1) + a
        cell = np.arange(n * n)[:, None]
        j, i = np.divmod(cell, n)
        t = np.arange(k + 1)
        int_per_cell = k * (k + 1)
        interior = 2 * n * n * (k + 1) + cell * int_per_cell + np.arange(int_per_cell)
        x_comp = [self._edge_dof_vertical(i, j, t), interior,
                  self._edge_dof_vertical(i + 1, j, t)]
        y_comp = [self._edge_dof_horizontal(i, j, t), interior + n * n * int_per_cell,
                  self._edge_dof_horizontal(i, j + 1, t)]
        return np.concatenate(x_comp + y_comp, axis=1)

    def basis_values(self, xi, eta) -> tuple[np.ndarray, np.ndarray]:
        """Component values (vx, vy) of the local basis, shapes (npts, n_loc)."""
        xblock = _outer(self.lag_normal.values(xi), self.lag_tangent.values(eta))
        yblock = _outer(self.lag_normal.values(eta), self.lag_tangent.values(xi))
        zero = np.zeros_like(xblock)
        return np.hstack([xblock, zero]), np.hstack([zero, yblock])

    def basis_derivatives(self, xi, eta) -> tuple[np.ndarray]:
        """The reference divergence of the local basis as a 1-tuple of shape
        (npts, n_loc); multiply by n (= 1/h) for the physical divergence."""
        xdiv = _outer(self.lag_normal.derivatives(xi), self.lag_tangent.values(eta))
        ydiv = _outer(self.lag_normal.derivatives(eta), self.lag_tangent.values(xi))
        return (np.hstack([xdiv, ydiv]),)


def _check_coeffs(coeffs, ndof):
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (ndof,):
        raise ValueError(f"coefficient vector has shape {coeffs.shape}, expected ({ndof},)")
    return coeffs


def _tabulate(space, points, derivatives: bool = False):
    """The global DOFs of the cell holding each point of [0,1)^2, shape
    (npts, n_loc), and the tables of ``space.basis_values`` (or of
    ``space.basis_derivatives`` if ``derivatives``) at the points: all that
    ``_contract`` needs to evaluate any coefficient vector there."""
    ci, cj, xi, eta = _locate(space.mesh, _as_points(points))
    tables = (space.basis_derivatives if derivatives else space.basis_values)(xi, eta)
    return space.cell_dofs[cj * space.mesh.n + ci], tables


def _contract(space, coeffs, tabulation) -> list[np.ndarray]:
    """The FE function ``coeffs`` contracted with each table of a ``_tabulate``
    result of ``space``, in reference units."""
    dofs, tables = tabulation
    local = _check_coeffs(coeffs, space.ndof)[dofs]
    return [np.einsum("ml,ml->m", local, table) for table in tables]


def _evaluate(space, coeffs, points, derivatives: bool = False) -> list[np.ndarray]:
    return _contract(space, coeffs, _tabulate(space, points, derivatives))


def eval_scalar(space: ScalarSpace, coeffs, points) -> np.ndarray:
    """Point values of a scalar FE function at points of [0,1)^2."""
    return _evaluate(space, coeffs, points)[0]


def eval_scalar_grad(space: ScalarSpace, coeffs, points) -> np.ndarray:
    """Gradients of a scalar FE function, shape (npts, 2); cell-interior values."""
    return np.column_stack(_evaluate(space, coeffs, points, derivatives=True)) * space.mesh.n


def eval_vector(space: VectorSpace, coeffs, points) -> np.ndarray:
    """Point values of an RT field, shape (npts, 2)."""
    return np.column_stack(_evaluate(space, coeffs, points))


def eval_div(space: VectorSpace, coeffs, points) -> np.ndarray:
    """Pointwise divergence of an RT field."""
    return _evaluate(space, coeffs, points, derivatives=True)[0] * space.mesh.n


def interpolate_scalar(space: ScalarSpace, fn) -> np.ndarray:
    """Lagrange interpolation of fn(x, y) at the global nodes."""
    xs, ys = space.node_coordinates()
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    vals = np.asarray(fn(xx, yy), dtype=float)
    n, p = space.mesh.n, space.p
    j, i = np.divmod(np.arange(n * n)[:, None, None], n)
    a = np.arange(p)
    # each node once: cell (i, j)'s local nodes (a, b) with a, b < p, at
    # slot b (p+1) + a, sit at node i p + a along x and j p + b along y
    coeffs = np.empty(space.ndof)
    coeffs[space.cell_dofs[:, a[:, None] * (p + 1) + a]] = vals[i * p + a, j * p + a[:, None]]
    return coeffs


def _shifted_legendre_values(r_max: int, s) -> np.ndarray:
    """Shifted Legendre polynomials P_r(2s-1) for r = 0..r_max, shape (r_max+1, len(s))."""
    s = np.asarray(s, dtype=float)
    x = 2.0 * s - 1.0
    vals = np.empty((r_max + 1, len(s)))
    vals[0] = 1.0
    if r_max >= 1:
        vals[1] = x
    for r in range(1, r_max):
        vals[r + 1] = ((2 * r + 1) * x * vals[r] - r * vals[r - 1]) / (r + 1)
    return vals


def project_vector(space: VectorSpace, fn) -> np.ndarray:
    """Canonical RT interpolant of a vector field fn(x, y) -> (2,)-values.

    Edge DOFs are fixed so that the normal trace matches the L^2 projection
    of the field's normal component onto degree-k polynomials on each edge;
    interior DOFs (k >= 1) are fixed by component moments against
    Q_{k-1,k} x Q_{k,k-1}.  fn must accept arrays x, y and return a pair of
    arrays (vx, vy).
    """
    n, k, h = space.mesh.n, space.k, space.mesh.h
    quad_n = max(10, 2 * k + 4)
    qx, qw = np.polynomial.legendre.leggauss(quad_n)
    qx = (qx + 1.0) / 2.0
    qw = qw / 2.0
    leg = _shifted_legendre_values(k, qx)           # (k+1, Q)
    scale = (2.0 * np.arange(k + 1) + 1.0)          # 1 / ||P_r||^2 on [0,1]
    nodal = _shifted_legendre_values(k, space.tangent_nodes)  # (k+1, k+1)

    def field(x, y):
        vx, vy = fn(x, y)
        return (np.broadcast_to(np.asarray(vx, dtype=float), x.shape),
                np.broadcast_to(np.asarray(vy, dtype=float), x.shape))

    coeffs = np.zeros(space.ndof)
    grid = np.arange(n) * h
    # edge (i, j, t): the vertical/horizontal edge at the lower left corner of
    # cell (i, j), local DOF t along it
    ei, ej, et = np.meshgrid(np.arange(n), np.arange(n), np.arange(k + 1), indexing="ij")
    # vertical edges: normal component is v_x, edge coordinate is y
    xe, ye, sq = np.meshgrid(grid, grid, qx, indexing="ij")
    fx, _ = field(xe, ye + sq * h)
    moments = np.einsum("ijq,rq,q->ijr", fx, leg, qw) * scale   # projection coeffs
    coeffs[space._edge_dof_vertical(ei, ej, et)] = np.einsum("ijr,rb->ijb", moments, nodal)
    # horizontal edges: normal component is v_y, edge coordinate is x
    _, fy = field(xe + sq * h, ye)
    moments = np.einsum("ijq,rq,q->ijr", fy, leg, qw) * scale
    coeffs[space._edge_dof_horizontal(ei, ej, et)] = np.einsum("ijr,ra->ija", moments, nodal)

    if k == 0:
        return coeffs

    # interior moments against w in Q_{k-1,k} x {0} and {0} x Q_{k,k-1}
    xi2, eta2 = np.meshgrid(qx, qx, indexing="ij")
    w2 = np.outer(qw, qw).ravel()
    xi2, eta2 = xi2.ravel(), eta2.ravel()
    vx, vy = space.basis_values(xi2, eta2)
    leg_xi = _shifted_legendre_values(k, xi2)
    leg_eta = _shifted_legendre_values(k, eta2)
    tests = []
    for c in range(k):
        for d in range(k + 1):
            tests.append((leg_xi[c] * leg_eta[d], 0))
    for c in range(k + 1):
        for d in range(k):
            tests.append((leg_xi[c] * leg_eta[d], 1))
    n_int = 2 * k * (k + 1)
    assert len(tests) == n_int

    interior_loc, edge_loc = [], []
    for a in range(k + 2):
        for b in range(k + 1):
            (edge_loc if a in (0, k + 1) else interior_loc).append(a * (k + 1) + b)
    for b in range(k + 2):
        for a in range(k + 1):
            loc = space.n_comp_loc + b * (k + 1) + a
            (edge_loc if b in (0, k + 1) else interior_loc).append(loc)

    comp_tables = (vx, vy)
    m_full = np.empty((n_int, space.n_loc))
    for r, (wvals, comp) in enumerate(tests):
        m_full[r] = np.einsum("q,ql->l", w2 * wvals, comp_tables[comp])
    m_int = m_full[:, interior_loc]
    m_edge = m_full[:, edge_loc]

    # right-hand sides per cell c = j n + i, one column each
    cx = grid[None, :, None] + xi2[None, None, :] * h
    cy = grid[:, None, None] + eta2[None, None, :] * h
    fvx, fvy = field(np.ascontiguousarray(np.broadcast_to(cx, (n, n, len(xi2)))),
                     np.ascontiguousarray(np.broadcast_to(cy, (n, n, len(xi2)))))
    rhs = np.empty((n_int, n * n))
    for r, (wvals, comp) in enumerate(tests):
        rhs[r] = (fvx if comp == 0 else fvy).reshape(n * n, -1) @ (w2 * wvals)
    rhs -= m_edge @ coeffs[space.cell_dofs[:, edge_loc]].T
    coeffs[space.cell_dofs[:, interior_loc]] = np.linalg.solve(m_int, rhs).T
    return coeffs
