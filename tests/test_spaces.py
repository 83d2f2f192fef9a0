import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from parahyp.mesh import build_mesh
from parahyp.quadrature import gauss_legendre_1d
from parahyp.slab import _owned_slots
from parahyp.spaces import (ScalarSpace, VectorSpace, _contract, _shifted_legendre_values,
                            _tabulate, eval_div, eval_scalar, eval_scalar_grad, eval_vector, gauss_lobatto_points,
                            interpolate_scalar, project_vector)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestScalarSpace:
    @pytest.mark.parametrize("n,p,dim", [(1, 1, 1), (2, 2, 16), (4, 1, 16),
                                         (3, 3, 81)])
    def test_dimension(self, n, p, dim):
        assert ScalarSpace(build_mesh(n), p).ndof == dim

    def test_single_basis_function_is_constant(self):
        space = ScalarSpace(build_mesh(1), 1)
        vals = eval_scalar(space, np.array([1.0]), np.array([[0.3, 0.9], [0.0, 0.0]]))
        assert vals == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_partition_of_unity(self, rng):
        space = ScalarSpace(build_mesh(3), 2)
        coeffs = interpolate_scalar(space, lambda x, y: np.ones_like(x))
        pts = rng.random((50, 2))
        assert eval_scalar(space, coeffs, pts) == pytest.approx(np.ones(50), abs=1e-13)

    def test_quadratic_reproduction(self):
        space = ScalarSpace(build_mesh(4), 2)
        coeffs = interpolate_scalar(space, lambda x, y: x * (1 - x))
        val = eval_scalar(space, coeffs, np.array([[0.3, 0.64]]))
        assert val[0] == pytest.approx(0.21, abs=1e-12)

    def test_interpolation_matches_at_nodes(self):
        space = ScalarSpace(build_mesh(16), 2)
        fn = lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        coeffs = interpolate_scalar(space, fn)
        xs, ys = space.node_coordinates()
        pts = np.column_stack([np.repeat(xs[:5], 5), np.tile(ys[:5], 5)])
        assert eval_scalar(space, coeffs, pts) == pytest.approx(
            fn(pts[:, 0], pts[:, 1]), abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_interpolation_follows_the_cell_numbering(self, n):
        # x + 2y tells x from y, so a transposed numbering shows
        fn = lambda x, y: x + 2 * y
        for p in (1, 2, 3):
            space = ScalarSpace(build_mesh(n), p)
            coeffs = interpolate_scalar(space, fn)
            nodes = space.nodes_1d
            for c in range(n * n):
                j, i = divmod(c, n)
                for b in range(p + 1):
                    for a in range(p + 1):
                        x, y = (i + nodes[a]) / n, (j + nodes[b]) / n
                        value = coeffs[space.cell_dofs[c, b * (p + 1) + a]]
                        # the node at x = 1 or y = 1 is the periodic image of 0
                        assert value == pytest.approx(fn(x % 1.0, y % 1.0), abs=1e-14)

    def test_periodicity_of_random_function(self, rng):
        space = ScalarSpace(build_mesh(4), 2)
        coeffs = rng.standard_normal(space.ndof)
        z = rng.random(20)
        delta = 1e-12
        left = eval_scalar(space, coeffs, np.column_stack([np.zeros(20), z]))
        right = eval_scalar(space, coeffs, np.column_stack([np.full(20, 1 - delta), z]))
        assert left == pytest.approx(right, abs=1e-9)
        bottom = eval_scalar(space, coeffs, np.column_stack([z, np.zeros(20)]))
        top = eval_scalar(space, coeffs, np.column_stack([z, np.full(20, 1 - delta)]))
        assert bottom == pytest.approx(top, abs=1e-9)

    def test_total_degree_reproduction(self, rng):
        # tensor-degree-p polynomials are reproduced exactly on cells whose
        # closure avoids the periodic seam (a non-periodic polynomial cannot
        # match across the identified boundary)
        space = ScalarSpace(build_mesh(2), 3)
        coeffs_poly = rng.standard_normal((4, 4))
        fn = lambda x, y: np.polynomial.polynomial.polyval2d(x, y, coeffs_poly)
        coeffs = interpolate_scalar(space, fn)
        pts = rng.random((40, 2)) * 0.499
        assert eval_scalar(space, coeffs, pts) == pytest.approx(
            fn(pts[:, 0], pts[:, 1]), rel=1e-12, abs=1e-12)

    def test_gradient(self):
        space = ScalarSpace(build_mesh(4), 2)
        coeffs = interpolate_scalar(space, lambda x, y: x * (1 - x))
        grad = eval_scalar_grad(space, coeffs, np.array([[0.3, 0.6]]))
        assert grad[0] == pytest.approx([1 - 2 * 0.3, 0.0], abs=1e-12)

    def test_coefficient_length_mismatch(self):
        space = ScalarSpace(build_mesh(2), 1)
        with pytest.raises(ValueError):
            eval_scalar(space, np.zeros(3), np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize("n,p", [(3, 1), (4, 2), (5, 3)])
    def test_tabulated_evaluation_is_the_one_pass_evaluation_bit_for_bit(self, n, p, rng):
        # eval_scalar tabulates the points, then contracts; the reference is
        # the single-pass evaluation it was split from
        space = ScalarSpace(build_mesh(n), p)
        coeffs = rng.standard_normal(space.ndof)
        pts = rng.random((500, 2))
        scaled = pts * n
        idx = np.minimum(scaled.astype(int), n - 1)
        xi, eta = (scaled - idx).T
        local = coeffs[space.cell_dofs[idx[:, 1] * n + idx[:, 0]]]
        (table,) = space.basis_values(xi, eta)
        want = np.einsum("ml,ml->m", local, table)
        assert np.array_equal(eval_scalar(space, coeffs, pts).view(np.int64),
                              want.view(np.int64))
        # one tabulation serves any number of coefficient vectors
        tabulation = _tabulate(space, pts)
        for _ in range(3):
            coeffs = rng.standard_normal(space.ndof)
            assert np.array_equal(_contract(space, coeffs, tabulation)[0],
                                  eval_scalar(space, coeffs, pts))


class TestVectorSpace:
    @pytest.mark.parametrize("n,p,dim", [(1, 1, 2), (2, 2, 32), (2, 1, 8),
                                         (3, 3, 162)])
    def test_dimension(self, n, p, dim):
        assert VectorSpace(build_mesh(n), p).ndof == dim

    def test_mass_matrix_rank_matches_dimension(self):
        from parahyp.assembly import assemble_mass_v
        space = VectorSpace(build_mesh(2), 2)
        mv = assemble_mass_v(space).toarray()
        assert np.linalg.matrix_rank(mv, tol=1e-10) == space.ndof

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_constant_field_reproduction(self, p, rng):
        space = VectorSpace(build_mesh(3), p)
        coeffs = project_vector(space, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
        pts = rng.random((30, 2))
        vals = eval_vector(space, coeffs, pts)
        assert vals == pytest.approx(np.tile([1.0, 0.0], (30, 1)), abs=1e-13)
        assert eval_div(space, coeffs, pts) == pytest.approx(np.zeros(30), abs=1e-12)

    def test_linear_normal_field_has_unit_divergence(self, rng):
        # (x, 0) is reproduced cell-locally; across the periodic seam the
        # function itself jumps, so check divergence away from the last column
        space = VectorSpace(build_mesh(4), 2)
        coeffs = project_vector(space, lambda x, y: (x, np.zeros_like(x)))
        pts = rng.random((40, 2)) * [0.74, 1.0]
        assert eval_div(space, coeffs, pts) == pytest.approx(np.ones(40), abs=1e-11)

    def test_zero_coefficients(self):
        space = VectorSpace(build_mesh(2), 2)
        vals = eval_vector(space, np.zeros(space.ndof), np.array([[0.3, 0.7]]))
        assert vals == pytest.approx(np.zeros((1, 2)), abs=0.0)

    def test_normal_trace_continuity(self, rng):
        # jump of v . n across every vertical/horizontal edge, incl. the seams
        space = VectorSpace(build_mesh(4), 2)
        coeffs = rng.standard_normal(space.ndof)
        samples = gauss_legendre_1d(space.p).nodes
        delta = 1e-12
        worst = 0.0
        for edge_pos in np.arange(4) * 0.25:
            for j in range(4):
                y = (j + samples) * 0.25
                xm = np.full_like(y, (edge_pos - delta) % 1.0)
                xp = np.full_like(y, edge_pos)
                jump = (eval_vector(space, coeffs, np.column_stack([xm, y]))[:, 0]
                        - eval_vector(space, coeffs, np.column_stack([xp, y]))[:, 0])
                worst = max(worst, np.abs(jump).max())
                ym = np.full_like(y, (edge_pos - delta) % 1.0)
                jump = (eval_vector(space, coeffs, np.column_stack([y, ym]))[:, 1]
                        - eval_vector(space, coeffs, np.column_stack([y, np.full_like(y, edge_pos)]))[:, 1])
                worst = max(worst, np.abs(jump).max())
        assert worst <= 1e-10

    def test_divergence_is_cellwise_q_pm1(self, rng):
        space = VectorSpace(build_mesh(3), 2)
        coeffs = rng.standard_normal(space.ndof)
        rule = gauss_legendre_1d(6)
        xi, eta = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
        w2 = np.outer(rule.weights, rule.weights).ravel()
        pts = np.column_stack([(1 + xi.ravel()) / 3, (2 + eta.ravel()) / 3])
        div = eval_div(space, coeffs, pts)
        # L2-project onto tensor degree p-1 = 1 and check the residual vanishes
        basis = np.column_stack([np.ones_like(w2), xi.ravel(), eta.ravel(),
                                 (xi * eta).ravel()])
        gram = basis.T @ (w2[:, None] * basis)
        proj = basis @ np.linalg.solve(gram, basis.T @ (w2 * div))
        assert np.abs(div - proj).max() <= 1e-12 * max(1.0, np.abs(div).max())

    @staticmethod
    def project_vector_loops(space, fn):
        """project_vector with one loop over the edges and one interior solve
        per cell, as it was written before it was vectorised."""
        n, k, h = space.mesh.n, space.k, space.mesh.h
        qx, qw = np.polynomial.legendre.leggauss(max(10, 2 * k + 4))
        qx, qw = (qx + 1.0) / 2.0, qw / 2.0
        leg = _shifted_legendre_values(k, qx)
        scale = 2.0 * np.arange(k + 1) + 1.0
        nodal = _shifted_legendre_values(k, space.tangent_nodes)
        coeffs = np.zeros(space.ndof)
        grid = np.arange(n) * h
        xe, ye, sq = np.meshgrid(grid, grid, qx, indexing="ij")
        fx = np.broadcast_to(fn(xe, ye + sq * h)[0], xe.shape)
        fy = np.broadcast_to(fn(xe + sq * h, ye)[1], xe.shape)
        vals_x = np.einsum("ijq,rq,q->ijr", fx, leg, qw) * scale @ nodal
        vals_y = np.einsum("ijq,rq,q->ijr", fy, leg, qw) * scale @ nodal
        for i in range(n):
            for j in range(n):
                for t in range(k + 1):
                    coeffs[space._edge_dof_vertical(i, j, t)] = vals_x[i, j, t]
                    coeffs[space._edge_dof_horizontal(i, j, t)] = vals_y[i, j, t]
        if k == 0:
            return coeffs
        xi2, eta2 = (a.ravel() for a in np.meshgrid(qx, qx, indexing="ij"))
        w2 = np.outer(qw, qw).ravel()
        comps = space.basis_values(xi2, eta2)
        leg_xi, leg_eta = _shifted_legendre_values(k, xi2), _shifted_legendre_values(k, eta2)
        tests = [(leg_xi[c] * leg_eta[d], 0) for c in range(k) for d in range(k + 1)] \
            + [(leg_xi[c] * leg_eta[d], 1) for c in range(k + 1) for d in range(k)]
        interior_loc, edge_loc = [], []
        for a in range(k + 2):
            for b in range(k + 1):
                (edge_loc if a in (0, k + 1) else interior_loc).append(a * (k + 1) + b)
        for b in range(k + 2):
            for a in range(k + 1):
                loc = space.n_comp_loc + b * (k + 1) + a
                (edge_loc if b in (0, k + 1) else interior_loc).append(loc)
        m_full = np.array([(w2 * wvals) @ comps[comp] for wvals, comp in tests])
        m_int, m_edge = m_full[:, interior_loc], m_full[:, edge_loc]
        for i in range(n):
            for j in range(n):
                x, y = grid[i] + xi2 * h, grid[j] + eta2 * h
                field = [np.broadcast_to(f, x.shape) for f in fn(x, y)]
                rhs = np.array([field[comp] @ (w2 * wvals) for wvals, comp in tests])
                dofs = space.cell_dofs[j * n + i]
                coeffs[dofs[interior_loc]] = np.linalg.solve(
                    m_int, rhs - m_edge @ coeffs[dofs[edge_loc]])
        return coeffs

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_projection_matches_per_cell_loops(self, n):
        def fn(x, y):
            return (np.sin(2 * np.pi * y) + x * y, np.cos(2 * np.pi * x) * y + 0.3)

        for p in (1, 2, 3):
            space = VectorSpace(build_mesh(n), p)
            oracle = self.project_vector_loops(space, fn)
            coeffs = project_vector(space, fn)
            assert np.abs(coeffs - oracle).max() <= 1e-14 * np.abs(oracle).max()

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_projection_idempotent(self, p, rng):
        space = VectorSpace(build_mesh(3), p)
        coeffs = rng.standard_normal(space.ndof)

        def as_function(x, y):
            pts = np.column_stack([np.asarray(x, float).ravel() % 1.0,
                                   np.asarray(y, float).ravel() % 1.0])
            vals = eval_vector(space, coeffs, pts)
            return (vals[:, 0].reshape(np.shape(x)), vals[:, 1].reshape(np.shape(x)))

        again = project_vector(space, as_function)
        assert again == pytest.approx(coeffs, abs=1e-12)

    def test_edge_moments_match_analytic_integrals(self):
        # canonical interpolation property for (sin 2 pi y, 0): the normal
        # trace moments on vertical edges equal the field's own moments
        space = VectorSpace(build_mesh(4), 2)
        coeffs = project_vector(space, lambda x, y: (np.sin(2 * np.pi * y),
                                                     np.zeros_like(x)))
        h = 0.25
        rule = gauss_legendre_1d(20)
        worst = 0.0
        for i in range(4):
            for j in range(4):
                y = (j + rule.nodes) * h
                trace = eval_vector(space, coeffs,
                                    np.column_stack([np.full_like(y, i * h), y]))[:, 0]
                for r in range(space.p):
                    leg = np.polynomial.legendre.Legendre.basis(r)(2 * rule.nodes - 1)
                    got = h * np.dot(rule.weights, trace * leg)
                    # independent 1D quadrature of the analytic edge integral
                    exact = h * np.dot(rule.weights, np.sin(2 * np.pi * y) * leg)
                    worst = max(worst, abs(got - exact))
        assert worst <= 1e-12

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_local_space_containments(self, p, rng):
        # (Q_{p-1})^2  subset  RT_{p-1}  subset  (Q_p)^2 on the reference cell
        space = VectorSpace(build_mesh(2), p)
        k = p - 1
        pts = rng.random((3 * (p + 2) ** 2, 2))
        vx, vy = space.basis_values(pts[:, 0], pts[:, 1])
        basis_samples = np.concatenate([vx, vy], axis=0)      # (2 npts, n_loc)

        def tensor_monomials(deg_x, deg_y):
            cols = [pts[:, 0] ** a * pts[:, 1] ** b
                    for a in range(deg_x + 1) for b in range(deg_y + 1)]
            return np.column_stack(cols)

        # every (Q_{p-1})^2 field is an exact combination of the local basis
        for comp in (0, 1):
            target_block = tensor_monomials(k, k)
            target = np.zeros((2 * len(pts), target_block.shape[1]))
            target[comp * len(pts):(comp + 1) * len(pts)] = target_block
            fit = basis_samples @ np.linalg.lstsq(basis_samples, target, rcond=None)[0]
            assert np.abs(fit - target).max() < 1e-10

        # every local basis function lies in (Q_p)^2 componentwise
        monoms = tensor_monomials(p, p)
        for table in (vx, vy):
            fit = monoms @ np.linalg.lstsq(monoms, table, rcond=None)[0]
            assert np.abs(fit - table).max() < 1e-9


def owned_by_hand(space):
    """The DOFs each cell owns, written out: the lower-left Q_p block a, b < p,
    or the RT interior values and the left and bottom edges."""
    p = space.p
    if isinstance(space, ScalarSpace):
        return space.cell_dofs[:, (np.arange(p)[:, None] * (p + 1) + np.arange(p)).ravel()]
    per_comp = np.arange(p * p)
    return space.cell_dofs[:, np.concatenate([per_comp, space.n_comp_loc + per_comp])]


@pytest.mark.parametrize("p", [1, 2, 3])
# the ids are the names these cases are known by in test reports
@pytest.mark.parametrize("build", [ScalarSpace, VectorSpace],
                         ids=["build_scalar_space", "build_vector_space"])
def test_owned_dofs_bijective_and_translation_covariant(build, p):
    # the ownership that the Floquet-Bloch path derives from the cell DOFs;
    # at n = 1 the one cell holds some DOFs at several slots
    for n in (1, 2, 3):
        space = build(build_mesh(n), p)
        owned = space.cell_dofs[:, _owned_slots(space.cell_dofs)]
        assert np.array_equal(owned, owned_by_hand(space))
        assert owned.shape[0] == n * n
        assert np.array_equal(np.sort(owned.ravel()), np.arange(space.ndof))
        i, j = np.arange(n * n) % n, np.arange(n * n) // n
        for di, dj in ((1, 0), (0, 1)):
            # the one-cell translation that the owned map defines on global DOFs
            target = (j + dj) % n * n + (i + di) % n
            shift = np.empty(space.ndof, dtype=np.int64)
            shift[owned] = owned[target]
            # moves every cell's full local DOF list onto its neighbour's
            assert np.array_equal(shift[space.cell_dofs], space.cell_dofs[target])


def scalar_cell_dofs_loop(space):
    """Per-cell loop form of the Q_p cell-to-DOF map (the reference)."""
    n, p = space.mesh.n, space.p
    out = np.empty((n * n, (p + 1) ** 2), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for a in range(p + 1):
                for b in range(p + 1):
                    gx, gy = (i * p + a) % (n * p), (j * p + b) % (n * p)
                    out[j * n + i, b * (p + 1) + a] = gy * (n * p) + gx
    return out


def vector_cell_dofs_loop(space):
    """Per-cell loop form of the RT cell-to-DOF map (the reference)."""
    n, k = space.mesh.n, space.k
    out = np.empty((n * n, space.n_loc), dtype=np.int64)
    int_base, int_per_cell = 2 * n * n * (k + 1), k * (k + 1)
    for i in range(n):
        for j in range(n):
            c = j * n + i
            for a in range(k + 2):
                for b in range(k + 1):
                    if a in (0, k + 1):
                        d = space._edge_dof_vertical(i + a // (k + 1), j, b)
                    else:
                        d = int_base + c * int_per_cell + (a - 1) * (k + 1) + b
                    out[c, a * (k + 1) + b] = d
            for b in range(k + 2):
                for a in range(k + 1):
                    if b in (0, k + 1):
                        d = space._edge_dof_horizontal(i, j + b // (k + 1), a)
                    else:
                        d = (int_base + n * n * int_per_cell
                             + c * int_per_cell + (b - 1) * (k + 1) + a)
                    out[c, space.n_comp_loc + b * (k + 1) + a] = d
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_cell_dofs_match_loop_reference(n, p):
    mesh = build_mesh(n)
    for space, reference in ((ScalarSpace(mesh, p), scalar_cell_dofs_loop),
                             (VectorSpace(mesh, p), vector_cell_dofs_loop)):
        expected = reference(space)
        assert space.cell_dofs.dtype == expected.dtype
        assert np.array_equal(space.cell_dofs, expected)


@pytest.mark.parametrize("p, interior", [(1, []), (2, [0.0]),
                                         (3, [-np.sqrt(1 / 5), np.sqrt(1 / 5)]),
                                         (4, [-np.sqrt(3 / 7), 0.0, np.sqrt(3 / 7)])])
def test_gauss_lobatto_points_closed_forms(p, interior):
    # on [-1, 1] the interior points are the roots of P'_p
    expected = (np.array([-1.0, *interior, 1.0]) + 1.0) / 2.0
    assert np.abs(gauss_lobatto_points(p) - expected).max() <= 1e-15


def test_import_leaves_scipy_special_out():
    # scipy.special and scipy.fft (which imports it) are slow to import and
    # nothing in parahyp needs them: the fibre transforms are numpy's
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, parahyp; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.special', 'scipy.fft'))))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
