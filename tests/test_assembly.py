import numpy as np
import pytest

from parahyp import coefficients as co
from parahyp.assembly import (_lagrange_integrals, assemble_div_block,
                              assemble_grad_block, assemble_load, assemble_mass_v,
                              assemble_weighted_mass_u, build_block_system)
from parahyp.mesh import build_mesh
from parahyp.quadrature import gauss_legendre_2d
from parahyp.spaces import (ScalarSpace, VectorSpace, eval_scalar_grad, eval_vector,
                            interpolate_scalar, project_vector)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestWeightedMass:
    def test_single_cell_p1(self):
        space = ScalarSpace(build_mesh(1), 1)
        m = assemble_weighted_mass_u(space, 1.0)
        assert m.toarray() == pytest.approx(np.array([[1.0]]), abs=1e-15)

    def test_zero_coefficient(self):
        space = ScalarSpace(build_mesh(2), 2)
        m = assemble_weighted_mass_u(space, 0.0)
        assert abs(m).max() == 0.0

    def test_total_mass_is_one(self):
        space = ScalarSpace(build_mesh(4), 2)
        m = assemble_weighted_mass_u(space, 1.0)
        assert m.sum() == pytest.approx(1.0, abs=1e-13)

    def test_coefficient_linearity(self):
        space = ScalarSpace(build_mesh(8), 2)
        a = assemble_weighted_mass_u(space, co.checkerboard(4))
        b = assemble_weighted_mass_u(space, co.checkerboard_complement(4))
        c = assemble_weighted_mass_u(space, 1.0)
        assert abs(a + b - c).max() <= 1e-15

    def test_symmetry(self):
        space = ScalarSpace(build_mesh(3), 3)
        m = assemble_weighted_mass_u(space, co.constant(0.7))
        assert abs(m - m.T).max() <= 1e-13 * abs(m).max()

    def test_misaligned_coefficient_rejected(self):
        space = ScalarSpace(build_mesh(3), 1)
        with pytest.raises(ValueError):
            assemble_weighted_mass_u(space, co.checkerboard(2))


class TestMassV:
    def test_constant_field_energy(self):
        space = VectorSpace(build_mesh(2), 2)
        coeffs = project_vector(space, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
        mv = assemble_mass_v(space)
        assert coeffs @ (mv @ coeffs) == pytest.approx(1.0, rel=1e-13)

    def test_symmetry(self):
        space = VectorSpace(build_mesh(2), 2)
        mv = assemble_mass_v(space)
        assert abs(mv - mv.T).max() <= 1e-14

    def test_positive_definite(self):
        space = VectorSpace(build_mesh(2), 2)
        mv = assemble_mass_v(space)
        smallest = np.linalg.eigvalsh(mv.toarray()).min()
        assert smallest > 0.0


class TestCouplingBlocks:
    @pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (4, 2), (8, 2)])
    def test_skew_adjointness(self, n, p):
        mesh = build_mesh(n)
        su, sv = ScalarSpace(mesh, p), VectorSpace(mesh, p)
        bd = assemble_div_block(sv, su)
        bg = assemble_grad_block(su, sv)
        assert abs(bd + bg.T).max() <= 1e-12

    def test_constant_field_in_divergence_kernel(self):
        mesh = build_mesh(4)
        su, sv = ScalarSpace(mesh, 2), VectorSpace(mesh, 2)
        bd = assemble_div_block(sv, su)
        coeffs = project_vector(sv, lambda x, y: (np.full_like(x, 0.7),
                                                  np.full_like(x, -0.3)))
        assert np.abs(bd @ coeffs).max() <= 1e-13

    def test_divergence_theorem_on_torus(self):
        mesh = build_mesh(8)
        su, sv = ScalarSpace(mesh, 2), VectorSpace(mesh, 2)
        bd = assemble_div_block(sv, su)
        ones = interpolate_scalar(su, lambda x, y: np.ones_like(x))
        coeffs = project_vector(sv, lambda x, y: (np.sin(2 * np.pi * x),
                                                  np.zeros_like(x)))
        assert abs(ones @ (bd @ coeffs)) <= 1e-13

    def test_constant_u_in_gradient_kernel(self):
        mesh = build_mesh(4)
        su, sv = ScalarSpace(mesh, 2), VectorSpace(mesh, 2)
        bg = assemble_grad_block(su, sv)
        const = interpolate_scalar(su, lambda x, y: np.full_like(x, 2.5))
        assert np.abs(bg @ const).max() <= 1e-13

    def test_grad_block_against_quadrature_oracle(self, rng):
        # <grad u_h, psi> for u_h interpolating sin(2 pi x), checked per
        # entry against an independent per-cell high-order quadrature
        n, p = 4, 3
        mesh = build_mesh(n)
        su, sv = ScalarSpace(mesh, p), VectorSpace(mesh, p)
        cu = interpolate_scalar(su, lambda x, y: np.sin(2 * np.pi * x))
        assembled = assemble_grad_block(su, sv) @ cu
        rule = gauss_legendre_2d(10)
        for dof in rng.integers(0, sv.ndof, size=4):
            unit = np.zeros(sv.ndof)
            unit[dof] = 1.0
            total = 0.0
            for i in range(n):
                for j in range(n):
                    pts = (np.array([i, j]) + rule.nodes) / n
                    grad = eval_scalar_grad(su, cu, pts)
                    psi = eval_vector(sv, unit, pts)
                    total += np.dot(rule.weights, np.sum(grad * psi, axis=1)) / n**2
            assert assembled[dof] == pytest.approx(total, abs=1e-12)

    def test_skew_adjointness_on_random_vectors(self, rng):
        mesh = build_mesh(4)
        su, sv = ScalarSpace(mesh, 2), VectorSpace(mesh, 2)
        bd = assemble_div_block(sv, su)
        bg = assemble_grad_block(su, sv)
        for _ in range(5):
            xu = rng.standard_normal(su.ndof)
            xv = rng.standard_normal(sv.ndof)
            lhs = xu @ (bd @ xv) + xv @ (bg @ xu)
            scale = max(abs(xu @ (bd @ xv)), 1.0)
            assert abs(lhs) <= 1e-11 * scale


class TestLoad:
    def test_unit_source_sums_to_one(self):
        space = ScalarSpace(build_mesh(4), 2)
        load = assemble_load(space, lambda t, x, y: np.ones_like(x), 0.0)
        assert load.sum() == pytest.approx(1.0, rel=1e-13)

    def test_box_source_sums_to_quarter(self):
        space = ScalarSpace(build_mesh(8), 2)
        src = co.source_f()
        load = assemble_load(space, src, 0.5)
        assert load.sum() == pytest.approx(0.25, rel=1e-13)

    def test_box_source_after_cutoff_is_zero(self):
        space = ScalarSpace(build_mesh(8), 2)
        load = assemble_load(space, co.source_f(), 1.2)
        assert np.abs(load).max() == 0.0

    def test_box_load_exact_against_fine_quadrature(self):
        space = ScalarSpace(build_mesh(8), 2)
        src = co.source_f()
        coarse = assemble_load(space, src, 0.5)
        fine = assemble_load(space, src, 0.5, quad_points=12)
        assert coarse == pytest.approx(fine, abs=1e-14)


class TestBlockSystemAndDump:
    def test_block_shapes(self):
        mesh = build_mesh(4)
        su, sv = ScalarSpace(mesh, 2), VectorSpace(mesh, 2)
        blocks = build_block_system(su, sv, co.checkerboard(2),
                                    co.checkerboard_complement(2))
        assert blocks.mu0.shape == (su.ndof, su.ndof)
        assert blocks.b_div.shape == (su.ndof, sv.ndof)
        assert blocks.b_grad.shape == (sv.ndof, su.ndof)
        assert blocks.m0().shape == (blocks.ndof, blocks.ndof)
        assert blocks.coupling().shape == (blocks.ndof, blocks.ndof)

    def test_mu0_singular_with_vanishing_s0(self):
        mesh = build_mesh(4)
        su = ScalarSpace(mesh, 2)
        mu0 = assemble_weighted_mass_u(su, co.checkerboard(2))
        eigvals = np.linalg.eigvalsh(mu0.toarray())
        assert eigvals.min() < 1e-14
        assert eigvals.max() > 0.0

    def test_determinism(self):
        mesh = build_mesh(4)
        su, sv = ScalarSpace(mesh, 2), VectorSpace(mesh, 2)
        a = assemble_div_block(sv, su)
        b = assemble_div_block(sv, su)
        assert abs(a - b).max() == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_rows_match_whole_matrices(self, n):
        # the stencil blocks, placed at the DOFs of their offset cells, are
        # cell 0's owned rows of the whole matrices
        mesh = build_mesh(n)
        for p in (1, 2, 3):
            su, sv = ScalarSpace(mesh, p), VectorSpace(mesh, p)
            for s0, s1 in [(0.8, 0.3), (0.5, 0.5)]:
                blocks = build_block_system(su, sv, s0, s1)
                owned = blocks.owned_dofs()
                n_own = owned.shape[1]
                stencils = {name: blocks.stencil(name) for name in ("m0", "coupling")}
                # the stencil assembles no whole block
                assert not {"mu0", "mu1", "mv", "b_div", "b_grad"} & vars(blocks).keys()
                for name, whole in [("m0", blocks.m0()), ("coupling", blocks.coupling())]:
                    offsets, parts = stencils[name]
                    assert np.array_equal(offsets, np.unique(offsets))
                    rows = np.zeros((n_own, blocks.ndof))
                    rows[:, owned[offsets].ravel()] = np.concatenate(
                        parts.reshape(-1, n_own, n_own), axis=1)
                    expected = whole[owned[0]].toarray()
                    assert abs(rows - expected).max() <= 1e-15 * abs(expected).max()

    def test_blocks_assembled_on_first_use_and_cached(self):
        mesh = build_mesh(4)
        su, sv = ScalarSpace(mesh, 2), VectorSpace(mesh, 2)
        s0, s1 = co.checkerboard(2), co.checkerboard_complement(2)
        blocks = build_block_system(su, sv, s0, s1)
        for name, eager in [("mu0", assemble_weighted_mass_u(su, s0)),
                            ("mu1", assemble_weighted_mass_u(su, s1)),
                            ("mu_unweighted", assemble_weighted_mass_u(su, 1.0)),
                            ("mv", assemble_mass_v(sv)),
                            ("b_div", assemble_div_block(sv, su)),
                            ("b_grad", assemble_grad_block(su, sv))]:
            assert name not in vars(blocks)
            assert getattr(blocks, name) is getattr(blocks, name)
            assert abs(getattr(blocks, name) - eager).max() == 0.0

    def test_integrals_and_owned_dofs_built_once_and_read_only(self):
        mesh = build_mesh(3)
        su, sv = ScalarSpace(mesh, 2), VectorSpace(mesh, 2)
        ints = _lagrange_integrals(2)
        assert _lagrange_integrals(2) is ints
        blocks = build_block_system(su, sv, 0.5, 0.5)
        owned = blocks.owned_dofs()
        assert blocks.owned_dofs() is owned
        assert np.array_equal(owned[:, :4], su.owned_dofs())
        for array in (owned, *ints.values()):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0
        with pytest.raises(TypeError):
            ints["m1"] = np.eye(3)
