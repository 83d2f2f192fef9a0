import numpy as np
import pytest
import scipy.sparse as sparse

from parahyp import coefficients as co
from parahyp import slab
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


def reference_matrices(su, sv, s0, s1):
    """The stacked matrices stitched from the separately assembled blocks."""
    mass_v = assemble_mass_v(sv)
    return {"m0": sparse.block_diag([assemble_weighted_mass_u(su, s0), mass_v], format="csr"),
            "m_unweighted": sparse.block_diag([assemble_weighted_mass_u(su, 1.0), mass_v],
                                              format="csr"),
            "coupling": sparse.bmat([[assemble_weighted_mass_u(su, s1),
                                      assemble_div_block(sv, su)],
                                     [assemble_grad_block(su, sv), None]], format="csr")}


# the (row space, column space) blocks of each stacked matrix, 0 = u, 1 = v
COVERED = {"m0": ((0, 0), (1, 1)), "m_unweighted": ((0, 0), (1, 1)),
           "coupling": ((0, 0), (0, 1), (1, 0))}


def gathered(blocks, name):
    """The whole matrix gathered from ``cell_matrices``: each kind's entries
    on the local slots its blocks cover, expanded to cells and summed in cell
    order, duplicates sorted stably by (row, column)."""
    kind, matrices = blocks.cell_matrices(name)
    part = np.repeat([0, 1], [blocks.space_u.n_loc, blocks.space_v.n_loc])
    covered = sum(np.outer(part == r, part == c) for r, c in COVERED[name])
    slot_rows, slot_cols = np.nonzero(covered)
    dofs = blocks.cell_dofs()
    data = matrices[:, slot_rows, slot_cols][kind].ravel()
    rows, cols = dofs[:, slot_rows].ravel(), dofs[:, slot_cols].ravel()
    order = np.argsort(rows * blocks.ndof + cols, kind="stable")
    return sparse.coo_matrix((data[order], (rows[order], cols[order])),
                             shape=(blocks.ndof, blocks.ndof)).tocsr()


def assert_same_csr(a, b):
    """Equal sparsity structure, explicit zeros included, and equal entries."""
    a, b = a.tocsr(), b.tocsr()
    a.sort_indices()
    b.sort_indices()
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


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
        assert blocks.ndof == su.ndof + sv.ndof
        for name in ("m0", "m_unweighted", "coupling"):
            assert getattr(blocks, name)().shape == (blocks.ndof, blocks.ndof)
            kind, matrices = blocks.cell_matrices(name)
            assert kind.shape == (16,)
            assert matrices.shape == (2, su.n_loc + sv.n_loc, su.n_loc + sv.n_loc)

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
        # the fibre symbols' cell-offset blocks, placed at the DOFs of their
        # offset cells, are cell 0's owned rows of the whole matrices
        mesh = build_mesh(n)
        for p in (1, 2, 3):
            su, sv = ScalarSpace(mesh, p), VectorSpace(mesh, p)
            for s0, s1 in [(0.8, 0.3), (0.5, 0.5)]:
                blocks = build_block_system(su, sv, s0, s1)
                cell_dofs = blocks.cell_dofs()
                owned = cell_dofs[:, slab._owned_slots(cell_dofs)]
                n_own = owned.shape[1]
                slot = np.empty(blocks.ndof, dtype=np.int64)
                slot[owned.ravel()] = np.arange(blocks.ndof)
                terms = {name: slab._symbol_terms(blocks, name, slot)
                         for name in ("m0", "coupling")}
                # the symbols assemble no whole matrix
                assert not blocks._assembled
                for name, whole in [("m0", blocks.m0()), ("coupling", blocks.coupling())]:
                    phases, parts = terms[name]
                    # symbol k = ky n + kx sums block d = j n + i times
                    # exp(2 pi i (kx i + ky j) / n): a DFT back to the blocks
                    symbols = (phases @ parts).reshape(n, n, n_own, n_own)
                    offset_blocks = np.fft.fft2(symbols, axes=(0, 1)) / n**2
                    rows = np.zeros((n_own, blocks.ndof), dtype=complex)
                    rows[:, owned.ravel()] = np.concatenate(
                        offset_blocks.reshape(-1, n_own, n_own), axis=1)
                    expected = whole[owned[0]].toarray()
                    assert abs(rows - expected).max() <= 1e-14 * abs(expected).max()

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_cell_matrices_scatter_to_whole_matrices(self, n):
        mesh = build_mesh(n)
        for p in (1, 2, 3):
            su, sv = ScalarSpace(mesh, p), VectorSpace(mesh, p)
            cases = [(0.8, 0.3, 1)]
            if n % 2 == 0:
                cases.append((co.checkerboard(2), co.checkerboard_complement(2), 2))
            for s0, s1, kinds in cases:
                blocks = build_block_system(su, sv, s0, s1)
                cell_dofs = blocks.cell_dofs()
                n_loc = (p + 1) ** 2 + 2 * p * (p + 1)
                assert cell_dofs.shape == (n * n, n_loc)
                assert blocks.n_kinds == kinds
                for name, whole in reference_matrices(su, sv, s0, s1).items():
                    kind, matrices = blocks.cell_matrices(name)
                    assert matrices.shape == (kinds, n_loc, n_loc)
                    assert kind.shape == (n * n,)
                    rows = np.repeat(cell_dofs, n_loc, axis=1).ravel()
                    cols = np.tile(cell_dofs, (1, n_loc)).ravel()
                    scattered = sparse.coo_matrix((matrices[kind].ravel(), (rows, cols)),
                                                  shape=whole.shape).toarray()
                    expected = whole.toarray()
                    assert abs(scattered - expected).max() <= 1e-15 * abs(expected).max()

    def test_blocks_assembled_on_first_use_and_cached(self):
        # the whole matrices are the blocks stitched from the assemble_*
        # functions, and bit for bit the kinds' element matrices gathered over
        # the cells: the same structure, explicit zeros included, and the same
        # entries
        for n, p in [(n, p) for n in (1, 2, 4) for p in (1, 2, 3, 4)]:
            mesh = build_mesh(n)
            su, sv = ScalarSpace(mesh, p), VectorSpace(mesh, p)
            cases = [(0.8, 0.3)]
            if n % 2 == 0:
                cases.append((co.checkerboard(2), co.checkerboard_complement(2)))
            for s0, s1 in cases:
                blocks = build_block_system(su, sv, s0, s1)
                for name, expected in reference_matrices(su, sv, s0, s1).items():
                    assert name not in blocks._assembled
                    whole = getattr(blocks, name)()
                    assert getattr(blocks, name)() is whole
                    assert_same_csr(whole, expected)
                    oracle = gathered(blocks, name)
                    for part in ("data", "indices", "indptr"):
                        assert np.array_equal(getattr(whole, part), getattr(oracle, part))

    def test_stencil_needs_one_kind_of_cell(self):
        # the fibre symbols need constant coefficients
        mesh = build_mesh(4)
        su, sv = ScalarSpace(mesh, 2), VectorSpace(mesh, 2)
        blocks = build_block_system(su, sv, co.checkerboard(2), co.checkerboard_complement(2))
        assert blocks.n_kinds == 2
        slot = np.arange(blocks.ndof)
        for name in ("m0", "coupling"):
            with pytest.raises(ValueError, match="2 kinds of cell"):
                slab._symbol_terms(blocks, name, slot)
        assert build_block_system(su, sv, 0.5, 0.5).n_kinds == 1

    def test_integrals_and_owned_dofs_built_once_and_read_only(self):
        ints = _lagrange_integrals(2)
        assert _lagrange_integrals(2) is ints
        for array in ints.values():
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0
        with pytest.raises(TypeError):
            ints["m1"] = np.eye(3)
        # the stacked ownership is u's, then v's shifted by ndof_u; the
        # Floquet-Bloch path derives it once, with its inverse
        mesh = build_mesh(3)
        su, sv = ScalarSpace(mesh, 2), VectorSpace(mesh, 2)
        blocks = build_block_system(su, sv, 0.5, 0.5)
        u_owned = su.cell_dofs[:, slab._owned_slots(su.cell_dofs)]
        v_owned = sv.cell_dofs[:, slab._owned_slots(sv.cell_dofs)]
        owned = np.concatenate([u_owned, su.ndof + v_owned], axis=1)
        cell_dofs = blocks.cell_dofs()
        assert np.array_equal(cell_dofs[:, slab._owned_slots(cell_dofs)], owned)
        eig = slab._temporal_eigenbasis(slab.SlabBasis(1, 1.0, 1 / 4))
        fibres = slab._BlochFibres(blocks, eig, np.zeros(blocks.ndof))
        assert np.array_equal(fibres._perm, owned.ravel())
        assert np.array_equal(fibres._order[fibres._perm], np.arange(blocks.ndof))
