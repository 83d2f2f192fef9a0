import dataclasses

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from parahyp import coefficients as co
from parahyp import slab
from parahyp.assembly import BlockSystem, assemble_load, build_block_system
from parahyp.mesh import build_mesh
from parahyp.quadrature import exponential_moments
from parahyp.slab import SlabBasis, atomic_open, load_solution, run, save_solution
from parahyp.spaces import FieldPair, ScalarSpace, VectorSpace


def constant_source(value=1.0, window=(0.0, 1.0)):
    lo, hi = window
    return co.SeparableSource(
        time_factor=lambda t: 1.0 if lo < t < hi else 0.0,
        spatial=lambda x, y: np.full_like(np.asarray(x, dtype=float), value))


def ode_problem(T, s0=0.5, s1=0.5, rho=1.0):
    return co.ProblemData(s0=co.constant(s0), s1=co.constant(s1),
                          source=constant_source(), T=T, rho=rho)


def build_slab_system(blocks, basis):
    """The full slab matrix kron(K, M0) + kron(diag(w), M1 + A)."""
    return (sparse.kron(sparse.csr_matrix(basis.K), blocks.m0())
            + sparse.kron(sparse.diags(basis.weights), blocks.coupling())).tocsr()


def run_direct(problem, n, p, q, tau, x0=None, discrete_forcing=None):
    """The coefficients (M, q+1, ndof) that ``run`` computes, from one sparse
    LU of the full slab matrix: the oracle of the decoupled paths, which
    uses no temporal eigenbasis.  Each slab solves for the weighted loads
    plus the jump flux l(0) M0 U_prev."""
    mesh = build_mesh(n)
    blocks = build_block_system(ScalarSpace(mesh, p), VectorSpace(mesh, p),
                                problem.s0, problem.s1)
    basis = SlabBasis(q, problem.rho, tau)
    loads = slab._Loads(blocks, basis, problem.source, discrete_forcing)
    lu = spla.splu(build_slab_system(blocks, basis).tocsc(), **slab._SPLU_OPTIONS)
    m0 = blocks.m0()
    prev = np.zeros(blocks.ndof) if x0 is None else x0.concat()
    coeffs = np.empty((slab.slab_count(problem.T, tau), q + 1, blocks.ndof))
    for m, out in enumerate(coeffs):
        load = loads(m) if loads.spatial is None \
            else np.outer(loads.factors(m), loads.spatial)
        rhs = basis.weights[:, None] * load + np.outer(basis.left_values, m0 @ prev)
        out[:] = lu.solve(rhs.ravel()).reshape(out.shape)
        prev = out[-1]
    return coeffs


def scalar_dg_oracle(q, rho, tau, n_slabs, s0, s1, f_const, u0):
    """Independent dense dG solve of s0 u' + s1 u = f via monomial time basis
    and exact weighted moments (no Lagrange/Radau machinery shared with the
    production path)."""
    mu = exponential_moments(rho, tau, 2 * q + 1)
    A = np.zeros((q + 1, q + 1))
    for j in range(q + 1):
        for i in range(q + 1):
            if i > 0:
                A[j, i] += s0 * i * mu[i + j - 1]
            A[j, i] += s1 * mu[i + j]
    A[0, 0] += s0
    prev = u0
    slabs = []
    for _ in range(n_slabs):
        b = np.array([f_const * mu[j] for j in range(q + 1)])
        b[0] += s0 * prev
        a = np.linalg.solve(A, b)
        slabs.append(a)
        prev = float(np.polynomial.polynomial.polyval(tau, a))
    return slabs


class TestSlabBasis:
    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_lagrange_identities(self, q):
        basis = SlabBasis(q, 1.0, 0.3)
        s = np.linspace(0.0, 0.3, 7)
        vals = basis.lagrange.values(s)
        assert vals.sum(axis=1) == pytest.approx(np.ones(7), abs=1e-12)
        assert basis.left_values.sum() == pytest.approx(1.0, abs=1e-12)
        derivs = basis.lagrange.derivatives(s)
        assert derivs.sum(axis=1) == pytest.approx(np.zeros(7), abs=1e-9)

    def test_q0_time_matrices(self):
        basis = SlabBasis(0, 2.0, 0.5)
        assert basis.K.ravel() == pytest.approx([1.0], abs=1e-14)
        w0 = exponential_moments(2.0, 0.5, 0)[0]
        assert basis.weights == pytest.approx([w0], rel=1e-13)
        assert basis.left_values == pytest.approx([1.0])


class TestTemporalEigenbasis:
    @pytest.mark.parametrize("q", range(8))
    def test_one_row_per_real_eigenvalue_or_pair(self, q):
        # the measured bands: q = 0 is never refused up to rho tau = 100, and
        # every q <= 7 is accepted below rho tau = 6.5, on short and long slabs
        grid = np.arange(0.0, 100.5, 0.5)
        for rho_tau in grid if q == 0 else grid[grid < 6.5]:
            for tau in (1.0, 1 / 4, 1 / 192):
                basis = SlabBasis(q, rho_tau / tau, tau)
                eig = slab._temporal_eigenbasis(basis)
                assert np.all(eig.lam.imag >= 0)
                lam = np.linalg.eigvals(basis.K / basis.weights[:, None])
                n_real = np.sum(np.abs(lam.imag) <= 1e-12 * np.abs(lam))
                assert len(eig.lam) == n_real + (q + 1 - n_real) // 2
                assert eig.vinv.shape == (len(eig.lam), q + 1)
                assert eig.w.shape == (q + 1, len(eig.lam))
                # the recombination reconstructs the identity, as accurately
                # as the conditioning of V allows (cond(V) ~ 4e3 at q = 7)
                bound = max(1e-12, 1e-13 * eig.meta["eigenbasis_cond"])
                assert np.abs((eig.w @ eig.vinv).real - np.eye(q + 1)).max() <= bound
        # beyond the bands, each refused
        refused = {2: 20.0, 5: 10.0, 7: 7.0}
        if q in refused:
            rho_tau = refused[q]
            with pytest.raises(ValueError, match=rf"q={q} slabs at rho\*tau={rho_tau:g} .*"
                                                 r"use shorter slabs or a lower q$"):
                slab._temporal_eigenbasis(SlabBasis(q, 4 * rho_tau, 1 / 4))

    def test_run_refuses_when_recombination_misses_identity(self, monkeypatch):
        # q = 5, rho tau = 10: V V^-1 is the identity to 6e-9, but Re(w @ vinv)
        # only to 3e-6, and the decoupled solution would be that far off;
        # refused before the mesh and blocks are built
        def not_reached(*args):
            raise AssertionError("assembled before checking the eigenbasis")

        monkeypatch.setattr(slab, "build_block_system", not_reached)
        prob = co.rough_problem(2, T=2.0, rho=10.0)
        with pytest.raises(ValueError, match=r"^the temporal eigenbasis of q=5 slabs at "
                                             r"rho\*tau=10 is too ill-conditioned \(residual "
                                             r".*\); use shorter slabs or a lower q$"):
            run(prob, n=2, p=1, q=5, tau=1.0)


class TestSlabSystem:
    def test_dimensions(self):
        mesh = build_mesh(2)
        su, sv = ScalarSpace(mesh, 2), VectorSpace(mesh, 2)
        blocks = build_block_system(su, sv, co.constant(0.5), co.constant(0.5))
        system = build_slab_system(blocks, SlabBasis(1, 1.0, 0.25))
        assert system.shape == (2 * (16 + 32), 2 * (16 + 32))

    def test_q0_scalar_reduction_is_implicit_euler_like(self):
        # n=1, p=1: the scalar row is (1 + w0 s1) u = w0 f + s0 u_prev
        mesh = build_mesh(1)
        su, sv = ScalarSpace(mesh, 1), VectorSpace(mesh, 1)
        blocks = build_block_system(su, sv, co.constant(1.0), co.constant(1.0))
        basis = SlabBasis(0, 1.0, 0.5)
        system = build_slab_system(blocks, basis).toarray()
        w0 = basis.weights[0]
        assert system[0, 0] == pytest.approx(1.0 + w0, rel=1e-13)

    def test_sparsity_grows_linearly_with_cells(self):
        ratios = []
        for n in (2, 4, 8):
            mesh = build_mesh(n)
            su, sv = ScalarSpace(mesh, 2), VectorSpace(mesh, 2)
            blocks = build_block_system(su, sv, co.constant(0.5), co.constant(0.5))
            system = build_slab_system(blocks, SlabBasis(1, 1.0, 0.25))
            ratios.append(system.nnz / mesh.n_cells)
        assert max(ratios) / min(ratios) < 1.3


class TestLoads:
    """``run`` integrates every source by one rule, p+2 Gauss points per direction."""

    @staticmethod
    def loads(p, source):
        mesh = build_mesh(3)
        blocks = build_block_system(ScalarSpace(mesh, p), VectorSpace(mesh, p), 0.8, 0.3)
        basis = SlabBasis(1, 1.0, 1 / 4)
        return blocks.space_u, basis, slab._Loads(blocks, basis, source)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_separable_and_general_sources_take_p_plus_2_points(self, p):
        separable = co.SeparableSource(time_factor=lambda t: 1 + t,
                                       spatial=lambda x, y: np.sin(3 * x) * np.cos(2 * y))
        space, _, loads = self.loads(p, separable)
        expected = assemble_load(space, lambda t, x, y: separable.spatial(x, y), 0.0,
                                 quad_points=p + 2)
        assert np.array_equal(loads.spatial[:space.ndof], expected)

        def general(t, x, y):
            return np.sin(3 * (x - t)) * np.cos(2 * y) + t * x

        space, basis, loads = self.loads(p, general)
        assert loads.spatial is None
        for m in (0, 2):
            for row, t in zip(loads(m), basis.node_times(m)):
                expected = assemble_load(space, general, float(t), quad_points=p + 2)
                assert np.array_equal(row[:space.ndof], expected)
                assert not row[space.ndof:].any()

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_polynomial_source_of_degree_p_plus_3_is_exact(self, p):
        def poly(t, x, y):
            return (1 + t) * (x ** (p + 3) - 2 * x) * (y ** (p + 3) + y ** 2)

        space, basis, loads = self.loads(p, poly)
        for row, t in zip(loads(1), basis.node_times(1)):
            reference = assemble_load(space, poly, float(t), quad_points=12)
            assert np.abs(row[:space.ndof] - reference).max() <= 1e-13 * np.abs(reference).max()


class TestAgainstScalarOracle:
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_nodal_values_match(self, q):
        tau, n_slabs = 1.0 / 8, 4
        prob = ode_problem(T=0.5)
        sol = run(prob, n=2, p=1, q=q, tau=tau)
        oracle = scalar_dg_oracle(q, 1.0, tau, n_slabs, 0.5, 0.5, 1.0, 0.0)
        for m in range(n_slabs):
            for i, s in enumerate(sol.basis.nodes):
                expected = np.polynomial.polynomial.polyval(s, oracle[m])
                assert sol.coeffs[m, i, : sol.ndof_u] == pytest.approx(
                    expected, abs=1e-12)

    def test_exponential_decay_superconvergence(self):
        # u' = -u via s0 = s1 = 1, f = 0: right-trace error order 2q+1 = 3
        prob = co.ProblemData(s0=co.constant(1.0), s1=co.constant(1.0),
                              source=constant_source(0.0), T=1.0, rho=1.0)
        errs = []
        for tau in (1 / 4, 1 / 8, 1 / 16, 1 / 32):
            x0 = FieldPair(u=np.ones(1), v=np.zeros(2))
            sol = run(prob, n=1, p=1, q=1, tau=tau, x0=x0)
            traces = np.array([sol.right_trace(m).u[0] for m in range(sol.n_slabs)])
            t = np.arange(1, sol.n_slabs + 1) * tau
            errs.append(np.max(np.abs(traces - np.exp(-t))))
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert orders.min() >= 2.7


class TestRunBehaviour:
    def test_zero_data_zero_solution(self):
        prob = co.ProblemData(s0=co.constant(0.5), s1=co.constant(0.5),
                              source=constant_source(0.0), T=0.5, rho=1.0)
        sol = run(prob, n=2, p=1, q=1, tau=1 / 4)
        assert np.abs(sol.coeffs).max() == 0.0

    def test_ode_exact_solution_tracked(self):
        # 0.5 u' + 0.5 u = 1, u(0) = 0  ->  u = 2 (1 - e^{-t}); v stays zero
        sol = run(ode_problem(T=0.5), n=2, p=1, q=1, tau=1 / 32)
        traces = np.array([sol.right_trace(m).u[0] for m in range(sol.n_slabs)])
        t = np.arange(1, sol.n_slabs + 1) * sol.tau
        assert np.max(np.abs(traces - 2 * (1 - np.exp(-t)))) <= 1e-3
        assert np.abs(sol.coeffs[:, :, sol.ndof_u:]).max() <= 1e-10

    def test_spatial_constancy_of_ode_reduction(self):
        sol = run(ode_problem(T=0.5), n=4, p=2, q=1, tau=1 / 8)
        u = sol.coeffs[:, :, : sol.ndof_u]
        spread = (u.max(axis=2) - u.min(axis=2)).max()
        assert spread <= 1e-10

    def test_causality(self):
        src = co.SeparableSource(time_factor=lambda t: 1.0 if t > 0.25 else 0.0,
                                 spatial=lambda x, y: np.ones_like(x))
        prob = co.ProblemData(s0=co.constant(0.5), s1=co.constant(0.5),
                              source=src, T=0.5, rho=1.0)
        sol = run(prob, n=2, p=1, q=1, tau=1 / 16)
        quiet = sol.coeffs[:4]   # slabs entirely before t = 0.25
        assert np.abs(quiet).max() <= 1e-12

    def test_rough_problem_smoke(self):
        sol = run(co.rough_problem(2, T=1.5), n=4, p=2, q=1, tau=1 / 4)
        assert sol.n_slabs == 6
        assert np.isfinite(sol.coeffs).all()
        assert np.abs(sol.coeffs).max() > 0.0

    def test_direct_and_decoupled_agree(self):
        prob = co.rough_problem(2, T=0.75)
        for q in range(5):
            a = run_direct(prob, n=4, p=2, q=q, tau=1 / 4)
            b = run(prob, n=4, p=2, q=q, tau=1 / 4)
            assert b.meta["solver"] == "decoupled"
            scale = np.abs(a).max()
            assert np.abs(a - b.coeffs).max() <= 1e-11 * max(scale, 1.0)

    def test_auto_decouples_small_systems(self):
        sol = run(co.rough_problem(2, T=0.5), n=2, p=1, q=1, tau=1 / 4)
        assert sol.meta["solver"] == "decoupled"

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_bloch_fibres_agree_with_direct(self, n):
        prob = co.homogenised_problem(T=0.5)
        for p in (1, 2, 3):
            mesh = build_mesh(n)
            ndof_u = ScalarSpace(mesh, p).ndof
            ndof = ndof_u + VectorSpace(mesh, p).ndof
            # a random start excites every fibre, not only the constant mode,
            # and every character of the point group
            x0 = FieldPair.split(np.random.default_rng(n * p).standard_normal(ndof), ndof_u)
            # at n = p = 1 the character (-1, 1) holds no DOF
            characters = 4 if n * p > 1 else 3
            for q in range(5):
                b = self.assert_fibre_loop_matches_direct(prob, n, p, q, x0=x0)
                assert b.meta["symmetry_blocks"] == characters
            # from rest the invariant box source reaches the trivial character alone
            b = self.assert_fibre_loop_matches_direct(prob, n, p, 1)
            assert b.meta["symmetry_blocks"] == 1
            assert 0.0 <= b.meta["symmetry_dropped"] < 1e-12

    @pytest.mark.parametrize("s0, s1", [(0.0, 0.7), (0.6, 0.0)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_bloch_fibres_with_degenerate_constants(self, n, s0, s1):
        # s0 = 0 leaves the Schur complement without its u-mass term, s1 = 0
        # without its damping term
        prob = co.ProblemData(s0=co.constant(s0), s1=co.constant(s1),
                              source=co.source_f(), T=0.5)
        mesh = build_mesh(n)
        for p in (1, 2, 3):
            ndof_u = ScalarSpace(mesh, p).ndof
            ndof = ndof_u + VectorSpace(mesh, p).ndof
            x0 = FieldPair.split(np.random.default_rng(n * p).standard_normal(ndof), ndof_u)
            for q in (1, 2):
                b = self.assert_fibre_loop_matches_direct(prob, n, p, q, x0=x0)
                assert b.meta["symmetry_blocks"] == 4
                b = self.assert_fibre_loop_matches_direct(prob, n, p, q)
                assert b.meta["symmetry_blocks"] == 1

    @staticmethod
    def bloch_fibres(n, p, q):
        prob = co.ProblemData(s0=co.constant(0.8), s1=co.constant(0.3),
                              source=co.source_f(), T=0.5)
        mesh = build_mesh(n)
        blocks = build_block_system(ScalarSpace(mesh, p), VectorSpace(mesh, p), prob.s0, prob.s1)
        basis = SlabBasis(q, prob.rho, 1 / 4)
        loads = slab._Loads(blocks, basis, prob.source)
        fibres = slab._make_factorisation(blocks, slab._temporal_eigenbasis(basis), loads)
        assert fibres.meta["spatial_solver"] == "bloch"
        return blocks, loads, fibres

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
    def test_fibre_action_and_orbit_representatives(self, n):
        for p in (1, 2, 3):
            blocks, _, fibres = self.bloch_fibres(n, p, 1)
            elements = sources, signs = slab._elements(slab._point_group(blocks))
            images, slots, factor = slab._fibre_action(elements, n, fibres._perm,
                                                          fibres._order)
            x = np.random.default_rng(n * p).standard_normal(blocks.ndof)
            x_hat = fibres.to_fibres(x)
            # (T_g x)^[k, l] = factor[g, k, l] x^[A_g k, pi_g(l)] for s, r and sr
            for g in (1, 2, 3):
                lhs = fibres.to_fibres(signs[g] * x[sources[g]])
                rhs = factor[g] * x_hat[images[g]][:, slots[g]]
                assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()
            fibre = np.arange(n * n)
            # A_s swaps (ky, kx), A_r negates both, modulo n
            k_y, k_x = np.divmod(fibre, n)
            assert np.array_equal(images[1], k_x * n + k_y)
            assert np.array_equal(images[2], (-k_y % n) * n + (-k_x % n))
            # every orbit holds exactly one representative, its least fibre,
            # and the recorded element maps each fibre onto it
            reps = fibres._reps
            assert all(len(set(images[:, k]) & set(reps)) == 1 for k in fibre)
            assert np.array_equal(reps[fibres._rep_of], images.min(axis=0))
            assert np.array_equal(images[fibres._via, fibre], reps[fibres._rep_of])
            # Burnside: fibres fixed by e, s, r and sr
            assert len(reps) == (n * n + n + (4 if n % 2 == 0 else 1) + n) // 4
            assert fibres.meta["fibres"] == len(reps)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_eliminated_fibre_operator_matches_dense_inverse(self, monkeypatch, n, q):
        # q = 0 plans one real eigenvalue, q = 1 one conjugate pair, q = 2 one
        # of each; even n has four self-conjugate fibres, odd n one; a chunk
        # of two representative fibres splits the build into several batches
        p = 2
        for chunk in (slab._BlochFibres._CHUNK, 2):
            monkeypatch.setattr(slab._BlochFibres, "_CHUNK", chunk)
            blocks, loads, fibres = self.bloch_fibres(n, p, q)
            reps = fibres._reps
            n_own = 3 * p * p
            m0_hat, c_hat = ((phases[reps] @ terms).reshape(len(reps), n_own, n_own)
                             for phases, terms in (slab._symbol_terms(blocks, name, fibres._order)
                                                   for name in ("m0", "coupling")))
            fibres.initial_state(np.zeros(blocks.ndof))
            assert fibres.meta["symmetry_blocks"] == 1
            rng = np.random.default_rng(5)
            p_hat = rng.standard_normal((len(reps), n_own)) \
                + 1j * rng.standard_normal((len(reps), n_own))
            l_hat = fibres.to_fibres(loads.spatial)[reps]
            rows = len(fibres._lam)
            assert rows == max(q, 1)
            # the operators live on the representatives, the load response as
            # its u block alone, for the load's one character
            assert fibres._x.shape == (rows, len(reps), p * p, n_own)
            assert fibres._h.keys() == {0}
            assert fibres._h[0].shape == (rows, len(reps), p * p)
            out = np.empty((rows, len(reps), n_own), dtype=complex)
            jumps = fibres.row_solutions(p_hat, np.zeros(rows), fibres._h[0], out.copy())
            responses = fibres.row_solutions(np.zeros_like(p_hat), np.ones(rows),
                                             fibres._h[0], out)
            for r, lam in enumerate(fibres._lam):
                a_hat = lam * m0_hat + c_hat
                dense = fibres._beta[r] * np.linalg.solve(a_hat, m0_hat @ p_hat[..., None])[..., 0]
                assert np.abs(jumps[r] - dense).max() <= 1e-12 * np.abs(dense).max()
                # A_i^-1 L^, the separable load's fibre response
                dense = np.linalg.solve(a_hat, l_hat[..., None])[..., 0]
                assert np.abs(responses[r] - dense).max() <= 1e-12 * np.abs(dense).max()

    @staticmethod
    def assert_fibre_loop_matches_direct(prob, n, p, q, spatial="bloch", **kwargs):
        a = run_direct(prob, n=n, p=p, q=q, tau=1 / 4, **kwargs)
        b = run(prob, n=n, p=p, q=q, tau=1 / 4, **kwargs)
        assert (b.meta["solver"], b.meta["spatial_solver"]) == ("decoupled", spatial)
        scale = np.abs(a).max()
        assert scale > 0.0
        assert np.abs(a - b.coeffs).max() <= 1e-11 * max(scale, 1.0)
        return b

    @pytest.mark.parametrize("N, n", [(2, 2), (2, 4), (2, 8), (4, 4), (4, 8)])
    def test_condensed_rows_agree_with_direct(self, N, n):
        prob = co.rough_problem(N, T=0.5)
        mesh = build_mesh(n)
        for p in (1, 2, 3):
            ndof_u = ScalarSpace(mesh, p).ndof
            ndof = ndof_u + VectorSpace(mesh, p).ndof
            # a random start excites every mode, the cell interiors included,
            # and every character of the point group
            rng = np.random.default_rng(n * p)
            x0 = FieldPair.split(rng.standard_normal(ndof), ndof_u)
            for q in range(5):
                sol = self.assert_fibre_loop_matches_direct(prob, n, p, q, "splu", x0=x0)
                assert sol.meta["symmetry_blocks"] == 4
            # the study's data are invariant under the group: the trivial
            # character's block alone; a random forcing reaches all four
            forcing = rng.standard_normal((2, 2, ndof))
            for kwargs, blocks in (({}, 1), ({"discrete_forcing": forcing}, 4)):
                sol = self.assert_fibre_loop_matches_direct(prob, n, p, 1, "splu", **kwargs)
                assert sol.meta["symmetry_blocks"] == blocks

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_interior_split(self, n):
        mesh = build_mesh(n)
        for p in (1, 2, 3):
            blocks = build_block_system(ScalarSpace(mesh, p), VectorSpace(mesh, p), 0.8, 0.3)
            cell_dofs = blocks.cell_dofs()
            inner = slab._interior_slots(cell_dofs)
            # the interior Q_p nodes (a, b) at b (p+1) + a, then the RT_{p-1}
            # values between each component's two edges
            k = p - 1
            nodes = (np.arange(1, p)[:, None] * (p + 1) + np.arange(1, p)).ravel()
            values = (p + 1) ** 2 + np.arange(k + 1, (k + 1) ** 2)
            expected = np.concatenate([nodes, values, values + (k + 2) * (k + 1)])
            assert np.array_equal(inner, expected)
            assert len(inner) == (p - 1) ** 2 + 2 * p * (p - 1)
            if p == 1:
                assert inner.size == 0
            # each interior DOF occurs in exactly one row and one slot
            interior = cell_dofs[:, inner].ravel()
            assert np.all(np.bincount(cell_dofs.ravel())[interior] == 1)
            outer = np.setdiff1d(np.arange(cell_dofs.shape[1]), inner)
            assert not np.isin(cell_dofs[:, outer], interior).any()
            basis = SlabBasis(1, 1.0, 1 / 4)
            steps = slab._SpluSteps(blocks, slab._temporal_eigenbasis(basis))
            # the interiors of the 2n - n % 2 cells on the two diagonals, which
            # s or sr fixes, stay on the skeleton
            diagonal = 2 * n - n % 2
            assert steps.skeleton_dofs == n * n * (3 * p * p - (p - 1) ** 2 - 2 * p * (p - 1)) \
                + diagonal * len(inner)
            assert steps.skeleton_dofs == blocks.ndof - len(inner) * (n * n - diagonal)

    @staticmethod
    def expansion(ch, ndof):
        """E_chi as a sparse matrix: DOF d holds coef[d] u[index[d]]."""
        return sparse.csr_matrix((ch.coef, (np.arange(ndof), ch.index)), shape=(ndof, ch.size))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cell_jump_flux_matches_assembled_m0(self, n):
        # E^T M0 E u formed on the representative cells, weighted by orbit
        # size, against the assembled M0, for the components of a random start
        rng = np.random.default_rng(n)
        mesh = build_mesh(n)
        eig = slab._temporal_eigenbasis(SlabBasis(2, 1.0, 1 / 4))
        for p in (1, 2, 3):
            su, sv = ScalarSpace(mesh, p), VectorSpace(mesh, p)
            cases = [(0.8, 0.3)]
            if n % 2 == 0:
                cases.append((co.checkerboard(2), co.checkerboard_complement(2)))
            for s0, s1 in cases:
                blocks = build_block_system(su, sv, s0, s1)
                steps = slab._SpluSteps(blocks, eig)
                prev = rng.standard_normal(blocks.ndof)
                state = steps.initial_state(prev)
                assert not blocks._assembled
                # every character with an orbit (at n = p = 1 one has none)
                assert sorted(state) == [chi for chi, ch in enumerate(steps._chars) if ch.size]
                parts = np.zeros(blocks.ndof)
                for chi, u in state.items():
                    ch = steps._chars[chi]
                    e = self.expansion(ch, blocks.ndof)
                    parts += e @ u
                    expected = e.T @ (blocks.m0() @ (e @ u))
                    got = steps._jump(ch, u)
                    assert abs(got - expected).max() <= 1e-15 * abs(expected).max()
                # the components sum to the start
                assert abs(parts - prev).max() <= 1e-15 * abs(prev).max()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_fibre_loop_with_discrete_forcing(self, n):
        # constant coefficients with a discrete forcing take the sparse-LU rows
        for rho in (0.0, 3.0):
            prob = co.homogenised_problem(T=0.5, rho=rho)
            for q in range(5):
                p = 1 + q % 3
                mesh = build_mesh(n)
                ndof = ScalarSpace(mesh, p).ndof + VectorSpace(mesh, p).ndof
                forcing = np.random.default_rng(10 * n + q).standard_normal((2, q + 1, ndof))
                self.assert_fibre_loop_matches_direct(prob, n, p, q, "splu",
                                                      discrete_forcing=forcing)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_fibre_loop_with_non_separable_source(self, n):
        # constant coefficients with a non-separable source take the sparse-LU rows
        def travelling(t, x, y):
            return np.sin(2 * np.pi * (x - t)) * np.cos(2 * np.pi * y) + t * x

        for rho in (0.0, 3.0):
            prob = co.ProblemData(s0=co.constant(0.8), s1=co.constant(0.3),
                                  source=travelling, T=0.5, rho=rho)
            for q in range(5):
                self.assert_fibre_loop_matches_direct(prob, n, 1 + q % 3, q, "splu")

    @pytest.mark.parametrize("problem", ["hom", "rough"])
    def test_whole_matrices_built_at_most_once(self, monkeypatch, problem):
        calls = {"m0": 0, "coupling": 0}
        for name in calls:
            original = getattr(BlockSystem, name)

            def counted(self, name=name, original=original):
                calls[name] += 1
                return original(self)

            monkeypatch.setattr(BlockSystem, name, counted)
        prob = co.rough_problem(2, T=0.75) if problem == "rough" \
            else co.homogenised_problem(T=0.75)
        sol = run(prob, n=4, p=2, q=2, tau=1 / 4)
        # the condensed sparse-LU rows read C and the jump flux's M0 from the
        # element matrices, the fibre path its symbols from them
        assert sol.meta["spatial_solver"] == {"hom": "bloch", "rough": "splu"}[problem]
        assert calls == {"m0": 0, "coupling": 0}

    @pytest.mark.parametrize("case", ["hom", "rough", "forcing"])
    def test_whole_blocks_assembled_once_and_only_when_used(self, monkeypatch, case):
        built = {}
        assemble = BlockSystem._assemble

        def counted(self, name):
            built[name] = built.get(name, 0) + 1
            return assemble(self, name)

        monkeypatch.setattr(BlockSystem, "_assemble", counted)
        prob = co.rough_problem(2, T=0.75) if case == "rough" \
            else co.homogenised_problem(T=0.75)
        mesh = build_mesh(4)
        forcing = None
        if case == "forcing":
            ndof = ScalarSpace(mesh, 2).ndof + VectorSpace(mesh, 2).ndof
            forcing = np.random.default_rng(4).standard_normal((3, 3, ndof))
        sol = run(prob, n=4, p=2, q=2, tau=1 / 4, discrete_forcing=forcing)
        expected = {"hom": {}, "rough": {}, "forcing": {"m_unweighted": 1}}[case]
        assert built == expected
        assert sol.meta["spatial_solver"] == {"hom": "bloch"}.get(case, "splu")

    def test_rough_problem_keeps_sparse_lu(self):
        sol = run(co.rough_problem(2, T=0.5), n=4, p=2, q=1, tau=1 / 4)
        assert (sol.meta["solver"], sol.meta["spatial_solver"]) == ("decoupled", "splu")

    def test_eigenbasis_diagnostics_recorded(self):
        for q in range(5):
            meta = run(co.rough_problem(2, T=0.5), n=2, p=1, q=q, tau=1 / 4).meta
            assert 0.0 <= meta["eigenbasis_residual"] <= 1e-8
            assert 1.0 <= meta["eigenbasis_cond"] < np.inf

    @pytest.mark.parametrize("slabs", [1, 3])
    def test_discrete_forcing_shape_checked_before_factorising(self, monkeypatch, slabs):
        # T = 0.5, tau = 1/4: two slabs; n = 2, p = 1 gives 4 + 8 DOFs
        def not_reached(*args):
            raise AssertionError("factorised before checking the forcing")

        monkeypatch.setattr(slab, "_make_factorisation", not_reached)
        forcing = np.zeros((slabs, 2, 12))
        with pytest.raises(ValueError, match=r"expected \(n_slabs, q\+1, ndof\) = \(2, 2, 12\)"):
            run(ode_problem(T=0.5), n=2, p=1, q=1, tau=1 / 4, discrete_forcing=forcing)

    def test_rejects_non_integer_slab_count(self):
        with pytest.raises(ValueError):
            run(ode_problem(T=0.5), n=2, p=1, q=1, tau=0.3)


class TestPointGroup:
    @staticmethod
    def cases(n, p):
        mesh = build_mesh(n)
        su, sv = ScalarSpace(mesh, p), VectorSpace(mesh, p)
        cases = [build_block_system(su, sv, 0.8, 0.3)]
        if n % 2 == 0:
            cases.append(build_block_system(su, sv, co.checkerboard(2),
                                            co.checkerboard_complement(2)))
        return cases

    @staticmethod
    def matrix(source, sign):
        return sparse.csr_matrix((sign, (np.arange(len(source)), source)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_signed_permutations_commute_with_the_operators(self, n):
        for p in (1, 2, 3):
            for blocks in self.cases(n, p):
                interior = np.zeros(blocks.ndof, dtype=bool)
                interior[blocks.cell_dofs()[:, slab._interior_slots(blocks.cell_dofs())]] = True
                # s is exact and r holds to the rounding of the reversed 1-D
                # nodes; at n <= 2 the periodic wrap sums an entry's element
                # terms, some of which cancel, in another order
                tols = (0.0, 1e-15) if n > 2 else (1e-14, 1e-14)
                for (source, sign), tol in zip(slab._point_group(blocks), tols):
                    assert np.array_equal(np.sort(source), np.arange(blocks.ndof))
                    assert np.all(np.abs(sign) == 1.0)
                    t = self.matrix(source, sign)
                    for op in (blocks.m0(), blocks.coupling()):
                        diff = abs(t @ op - op @ t).max()
                        assert diff <= tol * abs(op).max()
                    # interior slots onto interior slots: T_g restricts to the skeleton
                    assert np.array_equal(interior[source], interior)

    def test_rough_solution_is_invariant(self):
        sol = run(co.rough_problem(2, T=0.5), n=8, p=3, q=1, tau=1 / 8)
        blocks = build_block_system(sol.space_u, sol.space_v, co.checkerboard(2),
                                    co.checkerboard_complement(2))
        x = sol.coeffs.reshape(-1, blocks.ndof)
        for source, sign in slab._point_group(blocks):
            assert abs(sign * x[:, source] - x).max() <= 1e-13 * abs(x).max()

    @pytest.mark.parametrize("cells, name", [([1.0, 2.0, 3.0, 1.0], "s"),
                                             ([1.0, 2.0, 2.0, 3.0], "r")])
    def test_non_invariant_coefficients_rejected(self, cells, name):
        # n = 2: s swaps cells 1 and 2, r swaps 0 with 3 and 1 with 2
        mesh = build_mesh(2)
        su, sv = ScalarSpace(mesh, 2), VectorSpace(mesh, 2)
        eig = slab._temporal_eigenbasis(SlabBasis(1, 1.0, 1 / 4))
        for s0, s1 in ((np.array(cells), 0.5), (0.5, np.array(cells))):
            blocks = build_block_system(su, sv, s0, s1)
            with pytest.raises(ValueError, match=f"not invariant under {name}:"):
                slab._SpluSteps(blocks, eig)


class TestCharacterRuns:
    """A sparse-LU run is one reduced run per character of the point group
    that its inputs reach, each matched against the direct LU."""

    @staticmethod
    def projector(blocks, chi):
        """P_chi = (I + chi(s) T_s) (I + chi(r) T_r) / 4."""
        c_s, c_r = slab._CHARACTERS[chi]
        eye = sparse.identity(blocks.ndof)
        t_s, t_r = (TestPointGroup.matrix(*generator) for generator in slab._point_group(blocks))
        return (eye + c_s * t_s) @ (eye + c_r * t_r) / 4

    @staticmethod
    def blocks(prob, n, p):
        mesh = build_mesh(n)
        return build_block_system(ScalarSpace(mesh, p), VectorSpace(mesh, p), prob.s0, prob.s1)

    @pytest.mark.parametrize("source, characters", [("box", (0, 3)), ("none", (1, 2))])
    def test_start_in_two_characters_runs_two(self, source, characters):
        # the box source lies in the trivial character, no source in none
        prob = co.rough_problem(2, T=0.75)
        if source == "none":
            prob = dataclasses.replace(prob, source=constant_source(0.0))
        n, p = 8, 2
        blocks = self.blocks(prob, n, p)
        z = np.random.default_rng(3).standard_normal(blocks.ndof)
        x0 = sum(self.projector(blocks, chi) @ z for chi in characters)
        x0 = FieldPair.split(x0, blocks.space_u.ndof)
        for q in (1, 2):
            sol = TestRunBehaviour.assert_fibre_loop_matches_direct(prob, n, p, q, "splu", x0=x0)
            assert sol.meta["symmetry_blocks"] == 2

    @pytest.mark.parametrize("n", [3, 4])
    def test_characters_join_mid_run_from_zero(self, n):
        # slab 0's forcing is invariant, so the run starts in the trivial
        # character alone; the random forcing of slabs 1 and 2 adds the others
        prob = co.rough_problem(2, T=0.75) if n % 2 == 0 else co.homogenised_problem(T=0.75)
        p = 2
        blocks = self.blocks(prob, n, p)
        rng = np.random.default_rng(n)
        for q in (1, 2):
            forcing = rng.standard_normal((3, q + 1, blocks.ndof))
            forcing[0] = (self.projector(blocks, 0) @ forcing[0].T).T
            sol = TestRunBehaviour.assert_fibre_loop_matches_direct(prob, n, p, q, "splu",
                                                                    discrete_forcing=forcing)
            assert sol.meta["symmetry_blocks"] == 4
            one = forcing.copy()
            one[1:] = 0.0
            sol = TestRunBehaviour.assert_fibre_loop_matches_direct(prob, n, p, q, "splu",
                                                                    discrete_forcing=one)
            assert sol.meta["symmetry_blocks"] == 1

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_non_separable_source_in_two_characters(self, n):
        # odd n: the centre cell is fixed by all of G, the other diagonal cells
        # by s or by sr.  sin 2 pi x + sin 2 pi y is even under s and odd under
        # r, x - y odd under both
        def source(t, x, y):
            return (1 + t) * (np.sin(2 * np.pi * x) + np.sin(2 * np.pi * y)) + t * (x - y)

        prob = co.ProblemData(s0=co.constant(0.8), s1=co.constant(0.3), source=source, T=0.5)
        for p in (2, 3):
            for q in (0, 1, 2):
                sol = TestRunBehaviour.assert_fibre_loop_matches_direct(prob, n, p, q, "splu")
                assert sol.meta["symmetry_blocks"] == 2
                assert 0.0 <= sol.meta["symmetry_dropped"] <= 1e-12

    def test_study_data_factor_and_solve_once_per_row(self, monkeypatch):
        calls = {"factor": 0, "solve": 0}
        factor = slab._factor

        class Counted:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                calls["solve"] += 1
                return self.lu.solve(rhs)

        def counted(matrix):
            calls["factor"] += 1
            return Counted(factor(matrix))

        monkeypatch.setattr(slab, "_factor", counted)
        sol = run(co.rough_problem(2, T=0.5), n=8, p=3, q=1, tau=1 / 16)
        rows = len(slab._temporal_eigenbasis(sol.basis).lam)
        assert rows == 1
        assert calls == {"factor": rows, "solve": rows * sol.n_slabs}
        assert sol.meta["symmetry_blocks"] == 1
        assert sol.meta["skeleton_dofs"] == 11 * 48 + 27 * 16
        assert 0.0 <= sol.meta["symmetry_dropped"] < 1e-12
        assert {"eigenbasis_residual", "eigenbasis_cond"} <= sol.meta.keys()


class TestTraces:
    @pytest.fixture
    def solution(self):
        return run(co.rough_problem(2, T=0.75), n=4, p=2, q=1, tau=1 / 4)

    def test_q0_traces_equal_single_node(self):
        sol = run(co.rough_problem(2, T=0.75), n=4, p=2, q=0, tau=1 / 4)
        for m in range(sol.n_slabs):
            left = sol.coefficients_at(m * sol.tau, "+")[:sol.ndof_u]
            assert left == pytest.approx(sol.right_trace(m).u)

    def test_left_trace_is_lagrange_combination(self, solution):
        combo = solution.basis.left_values @ solution.coeffs[1]
        expected = solution.coefficients_at(1 * solution.tau, "+")
        assert combo == pytest.approx(expected, abs=0.0)

    def test_right_trace_is_last_node(self, solution):
        assert solution.right_trace(2).u == pytest.approx(
            solution.coeffs[2, -1, : solution.ndof_u], abs=0.0)

    def test_trace_sensitivity_to_previous_slab(self):
        # re-solving with a perturbed incoming trace must change the slab
        prob = co.rough_problem(2, T=0.5)
        base = run(prob, n=4, p=2, q=1, tau=1 / 4)
        x0 = FieldPair(u=np.full(base.ndof_u, 0.1),
                       v=np.zeros(base.coeffs.shape[2] - base.ndof_u))
        bumped = run(prob, n=4, p=2, q=1, tau=1 / 4, x0=x0)
        assert np.abs(base.coeffs[0] - bumped.coeffs[0]).max() > 1e-4

    def test_index_range_checked(self, solution):
        with pytest.raises(IndexError):
            solution.right_trace(3)
        with pytest.raises(ValueError):
            solution.coefficients_at(-1 * solution.tau, "+")

    def test_evaluation_at_interior_time(self, solution):
        t = 0.4
        vals = solution.coefficients_at(t)
        m = 1
        s = t - m * solution.tau
        expected = solution.basis.values_at(s) @ solution.coeffs[m]
        assert vals == pytest.approx(expected, abs=1e-14)

    def test_side_limits_at_boundary(self, solution):
        below = solution.coefficients_at(0.25, "-")
        above = solution.coefficients_at(0.25, "+")
        assert below == pytest.approx(solution.coeffs[0, -1], abs=0.0)
        assert above == pytest.approx(
            solution.basis.left_values @ solution.coeffs[1], abs=0.0)
        with pytest.raises(ValueError):
            solution.coefficients_at(solution.T, "+")
        # the left limit at t = 0 is the datum x0, also where t snaps onto 0
        x0 = np.random.default_rng(0).standard_normal(solution.coeffs.shape[2])
        started = dataclasses.replace(solution, initial_state=x0)
        for t in (0.0, 1e-12):
            at_zero = started.coefficients_at(t, "-")
            assert np.array_equal(at_zero, x0) and at_zero is not x0

    def test_rho_must_be_the_basis_weight(self, solution):
        # E_Q weights by sol.rho but integrates by the basis's rho weights
        with pytest.raises(ValueError, match="rho=2.0 differs from the slab basis's rho=1.0"):
            dataclasses.replace(solution, rho=2.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, solution, t):
        with pytest.raises(ValueError, match="outside"):
            solution.coefficients_at(t)


class TestCheckpoint:
    @pytest.fixture
    def solution(self):
        mesh = build_mesh(4)
        ndof_u = ScalarSpace(mesh, 2).ndof
        ndof = ndof_u + VectorSpace(mesh, 2).ndof
        x0 = FieldPair.split(np.random.default_rng(5).standard_normal(ndof), ndof_u)
        return run(co.rough_problem(2, T=0.75), n=4, p=2, q=1, tau=1 / 4, x0=x0)

    def test_round_trip_bit_exact(self, tmp_path, solution):
        sol = solution
        path = tmp_path / "solution.ckpt"
        save_solution(sol, path)
        back = load_solution(path)
        assert np.array_equal(back.coeffs, sol.coeffs)
        assert np.array_equal(back.initial_state, sol.initial_state)
        assert back.meta == sol.meta
        assert back.space_u.ndof == sol.space_u.ndof
        assert not back.coeffs.flags.writeable
        assert list(tmp_path.iterdir()) == [path]

    def test_initial_state_defaults_to_zero(self, tmp_path, solution):
        # solutions built from coefficients alone carry no datum
        sol = dataclasses.replace(solution, initial_state=None)
        assert np.array_equal(sol.initial_state, np.zeros(sol.coeffs.shape[2]))
        save_solution(sol, tmp_path / "zero.ckpt")
        assert not load_solution(tmp_path / "zero.ckpt").initial_state.any()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            load_solution(path)

    def test_rejects_old_text_checkpoint(self, tmp_path):
        path = tmp_path / "ref_hom.txt"
        path.write_text("parahyp-solution 1\nn 8\np 3\n")
        with pytest.raises(ValueError, match="old text checkpoint.*re-solve"):
            load_solution(path)

    def test_rejects_other_format_version(self, tmp_path, solution):
        path = tmp_path / "solution.ckpt"
        save_solution(solution, path)
        data = path.read_bytes()
        assert data.count(b'"format": 2') == 1
        path.write_bytes(data.replace(b'"format": 2', b'"format": 9'))
        with pytest.raises(ValueError, match="format version 9"):
            load_solution(path)

    def test_rejects_header_without_mesh_size(self, tmp_path, solution):
        path = tmp_path / "solution.ckpt"
        save_solution(solution, path)
        data = path.read_bytes()
        assert data.count(b'"n": 4, ') == 1
        # same header length, so only the missing key can be at fault
        path.write_bytes(data.replace(b'"n": 4, ', b'"_": 4, '))
        with pytest.raises(ValueError, match="malformed checkpoint header.*'n'"):
            load_solution(path)

    def test_rejects_truncated_file(self, tmp_path, solution):
        path = tmp_path / "solution.ckpt"
        save_solution(solution, path)
        # what a writer killed in the middle of the coefficients leaves behind
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 8 * solution.coeffs.shape[2] // 2)
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_solution(path)

    def test_failed_write_keeps_previous_file(self, tmp_path, solution):
        path = tmp_path / "solution.ckpt"
        save_solution(solution, path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="killed"):
            with atomic_open(path) as fh:
                fh.write(b"partial")
                raise RuntimeError("killed")
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
