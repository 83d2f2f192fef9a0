import dataclasses

import numpy as np
import pytest

from parahyp import coefficients as co
from parahyp import slab
from parahyp.assembly import BlockSystem, build_block_system
from parahyp.mesh import build_mesh
from parahyp.quadrature import exponential_moments
from parahyp.slab import (SlabBasis, atomic_open, build_slab_system,
                          load_solution, run, save_solution)
from parahyp.spaces import FieldPair, ScalarSpace, VectorSpace


def constant_source(value=1.0, window=(0.0, 1.0)):
    lo, hi = window
    return co.SeparableSource(
        time_factor=lambda t: 1.0 if lo < t < hi else 0.0,
        spatial=lambda x, y: np.full_like(np.asarray(x, dtype=float), value))


def ode_problem(T, s0=0.5, s1=0.5, rho=1.0):
    return co.ProblemData(s0=co.constant(s0), s1=co.constant(s1),
                          source=constant_source(), T=T, rho=rho)


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
        for rho in (0.0, 1.0, 3.0, 10.0):
            for tau in (1.0, 1 / 4, 1 / 96, 1 / 192):
                basis = SlabBasis(q, rho, tau)
                try:
                    eig = slab._temporal_eigenbasis(basis)
                except slab._EigenbasisError:
                    # only long slabs under a strong weight get this ill-conditioned
                    assert q >= 3 and rho * tau >= 10
                    continue
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

    def test_auto_falls_back_when_recombination_misses_identity(self):
        # q = 5, rho tau = 10: V V^-1 is the identity to 6e-9, but Re(w @ vinv)
        # only to 3e-6, and the decoupled solution would be that far off
        prob = co.rough_problem(2, T=2.0, rho=10.0)
        sol = run(prob, n=2, p=1, q=5, tau=1.0)
        assert sol.meta["solver"] == "direct"
        assert "ill-conditioned" in sol.meta["solver_fallback"]


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
            a = run(prob, n=4, p=2, q=q, tau=1 / 4, solver="direct")
            b = run(prob, n=4, p=2, q=q, tau=1 / 4, solver="decoupled")
            assert (a.meta["solver"], b.meta["solver"]) == ("direct", "decoupled")
            scale = np.abs(a.coeffs).max()
            assert np.abs(a.coeffs - b.coeffs).max() <= 1e-11 * max(scale, 1.0)

    def test_auto_decouples_small_systems(self):
        sol = run(co.rough_problem(2, T=0.5), n=2, p=1, q=1, tau=1 / 4)
        assert sol.meta["solver"] == "decoupled"
        assert "solver_fallback" not in sol.meta

    def test_auto_falls_back_to_direct_when_eigenbasis_fails(self, monkeypatch):
        prob = co.rough_problem(2, T=0.5)
        direct = run(prob, n=2, p=1, q=2, tau=1 / 4, solver="direct")

        def failing_eigenbasis(basis):
            raise slab._EigenbasisError("temporal eigenbasis too ill-conditioned")

        monkeypatch.setattr(slab, "_temporal_eigenbasis", failing_eigenbasis)
        sol = run(prob, n=2, p=1, q=2, tau=1 / 4)
        assert sol.meta["solver"] == "direct"
        assert sol.meta["solver_fallback"] == "temporal eigenbasis too ill-conditioned"
        assert np.array_equal(sol.coeffs, direct.coeffs)
        with pytest.raises(RuntimeError, match="ill-conditioned"):
            run(prob, n=2, p=1, q=2, tau=1 / 4, solver="decoupled")

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_bloch_fibres_agree_with_direct(self, n):
        prob = co.homogenised_problem(T=0.5)
        for p in (1, 2, 3):
            mesh = build_mesh(n)
            ndof_u = ScalarSpace(mesh, p).ndof
            ndof = ndof_u + VectorSpace(mesh, p).ndof
            # a random start excites every fibre, not only the constant mode
            x0 = FieldPair.split(np.random.default_rng(n * p).standard_normal(ndof), ndof_u)
            for q in range(5):
                a = run(prob, n=n, p=p, q=q, tau=1 / 4, x0=x0, solver="direct")
                b = run(prob, n=n, p=p, q=q, tau=1 / 4, x0=x0)
                assert (b.meta["solver"], b.meta["spatial_solver"]) == ("decoupled", "bloch")
                scale = np.abs(a.coeffs).max()
                assert np.abs(a.coeffs - b.coeffs).max() <= 1e-11 * max(scale, 1.0)

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
                self.assert_fibre_loop_matches_direct(prob, n, p, q, x0=x0)

    @pytest.mark.parametrize("separable", [True, False])
    def test_eliminated_fibre_operator_matches_dense_inverse(self, separable):
        # q = 2 plans one real eigenvalue and one conjugate pair
        n, p, q = 3, 2, 2
        source = co.source_f() if separable else (lambda t, x, y: x * y + t)
        prob = co.ProblemData(s0=co.constant(0.8), s1=co.constant(0.3), source=source, T=0.5)
        mesh = build_mesh(n)
        blocks = build_block_system(ScalarSpace(mesh, p), VectorSpace(mesh, p), prob.s0, prob.s1)
        basis = SlabBasis(q, prob.rho, 1 / 4)
        fibres, path = slab._make_factorisation(blocks, basis, "auto",
                                                slab._Loads(blocks, basis, source, None))
        assert path["spatial_solver"] == "bloch"
        n_own = 3 * p * p
        m0_hat, c_hat = ((phases @ terms).reshape(n * n, n_own, n_own) for phases, terms
                         in (slab._symbol_terms(blocks, name) for name in ("m0", "coupling")))
        rng = np.random.default_rng(5)
        p_hat = rng.standard_normal((n * n, n_own)) + 1j * rng.standard_normal((n * n, n_own))
        f_hat = rng.standard_normal((2, n * n, n_own)) + 1j * rng.standard_normal((2, n * n, n_own))
        jumps = fibres.jump(p_hat)
        solved = None if separable else fibres.solve(f_hat)
        assert len(fibres._lam) == 2
        for r, lam in enumerate(fibres._lam):
            a_hat = lam * m0_hat + c_hat
            dense = fibres._beta[r] * np.linalg.solve(a_hat, m0_hat @ p_hat[..., None])[..., 0]
            assert np.abs(jumps[r] - dense).max() <= 1e-12 * np.abs(dense).max()
            if not separable:
                dense = np.linalg.solve(a_hat, f_hat[r, ..., None])[..., 0]
                assert np.abs(solved[r] - dense).max() <= 1e-12 * np.abs(dense).max()

    @staticmethod
    def assert_fibre_loop_matches_direct(prob, n, p, q, **kwargs):
        a = run(prob, n=n, p=p, q=q, tau=1 / 4, solver="direct", **kwargs)
        b = run(prob, n=n, p=p, q=q, tau=1 / 4, **kwargs)
        assert (b.meta["solver"], b.meta["spatial_solver"]) == ("decoupled", "bloch")
        scale = np.abs(a.coeffs).max()
        assert scale > 0.0
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-11 * max(scale, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_fibre_loop_with_discrete_forcing(self, n):
        # odd and even n: the conjugate partner's fibre is an index flip
        for rho in (0.0, 3.0):
            prob = co.homogenised_problem(T=0.5, rho=rho)
            for q in range(5):
                p = 1 + q % 3
                mesh = build_mesh(n)
                ndof = ScalarSpace(mesh, p).ndof + VectorSpace(mesh, p).ndof
                forcing = np.random.default_rng(10 * n + q).standard_normal((2, q + 1, ndof))
                self.assert_fibre_loop_matches_direct(prob, n, p, q,
                                                      discrete_forcing=forcing)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_fibre_loop_with_non_separable_source(self, n):
        def travelling(t, x, y):
            return np.sin(2 * np.pi * (x - t)) * np.cos(2 * np.pi * y) + t * x

        for rho in (0.0, 3.0):
            prob = co.ProblemData(s0=co.constant(0.8), s1=co.constant(0.3),
                                  source=travelling, T=0.5, rho=rho)
            for q in range(5):
                self.assert_fibre_loop_matches_direct(prob, n, 1 + q % 3, q,
                                                      load_quad_points=4)

    @pytest.mark.parametrize("problem", ["hom", "rough", "direct"])
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
        sol = run(prob, n=4, p=2, q=2, tau=1 / 4,
                  solver="direct" if problem == "direct" else "auto")
        if problem == "hom":
            assert sol.meta["spatial_solver"] == "bloch"
            assert calls == {"m0": 0, "coupling": 0}
        else:
            assert calls == {"m0": 1, "coupling": 1}

    @pytest.mark.parametrize("case", ["hom", "rough", "forcing"])
    def test_whole_blocks_assembled_once_and_only_when_used(self, monkeypatch, case):
        built = {}
        whole = BlockSystem._whole

        def counted(self, name):
            built[name] = built.get(name, 0) + 1
            return whole(self, name)

        monkeypatch.setattr(BlockSystem, "_whole", counted)
        prob = co.rough_problem(2, T=0.75) if case == "rough" \
            else co.homogenised_problem(T=0.75)
        mesh = build_mesh(4)
        forcing = None
        if case == "forcing":
            ndof = ScalarSpace(mesh, 2).ndof + VectorSpace(mesh, 2).ndof
            forcing = np.random.default_rng(4).standard_normal((3, 3, ndof))
        sol = run(prob, n=4, p=2, q=2, tau=1 / 4, discrete_forcing=forcing)
        expected = {"hom": {},
                    "rough": {"mu0": 1, "mv": 1, "mu1": 1, "b_div": 1, "b_grad": 1},
                    "forcing": {"mu_unweighted": 1, "mv": 1}}[case]
        assert built == expected
        assert sol.meta["spatial_solver"] == ("splu" if case == "rough" else "bloch")

    @pytest.mark.parametrize("case", ["n", "p", "hom", "s1"])
    def test_blocks_must_fit_the_run(self, monkeypatch, case):
        def not_reached(*args):
            raise AssertionError("factorised before checking the blocks")

        mesh = build_mesh(4)
        prob = co.rough_problem(2, T=0.5)
        blocks = build_block_system(ScalarSpace(mesh, 2), VectorSpace(mesh, 2),
                                    prob.s0, prob.s1)
        # fitting blocks give the same solution as a run that builds its own
        fitted = run(prob, n=4, p=2, q=1, tau=1 / 4, blocks=blocks)
        assert np.array_equal(fitted.coeffs, run(prob, n=4, p=2, q=1, tau=1 / 4).coeffs)
        n, p, match = 4, 2, "other s0 cell values"
        if case == "n":
            n, match = 8, "asks for n=8, p=2"
        elif case == "p":
            p, match = 3, "asks for n=4, p=3"
        elif case == "hom":
            prob = co.homogenised_problem(T=0.5)
        else:
            prob, match = dataclasses.replace(prob, s1=co.constant(0.5)), "other s1 cell values"
        monkeypatch.setattr(slab, "_make_factorisation", not_reached)
        with pytest.raises(ValueError, match=match):
            run(prob, n=n, p=p, q=1, tau=1 / 4, blocks=blocks)

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


class TestTraces:
    @pytest.fixture
    def solution(self):
        return run(co.rough_problem(2, T=0.75), n=4, p=2, q=1, tau=1 / 4)

    def test_q0_traces_equal_single_node(self):
        sol = run(co.rough_problem(2, T=0.75), n=4, p=2, q=0, tau=1 / 4)
        for m in range(sol.n_slabs):
            assert sol.left_trace(m).u == pytest.approx(sol.right_trace(m).u)

    def test_left_trace_is_lagrange_combination(self, solution):
        combo = solution.basis.left_values @ solution.coeffs[1]
        expected = np.concatenate([solution.left_trace(1).u, solution.left_trace(1).v])
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
        with pytest.raises(IndexError):
            solution.left_trace(-1)

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
            solution.coefficients_at(0.0, "-")
        with pytest.raises(ValueError):
            solution.coefficients_at(solution.T, "+")


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
