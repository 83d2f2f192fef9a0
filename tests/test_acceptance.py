"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The table-reproduction test (criteria 6 and 7) runs the full desk-scale
study with the p=3 reference on a 128-cell mesh and takes the bulk of the
suite's runtime; everything else finishes in seconds to a couple of
minutes.  Run with ``pytest tests/test_acceptance.py -v -s`` to watch the
per-criterion lines as they appear.
"""

import numpy as np
import pytest

from parahyp import coefficients as co
from parahyp.assembly import (assemble_div_block, assemble_grad_block,
                              build_block_system)
from parahyp.errors import compare_solutions, compare_to_exact, e_q_discrete, eoc
from parahyp.gelfand import (BlockGridFunction, forward, gelfand_transform,
                             inverse, unit_square_norm)
from parahyp.mesh import build_mesh
from parahyp.quadrature import exponential_moments, weighted_gauss_radau
from parahyp.slab import DiscreteSolution, run
from parahyp.spaces import ScalarSpace, VectorSpace
from parahyp.study import StudyConfig, run_study


def report(criterion, passed, detail):
    line = f"[ACCEPTANCE {criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


def test_criterion_1_weighted_radau_exactness():
    worst_rel = 0.0
    worst_endpoint = 0.0
    taus = [2.0**-k for k in range(7)]          # 1 down to 1/64
    for q in (0, 1, 2, 3):
        for rho in (0.0, 1.0, 5.0):
            for tau in taus:
                rule = weighted_gauss_radau(q, rho, tau)
                mu = exponential_moments(rho, tau, 2 * q)
                for k in range(2 * q + 1):
                    err = abs(np.dot(rule.weights, rule.nodes**k) - mu[k]) / abs(mu[k])
                    worst_rel = max(worst_rel, err)
                worst_endpoint = max(worst_endpoint,
                                     abs(rule.nodes[-1] - tau) / tau)
    report(1, worst_rel <= 1e-12 and worst_endpoint <= 1e-14,
           f"monomial exactness rel err {worst_rel:.2e} (tol 1e-12), "
           f"endpoint offset {worst_endpoint:.2e} (tol 1e-14)")


def test_criterion_2_skew_adjointness():
    worst = 0.0
    for n, p in ((2, 1), (2, 2), (4, 2), (8, 2)):
        mesh = build_mesh(n)
        su, sv = ScalarSpace(mesh, p), VectorSpace(mesh, p)
        bd = assemble_div_block(sv, su)
        bg = assemble_grad_block(su, sv)
        worst = max(worst, abs(bd + bg.T).max())
    report(2, worst <= 1e-12,
           f"max-entry |B_div + B_grad^T| = {worst:.2e} (tol 1e-12)")


def test_criterion_3_transform_unitarity():
    rng = np.random.default_rng(11)
    worst = 0.0
    m = 8
    for N in (2, 3, 4, 8):
        f = BlockGridFunction(N, m, rng.standard_normal((N, N, m, m))
                              + 1j * rng.standard_normal((N, N, m, m)))
        fib = forward(f)
        worst = max(worst, abs(fib.norm() - f.norm()) / f.norm())
        worst = max(worst, np.abs(inverse(fib).values - f.values).max())
        samples = rng.standard_normal((N * m, N * m)) \
            + 1j * rng.standard_normal((N * m, N * m))
        worst = max(worst, abs(gelfand_transform(samples, N).norm()
                               - unit_square_norm(samples))
                    / unit_square_norm(samples))
    report(3, worst <= 1e-12,
           f"round-trip / Parseval defect {worst:.2e} (tol 1e-12)")


def test_criterion_4_ode_reduction_oracle():
    src = co.SeparableSource(
        time_factor=lambda t: 1.0 if 0.0 < t <= 1.0 else 0.0,
        spatial=lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
    prob = co.ProblemData(s0=co.constant(0.5), s1=co.constant(0.5),
                          source=src, T=0.5, rho=1.0)
    errs = []
    vmax = 0.0
    for tau in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
        sol = run(prob, n=2, p=1, q=1, tau=tau)
        traces = np.array([sol.right_trace(m).u[0] for m in range(sol.n_slabs)])
        t = np.arange(1, sol.n_slabs + 1) * tau
        errs.append(np.max(np.abs(traces - 2.0 * (1.0 - np.exp(-t)))))
        vmax = max(vmax, np.abs(sol.coeffs[:, :, sol.ndof_u:]).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    report(4, orders.min() >= 2.7 and vmax <= 1e-10,
           f"right-trace orders {np.round(orders, 2)} (need >= 2.7), "
           f"|v| = {vmax:.2e} (tol 1e-10)")


def test_criterion_5_manufactured_smooth_rates():
    # u = sin(t) w, v = -(1 - cos t) grad w with w = sin(2 pi x) sin(2 pi y)
    # solves the averaged problem with the separable source below and starts
    # from rest, so only the scalar load is needed.
    w = lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    time_factor = lambda t: 0.5 * (np.cos(t) + np.sin(t)) \
        + 8 * np.pi**2 * (1 - np.cos(t))
    src = co.SeparableSource(time_factor=time_factor, spatial=w)
    prob = co.ProblemData(s0=co.constant(0.5), s1=co.constant(0.5),
                          source=src, T=0.5, rho=1.0)

    def exact_u(t, X, Y):
        return np.sin(t) * w(X, Y)

    def exact_v(t, X, Y):
        amp = -(1.0 - np.cos(t)) * 2 * np.pi
        return (amp * np.cos(2 * np.pi * X) * np.sin(2 * np.pi * Y),
                amp * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y))

    errors = []
    levels = (1 / 8, 1 / 16, 1 / 32, 1 / 64)
    for h in levels:
        n = int(round(1 / h))
        sol = run(prob, n=n, p=2, q=1, tau=h)
        rep = compare_to_exact(sol, exact_u, exact_v, s0_weight=co.constant(0.5))
        errors.append(rep.e_q)
    slope = np.polyfit(np.log2(levels), np.log2(errors), 1)[0]
    report(5, 1.7 <= slope <= 2.3,
           f"E_Q errors {np.format_float_scientific(errors[0], 3)} .. "
           f"{np.format_float_scientific(errors[-1], 3)}, "
           f"LS order {slope:.2f} (window [1.7, 2.3])")


@pytest.fixture(scope="module")
def desk_scale_table(tmp_path_factory):
    config = StudyConfig(checkpoint="never",
                         out_dir=str(tmp_path_factory.mktemp("study")))
    return run_study(config, log=lambda *_: None)


def test_criterion_6_table_reproduction(desk_scale_table):
    table = desk_scale_table
    problems = []
    for col in table.columns:
        series = [row[col] for row in table.rows]
        if not all(a > b for a, b in zip(series, series[1:])):
            problems.append(f"{col} not strictly decreasing: {series}")
    eocs = table.eoc_rows()
    for idx, row in enumerate(table.rows):
        if row["N"] < 8:
            continue
        for col in table.columns:
            val = eocs[idx][col]
            if not 0.6 <= val <= 1.4:
                problems.append(f"eoc({col}) at N={row['N']} is {val:.2f}")
    n8 = next(row for row in table.rows if row["N"] == 8)
    ratio = n8["e_q_rough"] / 3.165e-3
    if not (1 / 3 <= ratio <= 3):
        problems.append(f"E_Q rough at N=8 is {n8['e_q_rough']:.3e}, "
                        f"{ratio:.2f}x the reported 3.165e-3")
    detail = (f"columns decreasing, eoc(N>=8) in window, E_Q rough N=8 = "
              f"{n8['e_q_rough']:.3e} ({ratio:.2f}x of 3.165e-3)")
    report(6, not problems, detail if not problems else "; ".join(problems))


def test_criterion_7_homogenisation_rate(desk_scale_table):
    table = desk_scale_table
    eocs = table.eoc_rows()
    values = [eocs[idx]["e_q_hom"] for idx, row in enumerate(table.rows)
              if row["N"] >= 8]
    ok = all(0.6 <= v <= 1.4 for v in values)
    report(7, ok, f"E_Q hom-column eoc for N >= 8: {np.round(values, 2)} "
                  "(window [0.6, 1.4])")


def test_criterion_8_stability_bound():
    rng = np.random.default_rng(2718)
    prob = co.rough_problem(2, T=1.5, rho=1.0)
    n, p, q, tau = 4, 2, 1, 0.25
    mesh = build_mesh(n)
    su, sv = ScalarSpace(mesh, p), VectorSpace(mesh, p)
    blocks = build_block_system(su, sv, prob.s0, prob.s1)
    n_slabs = int(round(prob.T / tau))
    worst = 0.0
    for _ in range(10):
        forcing = rng.standard_normal((n_slabs, q + 1, blocks.ndof))
        sol = run(prob, n=n, p=p, q=q, tau=tau, discrete_forcing=forcing)
        f_traj = DiscreteSolution(space_u=su, space_v=sv, basis=sol.basis,
                                  coeffs=forcing, rho=prob.rho, meta=sol.meta)
        ratio = (e_q_discrete(sol, blocks.m_unweighted())
                 / e_q_discrete(f_traj, blocks.m_unweighted()))
        worst = max(worst, ratio)
    report(8, worst <= 1.1,
           f"max E_Q(U)/E_Q(F) over 10 random discrete loads = {worst:.3f} "
           "(bound 1.1 = (1/c)(1 + margin))")


def test_criterion_9_study_determinism(tmp_path):
    results = []
    for tag in ("one", "two"):
        config = StudyConfig(n_list=(2, 4), ref_space_cells=32, ref_time_cells=48,
                             checkpoint="never", out_dir=str(tmp_path / tag))
        run_study(config, log=lambda *_: None)
        results.append((tmp_path / tag / "table.csv").read_bytes())
    report(9, results[0] == results[1],
           f"two study runs, CSV bytes equal ({len(results[0])} bytes)")


def test_paper_scale_table_golden(desk_scale_table):
    # supporting check: criteria 6 and 7 test windows only, so pin every
    # value of the default study's table (N = 2, 4, 8, 16)
    golden = {
        "e_sup_rough": [0.04355689916075, 0.02171072842, 0.009537188621033,
                        0.004078111268203],
        "e_q_rough": [0.02023745473936, 0.01126928170679, 0.005275959732463,
                      0.002204935329665],
        "e_sup_hom": [0.06209441643388, 0.04776287456158, 0.02422049820825,
                      0.01184626222742],
        "e_q_hom": [0.0277018685738, 0.02015856810964, 0.008661443646514,
                    0.004103797668149],
    }
    table = desk_scale_table
    assert [row["N"] for row in table.rows] == [2, 4, 8, 16]
    for col, values in golden.items():
        assert [row[col] for row in table.rows] == pytest.approx(values, rel=1e-9), col


def test_e_sup_sampling_stability_at_study_scale():
    # supporting check for the sup-functional: doubling the time samples
    # moves E_sup of the N=4 comparison by < 1% at an 8x nested reference
    from parahyp.errors import _CellGridEvaluator, _sample_times
    from parahyp.quadrature import gauss_legendre_1d
    N = 4
    sol = run(co.rough_problem(N, T=1.5), n=8, p=2, q=1, tau=1 / 8)
    ref = run(co.rough_problem(N, T=1.5), n=64, p=3, q=1, tau=1 / 64)
    base = compare_solutions(sol, ref, s0_weight=co.checkerboard(N))
    rule = gauss_legendre_1d(4)
    w2 = np.outer(rule.weights, rule.weights).ravel() / 64**2
    ev_c = _CellGridEvaluator(sol, 64, rule.nodes)
    ev_r = _CellGridEvaluator(ref, 64, rule.nodes)
    s0_cells = co.checkerboard(N).cell_values(build_mesh(64))
    times = [(t, side) for t, side, _ in _sample_times(sol)]
    times += [(m * sol.tau + 0.5 * sol.tau, "-") for m in range(sol.n_slabs)]
    samples = []
    for t, side in times:
        uc, vc = ev_c.values_at(t, side)
        ur, vr = ev_r.values_at(t, side)
        du, dv = ur - uc, vr - vc
        samples.append(float(s0_cells @ ((du**2) @ w2)
                             + np.einsum("cgk,g->c", dv**2, w2).sum()))
    dense = float(np.sqrt(max(samples)))
    drift = abs(dense - base.e_sup) / base.e_sup
    print(f"[support] E_sup sampling drift under 2x time samples: {drift:.2%}")
    assert drift < 0.01
