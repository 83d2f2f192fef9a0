"""Fast built-in property checks (the CLI 'check' verb).

Each check returns (name, passed, detail); they cover the load-bearing
numerics at small scale in a few seconds: quadrature exactness, operator
skew-adjointness, transform unitarity, the scalar-ODE reduction of the time
stepper, and the solution-operator norm bound on random discrete data.
"""

from __future__ import annotations

import numpy as np

from . import coefficients as coeff
from .assembly import assemble_div_block, assemble_grad_block, build_block_system
from .errors import e_q_discrete
from .gelfand import BlockGridFunction, forward, gelfand_transform, inverse, unit_square_norm
from .mesh import build_mesh
from .quadrature import exponential_moments, weighted_gauss_radau
from .slab import run
from .spaces import ScalarSpace, VectorSpace


def check_radau_exactness():
    worst = 0.0
    for q in range(4):
        for rho in (0.0, 1.0, 5.0):
            for tau in (1.0 / 64, 0.25, 1.0):
                rule = weighted_gauss_radau(q, rho, tau)
                mu = exponential_moments(rho, tau, 2 * q)
                for k in range(2 * q + 1):
                    got = float(rule.weights @ rule.nodes**k)
                    worst = max(worst, abs(got - mu[k]) / abs(mu[k]))
                worst = max(worst, abs(rule.nodes[-1] - tau) / tau)
    return ("weighted Radau exactness", worst < 1e-12, f"worst rel err {worst:.2e}")


def check_skew_adjointness():
    worst = 0.0
    for n, p in ((2, 1), (4, 2)):
        mesh = build_mesh(n)
        su, sv = ScalarSpace(mesh, p), VectorSpace(mesh, p)
        bd = assemble_div_block(sv, su)
        bg = assemble_grad_block(su, sv)
        worst = max(worst, abs(bd + bg.T).max())
    return ("div/grad skew-adjointness", worst < 1e-12, f"max |B_div + B_grad^T| {worst:.2e}")


def check_gelfand_unitarity(seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for N in (2, 3, 4):
        m = 8
        f = BlockGridFunction(N, m, rng.standard_normal((N, N, m, m))
                              + 1j * rng.standard_normal((N, N, m, m)))
        fib = forward(f)
        worst = max(worst, abs(fib.norm() - f.norm()) / f.norm())
        back = inverse(fib)
        worst = max(worst, np.abs(back.values - f.values).max())
        samples = rng.standard_normal((N * m, N * m))
        worst = max(worst, abs(gelfand_transform(samples, N).norm()
                               - unit_square_norm(samples)))
    return ("Gelfand transform unitarity", worst < 1e-12, f"worst defect {worst:.2e}")


def check_ode_reduction():
    src = coeff.SeparableSource(time_factor=lambda t: 1.0 if 0.0 < t < 1.0 else 0.0,
                                spatial=lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
    prob = coeff.ProblemData(s0=coeff.constant(0.5), s1=coeff.constant(0.5),
                             source=src, T=0.5, rho=1.0)
    sol = run(prob, n=2, p=1, q=1, tau=1.0 / 32)
    traces = np.array([sol.right_trace(m).u[0] for m in range(sol.n_slabs)])
    t = np.arange(1, sol.n_slabs + 1) * sol.tau
    err = np.max(np.abs(traces - 2.0 * (1.0 - np.exp(-t))))
    vmax = np.abs(sol.coeffs[:, :, sol.ndof_u:]).max()
    ok = err < 1e-3 and vmax < 1e-10
    return ("scalar ODE reduction", ok, f"nodal err {err:.2e}, |v| {vmax:.2e}")


def check_stability(seed=0):
    rng = np.random.default_rng(seed)
    prob = coeff.rough_problem(2, T=0.75, rho=1.0)
    n, p, q, tau = 4, 2, 1, 0.25
    mesh = build_mesh(n)
    su, sv = ScalarSpace(mesh, p), VectorSpace(mesh, p)
    blocks = build_block_system(su, sv, prob.s0, prob.s1)
    gram = blocks.m_unweighted()
    worst = 0.0
    n_slabs = int(round(prob.T / tau))
    for _ in range(3):
        forcing = rng.standard_normal((n_slabs, q + 1, blocks.ndof))
        sol = run(prob, n=n, p=p, q=q, tau=tau, discrete_forcing=forcing)
        f_sol = sol.__class__(space_u=su, space_v=sv, basis=sol.basis,
                              coeffs=forcing, rho=prob.rho, meta=sol.meta)
        ratio = e_q_discrete(sol, gram) / e_q_discrete(f_sol, gram)
        worst = max(worst, ratio)
    return ("solution-operator norm bound", worst <= 1.1,
            f"max E_Q(U)/E_Q(F) = {worst:.3f} (bound 1.1)")


ALL_CHECKS = (check_radau_exactness, check_skew_adjointness,
              check_gelfand_unitarity, check_ode_reduction, check_stability)


def run_self_checks(seed: int = 0, log=print) -> bool:
    ok = True
    for fn in ALL_CHECKS:
        name, passed, detail = fn(seed) if fn.__code__.co_argcount else fn()
        ok &= passed
        log(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return ok
