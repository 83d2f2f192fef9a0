"""Convergence against a manufactured smooth solution.

For constant coefficients s0 = s1 = 1/2 the pair

    u = sin(t) w(x, y),     v = -(1 - cos t) grad w,
    w = sin(2 pi x) sin(2 pi y)

starts from rest and satisfies the system with the separable scalar source
f = [ (cos t + sin t)/2 + 8 pi^2 (1 - cos t) ] w and no vector source.  With
degrees p = 2, q = 1 and h = tau the space-time error functional E_Q decays
at second order.
"""

import numpy as np

from parahyp import ProblemData, SeparableSource, compare_to_exact, constant, run

w = lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
time_factor = lambda t: 0.5 * (np.cos(t) + np.sin(t)) + 8 * np.pi**2 * (1 - np.cos(t))
problem = ProblemData(s0=constant(0.5), s1=constant(0.5),
                      source=SeparableSource(time_factor=time_factor, spatial=w),
                      T=0.5, rho=1.0)

exact_u = lambda t, X, Y: np.sin(t) * w(X, Y)


def exact_v(t, X, Y):
    amp = -(1.0 - np.cos(t)) * 2 * np.pi
    return (amp * np.cos(2 * np.pi * X) * np.sin(2 * np.pi * Y),
            amp * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y))


print(" h = tau |     E_sup |      E_Q  | eoc(E_Q)")
prev = None
for level in (8, 16, 32, 64):
    h = 1.0 / level
    sol = run(problem, n=level, p=2, q=1, tau=h)
    rep = compare_to_exact(sol, exact_u, exact_v, s0_weight=constant(0.5))
    rate = "" if prev is None else f"{np.log2(prev / rep.e_q):9.2f}"
    print(f"   1/{level:<4} | {rep.e_sup:9.3e} | {rep.e_q:9.3e} |{rate}")
    prev = rep.e_q
