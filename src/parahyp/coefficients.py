"""Coefficient fields, admissibility constants and right-hand sides.

The two study problems share one structure: a zeroth-order damping pair
(s0, s1) that is either the rough checkerboard (s0 = chi_N, s1 = 1 - chi_N,
alternating between wave-like and heat-like cells on an N x N background
grid) or its homogenised constant averages (1/2, 1/2), together with a
box-supported source that switches off at t = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .mesh import Mesh


def epsilon_N(point, N: int):
    """Checkerboard indicator on the N x N background grid (N even).

    Returns 1 on background cells whose index sum i + j is even, else 0.
    Accepts scalar coordinates or broadcastable arrays.
    """
    if N < 2 or N % 2 != 0:
        raise ValueError(f"checkerboard needs an even N >= 2, got N={N}")
    x, y = point
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if np.any(x < 0) or np.any(x >= 1) or np.any(y < 0) or np.any(y >= 1):
        raise ValueError("points must lie in [0,1)^2; reduce modulo 1 first")
    i = np.minimum((x * N).astype(int), N - 1)
    j = np.minimum((y * N).astype(int), N - 1)
    out = ((i + j) % 2 == 0).astype(int)
    return out if out.ndim else int(out)


@dataclass(frozen=True)
class CoefficientField:
    """Cellwise-constant coefficient: checkerboard chi_N, its complement, or a constant.

    ``kind`` is one of 'checkerboard', 'complement', 'constant'.  The two
    checkerboard kinds carry the background resolution N; 'constant' carries
    its value.
    """

    kind: str
    N: int = 0
    value: float = 0.0

    def __post_init__(self):
        if self.kind in ("checkerboard", "complement"):
            if self.N < 2 or self.N % 2 != 0:
                raise ValueError(f"checkerboard needs an even N >= 2, got N={self.N}")
        elif self.kind == "constant":
            if not np.isfinite(self.value):
                raise ValueError("constant coefficient must be finite")
        else:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")

    def __call__(self, x, y):
        if self.kind == "constant":
            return np.broadcast_to(np.float64(self.value), np.shape(np.asarray(x)))
        chi = epsilon_N((x, y), self.N)
        return chi if self.kind == "checkerboard" else 1 - chi

    def cell_values(self, mesh: Mesh) -> np.ndarray:
        """One value per mesh cell (flat, cell index j*n + i), sampled at centers.

        Requires the FE mesh to resolve the background grid (n divisible by
        N) so no cell straddles a coefficient jump.
        """
        if self.kind != "constant" and mesh.n % self.N != 0:
            raise ValueError(
                f"mesh with n={mesh.n} cells straddles the N={self.N} background grid")
        centers = mesh.cell_centers()           # (n, n, 2) indexed [i, j]
        vals = np.asarray(self(centers[..., 0], centers[..., 1]), dtype=float)
        return vals.T.ravel()                   # -> flat index j*n + i


def checkerboard(N: int) -> CoefficientField:
    return CoefficientField("checkerboard", N=N)


def checkerboard_complement(N: int) -> CoefficientField:
    return CoefficientField("complement", N=N)


def constant(value: float) -> CoefficientField:
    return CoefficientField("constant", value=value)


def homogenised_average(field_: CoefficientField) -> float:
    """Exact area mean of the coefficient over one period of the unit square."""
    if field_.kind == "constant":
        return float(field_.value)
    return 0.5  # equal numbers of even and odd cells for even N


# the admissibility weight rho0 of the coefficient pair: rho0 s0 + s1 >= c > 0
RHO0 = 1.0


def admissibility_constants(s0: CoefficientField, s1: CoefficientField) -> tuple[float, float]:
    """Verify RHO0 * s0 + s1 >= c > 0 and return (RHO0, c).

    Both fields are sampled on the coarsest common background mesh; the
    minimum over cells is the admissibility constant c.
    """
    n = 2
    for f in (s0, s1):
        if f.kind != "constant":
            n = max(n, f.N)
    mesh = Mesh(n)
    vals = RHO0 * s0.cell_values(mesh) + s1.cell_values(mesh)
    c = float(vals.min())
    if c <= 0.0:
        raise ValueError(
            f"coefficient pair is not admissible: min(rho0*s0 + s1) = {c} <= 0")
    return RHO0, c


@dataclass(frozen=True)
class SeparableSource:
    """Source f(t, x, y) = time_factor(t) * spatial(x, y).

    The split lets the solver assemble the spatial load vector once per
    space instead of once per quadrature time.
    """

    time_factor: Callable[[float], float]
    spatial: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, t, x, y):
        return self.time_factor(t) * np.asarray(self.spatial(x, y), dtype=float)


def _box_indicator(x, y):
    # support [1/4, 3/4]^2, i.e. |2x-1| <= 1/2 and |2y-1| <= 1/2
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    inside = np.maximum(np.abs(2 * x - 1), np.abs(2 * y - 1)) <= 0.5
    return inside.astype(float)


def source_f() -> SeparableSource:
    """The study source: 1 on the time-space cube (0,1) x [1/4,3/4]^2, else 0.

    The time window is sampled as (0, 1]: the value at the cutoff instant
    itself is free within the a.e. class of the source, and taking the
    left-limit value there keeps the nodal-in-time interpolation of the
    source exact on the cutoff slab.
    """
    return SeparableSource(time_factor=lambda t: 1.0 if 0.0 < t <= 1.0 else 0.0,
                           spatial=_box_indicator)


@dataclass(frozen=True)
class ProblemData:
    """Everything that defines one evolutionary problem instance."""

    s0: CoefficientField
    s1: CoefficientField
    source: SeparableSource | Callable
    T: float
    rho: float = 1.0
    c: float = field(init=False, default=0.0)

    def __post_init__(self):
        _, c = admissibility_constants(self.s0, self.s1)
        object.__setattr__(self, "c", c)
        # NaN fails every comparison, so it is rejected too
        if not 0 < self.T < math.inf:
            raise ValueError(f"final time must be finite and positive, got T={self.T}")
        if not 0 <= self.rho < math.inf:
            raise ValueError(f"rho must be finite and nonnegative, got rho={self.rho}")

    def warn_if_weak_weight(self, log=None):
        """Theorem-level hypotheses ask for rho > rho0; warn, do not forbid."""
        if self.rho <= RHO0:
            msg = (f"rho={self.rho} <= rho0={RHO0}: homogenisation-rate "
                   "hypotheses are not strictly satisfied")
            (log or print)(msg)
            return msg
        return None


def rough_problem(N: int, T: float = 1.5, rho: float = 1.0) -> ProblemData:
    """Oscillating problem: s0 = chi_N, s1 = 1 - chi_N, box source."""
    return ProblemData(s0=checkerboard(N), s1=checkerboard_complement(N),
                       source=source_f(), T=T, rho=rho)


def homogenised_problem(T: float = 1.5, rho: float = 1.0) -> ProblemData:
    """Averaged problem: s0 = s1 = 1/2, box source."""
    return ProblemData(s0=constant(0.5), s1=constant(0.5),
                       source=source_f(), T=T, rho=rho)
