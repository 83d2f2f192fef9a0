"""Periodic equidistant tensor-product meshes of the unit square.

Cells are half-open boxes [x_i, x_{i+1}) x [y_j, y_{j+1}) with x_i = i/n, so
every point of [0,1)^2 lies in exactly one cell; the boundary x = 1 is
identified with x = 0.  After periodic identification each cell owns its
bottom and left edge and its lower-left vertex, giving n^2 cells, 2 n^2
edges and n^2 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Mesh:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"mesh needs at least one cell per dimension, got n={self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def n_cells(self) -> int:
        return self.n * self.n

    def cell_centers(self) -> np.ndarray:
        """Centers of all cells, shape (n, n, 2), indexed [i, j]."""
        c = (np.arange(self.n) + 0.5) * self.h
        xx, yy = np.meshgrid(c, c, indexing="ij")
        return np.stack([xx, yy], axis=-1)


def build_mesh(n: int) -> Mesh:
    """Periodic n x n mesh of the unit square."""
    return Mesh(n)


def cell_quadrature_points(mesh: Mesh, nodes_1d) -> tuple[np.ndarray, np.ndarray]:
    """Physical coordinates (X, Y) of a tensor rule on every cell.

    ``nodes_1d`` lie in [0, 1]; both arrays have shape (n^2, G^2) with cell
    j*n + i in row order and the points of a cell in
    ``meshgrid(nodes_1d, nodes_1d, indexing="ij")`` order.
    """
    n, h = mesh.n, mesh.h
    xi, eta = np.meshgrid(nodes_1d, nodes_1d, indexing="ij")
    grid = np.arange(n) * h
    shape = (n, n, xi.size)
    X = np.broadcast_to(grid[None, :, None] + xi.ravel() * h, shape)
    Y = np.broadcast_to(grid[:, None, None] + eta.ravel() * h, shape)
    return X.reshape(n * n, -1), Y.reshape(n * n, -1)

