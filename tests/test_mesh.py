import numpy as np
import pytest

from parahyp.mesh import build_mesh, cell_quadrature_points, periodic_neighbor
from parahyp.spaces import ScalarSpace, VectorSpace


@pytest.mark.parametrize("n,cells,edges,vertices", [(1, 1, 2, 1), (2, 4, 8, 4),
                                                    (4, 16, 32, 16)])
def test_entity_counts(n, cells, edges, vertices):
    # after periodic identification Q_1 has one DOF per vertex, RT_0 one per edge
    mesh = build_mesh(n)
    assert mesh.n_cells == cells
    assert VectorSpace(mesh, 1).ndof == edges
    assert ScalarSpace(mesh, 1).ndof == vertices


def test_rejects_empty_mesh():
    with pytest.raises(ValueError):
        build_mesh(0)


class TestPeriodicNeighbor:
    def test_wraparound(self):
        mesh = build_mesh(4)
        assert periodic_neighbor(mesh, (3, 2), "+x") == (0, 2)
        assert periodic_neighbor(mesh, (0, 0), "-y") == (0, 3)

    def test_self_neighbour_on_single_cell(self):
        mesh = build_mesh(1)
        assert periodic_neighbor(mesh, (0, 0), "+x") == (0, 0)

    def test_n_steps_return_home(self):
        mesh = build_mesh(6)
        for direction in ("+x", "-x", "+y", "-y"):
            cell = (2, 5)
            for _ in range(mesh.n):
                cell = periodic_neighbor(mesh, cell, direction)
            assert cell == (2, 5)

    def test_rejects_bad_direction(self):
        mesh = build_mesh(2)
        with pytest.raises(ValueError):
            periodic_neighbor(mesh, (0, 0), "up")

    def test_rejects_bad_cell(self):
        mesh = build_mesh(2)
        with pytest.raises(ValueError):
            periodic_neighbor(mesh, (2, 0), "+x")


def test_cell_quadrature_points_layout():
    # row j*n + i is cell (i, j); column a*G + b is the point (node_a, node_b)
    mesh = build_mesh(3)
    nodes = np.array([0.25, 0.5])
    X, Y = cell_quadrature_points(mesh, nodes)
    assert X.shape == Y.shape == (9, 4)
    i, j = 2, 1
    np.testing.assert_allclose(X[j * 3 + i], (i + np.array([0.25, 0.25, 0.5, 0.5])) / 3)
    np.testing.assert_allclose(Y[j * 3 + i], (j + np.array([0.25, 0.5, 0.25, 0.5])) / 3)
