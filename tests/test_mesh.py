import numpy as np
import pytest

from parahyp.mesh import build_mesh, cell_quadrature_points
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


def test_cell_quadrature_points_layout():
    # row j*n + i is cell (i, j); column a*G + b is the point (node_a, node_b)
    mesh = build_mesh(3)
    nodes = np.array([0.25, 0.5])
    X, Y = cell_quadrature_points(mesh, nodes)
    assert X.shape == Y.shape == (9, 4)
    i, j = 2, 1
    np.testing.assert_allclose(X[j * 3 + i], (i + np.array([0.25, 0.25, 0.5, 0.5])) / 3)
    np.testing.assert_allclose(Y[j * 3 + i], (j + np.array([0.25, 0.5, 0.25, 0.5])) / 3)
