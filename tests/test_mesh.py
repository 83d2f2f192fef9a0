import numpy as np
import pytest

from parahyp.mesh import (build_mesh, cell_containing, cell_quadrature_points,
                          periodic_neighbor)


@pytest.mark.parametrize("n,cells,edges,vertices", [(1, 1, 2, 1), (2, 4, 8, 4),
                                                    (4, 16, 32, 16)])
def test_entity_counts(n, cells, edges, vertices):
    mesh = build_mesh(n)
    assert mesh.n_cells == cells
    assert mesh.n_edges == edges
    assert mesh.n_vertices == vertices


def test_rejects_empty_mesh():
    with pytest.raises(ValueError):
        build_mesh(0)


class TestCellContaining:
    def test_examples(self):
        mesh = build_mesh(2)
        assert cell_containing(mesh, (0.3, 0.3)) == (0, 0)
        assert cell_containing(mesh, (0.7, 0.3)) == (1, 0)
        assert cell_containing(build_mesh(4), (0.999999, 0.0)) == (3, 0)

    def test_clamping_near_upper_boundary(self):
        mesh = build_mesh(8)
        x = np.nextafter(1.0, 0.0)
        assert cell_containing(mesh, (x, x)) == (7, 7)

    def test_rejects_nonfinite(self):
        mesh = build_mesh(2)
        with pytest.raises(ValueError):
            cell_containing(mesh, (np.nan, 0.5))
        with pytest.raises(ValueError):
            cell_containing(mesh, (np.inf, 0.5))

    def test_rejects_out_of_range(self):
        mesh = build_mesh(2)
        with pytest.raises(ValueError):
            cell_containing(mesh, (1.0, 0.5))

    def test_cell_centres_map_to_their_cells(self):
        mesh = build_mesh(5)
        for i in range(5):
            for j in range(5):
                assert cell_containing(mesh, mesh.cell_center((i, j))) == (i, j)

    def test_every_point_in_exactly_one_cell(self):
        mesh = build_mesh(3)
        rng = np.random.default_rng(7)
        for _ in range(100):
            pt = tuple(rng.random(2))
            i, j = cell_containing(mesh, pt)
            assert i * mesh.h <= pt[0] < (i + 1) * mesh.h
            assert j * mesh.h <= pt[1] < (j + 1) * mesh.h


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
