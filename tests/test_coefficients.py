import numpy as np
import pytest

from parahyp import coefficients as co
from parahyp.mesh import build_mesh


class TestEpsilonN:
    def test_paper_examples(self):
        assert co.epsilon_N((0.3, 0.3), 2) == 1   # cell (0,0), even sum
        assert co.epsilon_N((0.7, 0.3), 2) == 0   # cell (1,0), odd sum
        assert co.epsilon_N((0.3, 0.3), 4) == 1   # cell (1,1), sum 2 even

    def test_rejects_odd_or_small_n(self):
        with pytest.raises(ValueError):
            co.epsilon_N((0.5, 0.5), 3)
        with pytest.raises(ValueError):
            co.epsilon_N((0.5, 0.5), 0)

    def test_rejects_out_of_range_points(self):
        with pytest.raises(ValueError):
            co.epsilon_N((1.0, 0.5), 2)

    def test_periodic_with_period_2_over_n(self):
        rng = np.random.default_rng(3)
        N = 6
        pts = rng.random((200, 2)) * (1.0 - 2.0 / N)
        base = co.epsilon_N((pts[:, 0], pts[:, 1]), N)
        shifted = co.epsilon_N((pts[:, 0] + 2.0 / N, pts[:, 1]), N)
        assert np.array_equal(base, shifted)

    def test_complementary_colouring(self):
        rng = np.random.default_rng(4)
        N = 4
        pts = rng.random((200, 2)) * (1.0 - 1.0 / N)
        a = co.epsilon_N((pts[:, 0], pts[:, 1]), N)
        b = co.epsilon_N((pts[:, 0] + 1.0 / N, pts[:, 1]), N)
        assert np.array_equal(a + b, np.ones_like(a))


class TestHomogenisedAverage:
    def test_checkerboard_average_is_half(self):
        for N in (2, 4, 8, 16):
            assert co.homogenised_average(co.checkerboard(N)) == 0.5
            assert co.homogenised_average(co.checkerboard_complement(N)) == 0.5

    def test_constant(self):
        assert co.homogenised_average(co.constant(0.25)) == 0.25

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(5)
        pts = rng.random((1024 * 1024, 2))
        vals = co.epsilon_N((pts[:, 0], pts[:, 1]), 2)
        assert np.mean(vals) == pytest.approx(0.5, abs=2e-3)


class TestSourceF:
    def test_pointwise_examples(self):
        src = co.source_f()
        assert src(0.5, 0.5, 0.5) == 1.0
        assert src(1.2, 0.5, 0.5) == 0.0
        assert src(0.5, 0.1, 0.5) == 0.0

    def test_spatial_support_is_quarter_box(self):
        src = co.source_f()
        assert src(0.5, 0.25, 0.25) == 1.0
        assert src(0.5, 0.2499, 0.5) == 0.0
        assert src(0.5, 0.75, 0.75) == 1.0

    def test_time_window_sampling(self):
        src = co.source_f()
        assert src(0.0, 0.5, 0.5) == 0.0
        # the cutoff instant carries the left-limit value (exact nodal
        # interpolation on the cutoff slab); beyond it the source is off
        assert src(1.0, 0.5, 0.5) == 1.0
        assert src(np.nextafter(1.0, 2.0), 0.5, 0.5) == 0.0

    def test_cellwise_constant_when_mesh_resolves_quarters(self):
        mesh = build_mesh(8)
        src = co.source_f()
        rng = np.random.default_rng(6)
        for i in range(8):
            for j in range(8):
                base = np.array([i, j]) / 8
                pts = base + rng.random((20, 2)) * (1 / 8 - 1e-9)
                vals = src(0.5, pts[:, 0], pts[:, 1])
                assert len(np.unique(vals)) == 1


class TestAdmissibility:
    def test_checkerboard_pair(self):
        rho0, c = co.admissibility_constants(co.checkerboard(4), co.checkerboard_complement(4))
        assert (rho0, c) == (co.RHO0, 1.0)

    def test_constant_pair(self):
        _, c = co.admissibility_constants(co.constant(0.5), co.constant(0.5))
        assert c == 1.0

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            co.admissibility_constants(co.constant(0.0), co.constant(0.0))

    def test_problem_data_records_constants(self):
        prob = co.rough_problem(2)
        assert prob.c == 1.0
        assert co.RHO0 == 1.0

    def test_problem_data_constant_is_not_an_argument(self):
        # c follows from the coefficients; a given value would be ignored
        with pytest.raises(TypeError):
            co.ProblemData(s0=co.constant(0.5), s1=co.constant(0.5),
                           source=co.source_f(), T=1.0, c=5.0)

    @pytest.mark.parametrize("key, value", [("T", np.inf), ("T", np.nan), ("T", 0.0),
                                            ("rho", np.inf), ("rho", np.nan), ("rho", -1.0)])
    def test_problem_data_rejects_bad_time_or_weight(self, key, value):
        # a NaN rho would otherwise fail deep inside the temporal eigen-solve
        data = dict(s0=co.constant(0.5), s1=co.constant(0.5), source=co.source_f(), T=1.0)
        with pytest.raises(ValueError, match=f"must be finite .* got {key}={value}$"):
            co.ProblemData(**{**data, key: value})

    def test_weak_weight_warning(self):
        messages = []
        prob = co.rough_problem(2, rho=1.0)
        prob.warn_if_weak_weight(messages.append)
        assert messages == ["rho=1.0 <= rho0=1.0: homogenisation-rate hypotheses "
                            "are not strictly satisfied"]
        prob = co.rough_problem(2, rho=1.5)
        assert prob.warn_if_weak_weight(messages.append) is None
        assert len(messages) == 1


class TestCellValues:
    def test_alignment_required(self):
        field = co.checkerboard(4)
        with pytest.raises(ValueError):
            field.cell_values(build_mesh(6))   # 6 not divisible by 4

    def test_aligned_values_match_pointwise(self):
        field = co.checkerboard(4)
        mesh = build_mesh(8)
        vals = field.cell_values(mesh)
        centers = mesh.cell_centers()
        for i in range(8):
            for j in range(8):
                assert vals[j * 8 + i] == co.epsilon_N(tuple(centers[i, j]), 4)
