import math

import numpy as np
import pytest

from graph_calculus import (
    KernelConfig,
    PointCloud,
    build_weights,
    degrees,
    divergence,
    gradient,
    inner_edge,
    inner_vertex,
    laplacian_apply,
    laplacian_matrix,
    normalized_laplacian_matrix,
)
from graph_calculus.csvio import (
    read_matrix_csv,
    read_vector_csv,
    write_matrix_csv,
    write_vector_csv,
)


def random_graph(n, seed, tau=0.0, epsilon=1.0, dim=3):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(points=rng.standard_normal((n, dim)))
    w = build_weights(cloud, KernelConfig(epsilon=epsilon, truncation_tau=tau))
    return w, degrees(w)


@pytest.fixture
def two_point():
    """Two points at squared distance 2 eps: w = 1/e, both degrees 1 + 1/e."""
    eps = 1.0
    cloud = PointCloud(points=[[0.0, 0.0], [math.sqrt(2.0 * eps), 0.0]])
    w = build_weights(cloud, KernelConfig(epsilon=eps))
    return w, degrees(w)


TWO_POINT_GRAD = math.sqrt(math.exp(-1.0) / (2.0 * (1.0 + math.exp(-1.0))))


class TestGradient:
    def test_two_point_value(self, two_point):
        w, d = two_point
        g = gradient(np.array([0.0, 1.0]), w, d)
        assert g[0, 1] == pytest.approx(TWO_POINT_GRAD, rel=1e-14)
        assert g[0, 1] == pytest.approx(0.3667, abs=5e-5)
        assert g[1, 0] == -g[0, 1]

    def test_self_edges_vanish(self):
        w, d = random_graph(25, 0)
        g = gradient(np.random.default_rng(1).standard_normal(25), w, d)
        assert np.abs(np.diag(g)).max() == 0.0

    def test_coincident_constant_function(self):
        cloud = PointCloud(points=[[0.5, -0.5]] * 6)
        w = build_weights(cloud, KernelConfig(epsilon=1.0))
        g = gradient(np.full(6, 3.7), w, degrees(w))
        assert np.abs(g).max() == 0.0

    def test_antisymmetry_random(self):
        w, d = random_graph(60, 2)
        g = gradient(np.random.default_rng(3).standard_normal(60), w, d)
        assert np.abs(g + g.T).max() <= 1e-14

    def test_antisymmetry_sparse(self):
        # truncated W: the zeroed edges hold 0 and -0, which cancel too
        w, d = random_graph(80, 4, tau=1e-6, epsilon=0.5)
        g = gradient(np.random.default_rng(5).standard_normal(80), w, d)
        assert (w == 0).any()
        assert np.abs(g + g.T).max() <= 1e-14

    def test_rejects_nonpositive_degree(self, two_point):
        w, _ = two_point
        with pytest.raises(ValueError, match="degree"):
            gradient(np.array([0.0, 1.0]), w, np.array([1.0, 0.0]))

    def test_rejects_length_mismatch(self, two_point):
        w, d = two_point
        with pytest.raises(ValueError, match="shape"):
            gradient(np.array([0.0, 1.0, 2.0]), w, d)

    def test_constant_function_gradient_not_zero_in_general(self):
        # degrees differ, so the two square-root factors do not cancel
        w, d = random_graph(30, 6)
        g = gradient(np.ones(30), w, d)
        assert np.abs(g).max() > 1e-6


class TestDivergence:
    def test_symmetric_field_maps_to_zero(self):
        w, d = random_graph(35, 11)
        rng = np.random.default_rng(12)
        sym = rng.standard_normal((35, 35))
        sym = sym + sym.T
        assert np.abs(divergence(sym, w, d)).max() == 0.0

    def test_zero_field(self, two_point):
        w, d = two_point
        np.testing.assert_array_equal(divergence(np.zeros((2, 2)), w, d), [0.0, 0.0])

    def test_two_point_value(self, two_point):
        w, d = two_point
        field = np.array([[0.0, 1.0], [-1.0, 0.0]])
        out = divergence(field, w, d)
        assert out[0] == pytest.approx(2.0 * TWO_POINT_GRAD, rel=1e-14)
        assert out[0] == pytest.approx(0.7334, abs=1e-4)

    def test_self_edge_contributes_nothing(self):
        w, d = random_graph(20, 13)
        field = np.zeros((20, 20))
        np.fill_diagonal(field, 7.0)
        assert np.abs(divergence(field, w, d)).max() == 0.0

    def test_sparse_matches_dense(self):
        # on a truncated W, field values on the zeroed edges do not count
        w, d = random_graph(70, 14, tau=1e-8, epsilon=0.6)
        rng = np.random.default_rng(15)
        dense_field = rng.standard_normal((70, 70))
        masked = dense_field * (w != 0)
        assert (masked != dense_field).any()
        np.testing.assert_allclose(
            divergence(dense_field, w, d), divergence(masked, w, d), atol=1e-13
        )


class TestLaplacian:
    def test_sqrt_degree_null_vector(self):
        w, d = random_graph(90, 16)
        assert np.abs(laplacian_apply(np.sqrt(d), w, d)).max() <= 1e-12

    def test_two_point_value(self, two_point):
        w, d = two_point
        out = laplacian_apply(np.array([0.0, 1.0]), w, d)
        expected = math.exp(-1.0) / (1.0 + math.exp(-1.0))
        assert out[0] == pytest.approx(expected, rel=1e-14)
        assert out[0] == pytest.approx(0.2689, abs=1e-4)

    @pytest.mark.parametrize("n,seed,tau", [(10, 17, 0.0), (50, 18, 0.0), (50, 19, 1e-7)])
    def test_closed_form_equals_div_grad(self, n, seed, tau):
        w, d = random_graph(n, seed, tau=tau, epsilon=0.8)
        f = np.random.default_rng(seed + 100).standard_normal(n)
        composed = divergence(gradient(f, w, d), w, d)
        assert np.abs(laplacian_apply(f, w, d) - composed).max() <= 1e-12

    def test_matrix_coincident_points(self):
        n = 5
        cloud = PointCloud(points=[[1.0, 1.0]] * n)
        w = build_weights(cloud, KernelConfig(epsilon=1.0))
        lap = laplacian_matrix(w, degrees(w))
        expected = np.full((n, n), 1.0 / n) - np.eye(n)
        np.testing.assert_allclose(lap, expected, atol=1e-15)

    def test_matrix_two_point(self, two_point):
        w, d = two_point
        lap = laplacian_matrix(w, d)
        dv = 1.0 + math.exp(-1.0)
        expected = np.array(
            [[1.0 / dv - 1.0, math.exp(-1.0) / dv], [math.exp(-1.0) / dv, 1.0 / dv - 1.0]]
        )
        np.testing.assert_allclose(lap, expected, rtol=1e-14)

    def test_matrix_matches_apply(self):
        w, d = random_graph(64, 20)
        f = np.random.default_rng(21).standard_normal(64)
        via_matrix = laplacian_matrix(w, d) @ f
        via_apply = laplacian_apply(f, w, d)
        scale = np.abs(via_apply).max()
        assert np.abs(via_matrix - via_apply).max() <= 1e-12 * max(1.0, scale)

    def test_matrix_symmetric_bit_exact(self):
        w, d = random_graph(45, 22)
        lap = laplacian_matrix(w, d)
        assert np.abs(lap - lap.T).max() == 0.0

    def test_sparse_matrix_matches_dense(self):
        w, d = random_graph(55, 23, tau=1e-9, epsilon=0.7)
        wd, dd = random_graph(55, 23, tau=0.0, epsilon=0.7)
        lap_sparse = laplacian_matrix(w, d)
        lap_dense = laplacian_matrix(wd, dd)
        np.testing.assert_allclose(lap_sparse, lap_dense, atol=1e-9)

    def test_spectrum_and_null_eigenvector(self):
        w, d = random_graph(120, 24)
        pos = normalized_laplacian_matrix(w, d)
        eigvals, eigvecs = np.linalg.eigh(pos)
        assert eigvals.min() >= -1e-10
        assert eigvals.max() <= 2.0 + 1e-10
        assert eigvals[0] <= 1e-10
        target = np.sqrt(d) / np.linalg.norm(np.sqrt(d))
        cosine = abs(float(eigvecs[:, 0] @ target))
        assert cosine >= 1.0 - 1e-10

    def test_linearity(self):
        w, d = random_graph(48, 25)
        rng = np.random.default_rng(26)
        f, g = rng.standard_normal(48), rng.standard_normal(48)
        a, b = 2.5, -1.25
        lhs = laplacian_apply(a * f + b * g, w, d)
        rhs = a * laplacian_apply(f, w, d) + b * laplacian_apply(g, w, d)
        assert np.abs(lhs - rhs).max() <= 1e-12
        glhs = gradient(a * f + b * g, w, d)
        grhs = a * gradient(f, w, d) + b * gradient(g, w, d)
        assert np.abs(glhs - grhs).max() <= 1e-12
        field_a = rng.standard_normal((48, 48))
        field_b = rng.standard_normal((48, 48))
        dlhs = divergence(a * field_a + b * field_b, w, d)
        drhs = a * divergence(field_a, w, d) + b * divergence(field_b, w, d)
        assert np.abs(dlhs - drhs).max() <= 1e-12


class TestInnerProducts:
    def test_vertex_ones(self):
        assert inner_vertex(np.ones(4), np.ones(4)) == 4.0

    def test_vertex_orthogonal_pair(self):
        rng = np.random.default_rng(27)
        f = rng.standard_normal(64)
        g = rng.standard_normal(64)
        g -= (np.dot(f, g) / np.dot(f, f)) * f
        assert abs(inner_vertex(f, g)) <= 1e-12 * np.linalg.norm(f) * np.linalg.norm(g)

    def test_vertex_against_fsum_oracle(self):
        rng = np.random.default_rng(28)
        f, g = rng.standard_normal(300), rng.standard_normal(300)
        oracle = math.fsum(float(a * b) for a, b in zip(f, g))
        assert inner_vertex(f, g) == pytest.approx(oracle, abs=1e-12)

    def test_vertex_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner_vertex(np.ones(3), np.ones(4))

    def test_edge_gradient_energy_decomposition(self):
        w, d = random_graph(40, 29)
        f = np.random.default_rng(30).standard_normal(40)
        g = gradient(f, w, d)
        per_vertex = sum(np.linalg.norm(g[u]) ** 2 for u in range(40))
        assert inner_edge(g, g) == pytest.approx(per_vertex, rel=1e-12)

    def test_edge_antisymmetric_vs_symmetric_is_zero(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((30, 30))
        anti = a - a.T
        b = rng.standard_normal((30, 30))
        sym = b + b.T
        total = inner_edge(anti, sym)
        assert abs(total) <= 1e-10

    def test_edge_against_fsum_oracle(self):
        rng = np.random.default_rng(32)
        a, b = rng.standard_normal((12, 12)), rng.standard_normal((12, 12))
        oracle = math.fsum(float(x * y) for x, y in zip(a.ravel(), b.ravel()))
        assert inner_edge(a, b) == pytest.approx(oracle, abs=1e-12)

    def test_edge_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner_edge(np.ones((3, 3)), np.ones((4, 4)))


class TestAdjointnessAndIdentities:
    @pytest.mark.parametrize("n,seed,tau", [(8, 35, 0.0), (100, 36, 0.0), (100, 37, 1e-8)])
    def test_adjointness(self, n, seed, tau):
        w, d = random_graph(n, seed, tau=tau, epsilon=0.9)
        rng = np.random.default_rng(seed + 500)
        f = rng.standard_normal(n)
        field = rng.standard_normal((n, n))
        a = inner_edge(gradient(f, w, d), field)
        b = inner_vertex(f, divergence(field, w, d))
        assert abs(a + b) <= 1e-10 * max(abs(a), abs(b))

    def test_dirichlet_identity(self):
        w, d = random_graph(75, 38)
        f = np.random.default_rng(39).standard_normal(75)
        g = gradient(f, w, d)
        energy = inner_edge(g, g)
        quad = inner_vertex(f, -laplacian_apply(f, w, d))
        assert energy == pytest.approx(quad, rel=1e-10)

    def test_divgrad_matrix_factorization(self):
        w, d = random_graph(50, 40)
        lap = laplacian_matrix(w, d)
        basis = np.zeros(50)
        composed = np.empty((50, 50))
        for k in range(50):
            basis[k] = 1.0
            composed[:, k] = divergence(gradient(basis, w, d), w, d)
            basis[k] = 0.0
        assert np.abs(composed - lap).max() <= 1e-12


class TestCsvRoundTrip:
    def test_vector(self, tmp_path):
        v = np.random.default_rng(41).standard_normal(31)
        path = tmp_path / "vec.csv"
        write_vector_csv(path, v)
        np.testing.assert_array_equal(read_vector_csv(path), v)

    def test_matrix(self, tmp_path):
        m = np.random.default_rng(42).standard_normal((9, 9))
        path = tmp_path / "mat.csv"
        write_matrix_csv(path, m)
        np.testing.assert_array_equal(read_matrix_csv(path), m)

    def test_sparse_field_export(self, tmp_path):
        # a truncated gradient holds -0 entries; they round-trip with their sign
        w, d = random_graph(20, 43, tau=1e-6, epsilon=0.5)
        g = gradient(np.random.default_rng(44).standard_normal(20), w, d)
        assert ((g == 0) & np.signbit(g)).any()
        path = tmp_path / "field.csv"
        write_matrix_csv(path, g)
        back = read_matrix_csv(path)
        np.testing.assert_array_equal(back, g)
        np.testing.assert_array_equal(np.signbit(back), np.signbit(g))
