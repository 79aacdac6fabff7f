import numpy as np
import pytest
from scipy.stats import kstest

from graph_calculus import (
    KernelConfig,
    build_weights,
    degrees,
    eval_pair,
    get_manifold,
    grid_sample,
    manifold_names,
    sample,
)
from graph_calculus.manifolds import registry_payload


def circle_point(theta):
    return np.array([[np.cos(theta), np.sin(theta)]])


def sphere_point(polar, azimuth):
    return np.array(
        [[np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)]]
    )


def torus_point(theta, phi):
    return np.array([[np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)]])


class TestRegistry:
    def test_names(self):
        assert manifold_names() == ["circle", "sphere", "torus"]

    def test_descriptor_facts(self):
        circle = get_manifold("circle")
        sphere = get_manifold("sphere")
        torus = get_manifold("torus")
        assert (circle.intrinsic_dim, circle.ambient_dim) == (1, 2)
        assert (sphere.intrinsic_dim, sphere.ambient_dim) == (2, 3)
        assert (torus.intrinsic_dim, torus.ambient_dim) == (2, 4)
        assert circle.volume == pytest.approx(2 * np.pi)
        assert sphere.volume == pytest.approx(4 * np.pi)
        assert torus.volume == pytest.approx((2 * np.pi) ** 2)

    def test_curvature_fields(self):
        pts = sample("sphere", 50, seed=0).points
        np.testing.assert_array_equal(get_manifold("sphere").scalar_curvature(pts), 2.0)
        cpts = sample("circle", 50, seed=0).points
        np.testing.assert_array_equal(get_manifold("circle").scalar_curvature(cpts), 0.0)
        tpts = sample("torus", 50, seed=0).points
        np.testing.assert_array_equal(get_manifold("torus").scalar_curvature(tpts), 0.0)

    def test_descriptor_passes_through(self):
        sphere = get_manifold("sphere")
        assert get_manifold(sphere) is sphere

    def test_unknown_manifold_lists_valid_ids(self):
        with pytest.raises(ValueError, match="circle, sphere, torus"):
            get_manifold("klein_bottle")

    def test_payload(self):
        payload = registry_payload()
        assert [m["id"] for m in payload] == ["circle", "sphere", "torus"]
        assert all({"id", "intrinsic_dim", "ambient_dim", "volume", "functions"} <= set(m) for m in payload)
        assert "sin_theta" in payload[0]["functions"]


class TestSamplers:
    @pytest.mark.parametrize("name", ["circle", "sphere", "torus"])
    def test_on_manifold_residuals(self, name):
        pts = sample(name, 3000, seed=7).points
        if name == "circle":
            residual = np.abs(np.linalg.norm(pts, axis=1) - 1.0)
        elif name == "sphere":
            residual = np.abs(np.linalg.norm(pts, axis=1) - 1.0)
        else:
            residual = np.maximum(
                np.abs(np.linalg.norm(pts[:, :2], axis=1) - 1.0),
                np.abs(np.linalg.norm(pts[:, 2:], axis=1) - 1.0),
            )
        assert residual.max() <= 1e-12

    @pytest.mark.parametrize("name", ["circle", "sphere", "torus"])
    def test_bitwise_determinism(self, name):
        a = sample(name, 512, seed=123).points
        b = sample(name, 512, seed=123).points
        assert np.array_equal(a, b)
        c = sample(name, 512, seed=124).points
        assert not np.array_equal(a, c)

    def test_sphere_z_mean_four_sigma(self):
        # var of uniform z on the sphere is 1/3
        n = 10000
        pts = sample("sphere", n, seed=11).points
        assert abs(pts[:, 2].mean()) <= 4.0 / np.sqrt(3.0 * n)

    def test_circle_uniformity_ks_50_seeds(self):
        # sampler canary: angle distribution stays inside the 0.1% KS band
        n = 10000
        for seed in range(50):
            pts = sample("circle", n, seed=seed).points
            theta = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
            assert kstest(theta / (2.0 * np.pi), "uniform").pvalue > 0.001, f"seed {seed}"

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError, match=">= 2"):
            sample("circle", 1, seed=0)


class TestGridSample:
    def test_circle_four_points(self):
        pts = grid_sample("circle", 4).points
        expected_angles = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        expected = np.stack([np.cos(expected_angles), np.sin(expected_angles)], axis=1)
        np.testing.assert_array_equal(pts, expected)

    def test_circle_grid_degrees_circulant(self):
        cloud = grid_sample("circle", 257)
        d = degrees(build_weights(cloud, KernelConfig(epsilon=0.01)))
        assert (d.max() - d.min()) / d.mean() <= 1e-10

    def test_torus_grid_counts(self):
        assert grid_sample("torus", 9).n_points == 9  # 3 x 3
        assert grid_sample("torus", 10).n_points == 16  # rounds up to 4 x 4

    def test_torus_grid_structure(self):
        pts = grid_sample("torus", 9).points
        theta = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)
        phi = np.mod(np.arctan2(pts[:, 3], pts[:, 2]), 2 * np.pi)
        grid_angles = {0.0, 2 * np.pi / 3, 4 * np.pi / 3}
        assert {round(t, 12) for t in theta} == {round(a, 12) for a in grid_angles}
        assert {round(p, 12) for p in phi} == {round(a, 12) for a in grid_angles}

    def test_sphere_grid_on_manifold_and_deterministic(self):
        a = grid_sample("sphere", 1000).points
        assert np.abs(np.linalg.norm(a, axis=1) - 1.0).max() <= 1e-12
        b = grid_sample("sphere", 1000).points
        assert np.array_equal(a, b)


class TestEvalPair:
    def test_circle_sin_eigenfunctions(self):
        cloud = sample("circle", 200, seed=3)
        theta = np.mod(np.arctan2(cloud.points[:, 1], cloud.points[:, 0]), 2 * np.pi)
        f, lap = eval_pair("circle", "sin_theta", cloud)
        np.testing.assert_allclose(f, np.sin(theta), atol=1e-14)
        np.testing.assert_allclose(lap, -np.sin(theta), atol=1e-14)
        f3, lap3 = eval_pair("circle", "sin_3theta", cloud)
        np.testing.assert_allclose(f3, np.sin(3 * theta), atol=1e-12)
        np.testing.assert_allclose(lap3, -9.0 * np.sin(3 * theta), atol=1e-11)

    def test_sphere_degree_one_harmonic(self):
        cloud = sample("sphere", 150, seed=4)
        f, lap = eval_pair("sphere", "coord_z", cloud)
        np.testing.assert_allclose(lap, -2.0 * f, atol=1e-14)

    def test_torus_flat_metric(self):
        cloud = sample("torus", 150, seed=5)
        f, lap = eval_pair("torus", "sin_theta", cloud)
        np.testing.assert_allclose(f, cloud.points[:, 1], atol=1e-14)
        np.testing.assert_allclose(lap, -f, atol=1e-14)

    def test_unknown_function_lists_ids(self):
        cloud = sample("circle", 10, seed=6)
        with pytest.raises(ValueError, match="sin_theta"):
            eval_pair("circle", "nope", cloud)


class TestLaplaceBeltramiFiniteDifferenceOracle:
    """Independent check of every registered closed form via central
    differences in intrinsic coordinates."""

    H = 1e-4

    def _fd_circle(self, fn, theta):
        h = self.H
        f = lambda t: fn.eval(circle_point(t))[0]
        return (f(theta + h) - 2.0 * f(theta) + f(theta - h)) / h**2

    def _fd_sphere(self, fn, polar, azimuth):
        # spherical Laplacian: f_pp + cot(p) f_p + f_aa / sin(p)^2
        h = self.H
        f = lambda p, a: fn.eval(sphere_point(p, a))[0]
        f_pp = (f(polar + h, azimuth) - 2 * f(polar, azimuth) + f(polar - h, azimuth)) / h**2
        f_p = (f(polar + h, azimuth) - f(polar - h, azimuth)) / (2 * h)
        f_aa = (f(polar, azimuth + h) - 2 * f(polar, azimuth) + f(polar, azimuth - h)) / h**2
        return f_pp + f_p / np.tan(polar) + f_aa / np.sin(polar) ** 2

    def _fd_torus(self, fn, theta, phi):
        h = self.H
        f = lambda t, p: fn.eval(torus_point(t, p))[0]
        f_tt = (f(theta + h, phi) - 2 * f(theta, phi) + f(theta - h, phi)) / h**2
        f_pp = (f(theta, phi + h) - 2 * f(theta, phi) + f(theta, phi - h)) / h**2
        return f_tt + f_pp

    def test_circle_functions(self):
        m = get_manifold("circle")
        for theta in (0.3, 1.7, 4.4):
            for fn in m.functions.values():
                closed = fn.laplace_beltrami(circle_point(theta))[0]
                assert closed == pytest.approx(self._fd_circle(fn, theta), abs=2e-5)

    def test_sphere_functions(self):
        m = get_manifold("sphere")
        for polar, azimuth in ((0.7, 0.4), (1.3, 2.9), (2.2, 5.1)):
            for fn in m.functions.values():
                closed = fn.laplace_beltrami(sphere_point(polar, azimuth))[0]
                assert closed == pytest.approx(self._fd_sphere(fn, polar, azimuth), abs=2e-4)

    def test_torus_functions(self):
        m = get_manifold("torus")
        for theta, phi in ((0.5, 1.1), (2.4, 3.8), (5.9, 0.2)):
            for fn in m.functions.values():
                closed = fn.laplace_beltrami(torus_point(theta, phi))[0]
                assert closed == pytest.approx(self._fd_torus(fn, theta, phi), abs=2e-5)
