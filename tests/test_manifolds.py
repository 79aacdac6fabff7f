import hashlib
import re

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


# sha256 of the bytes of eval_pair's (f, lap) on sample(manifold, 500, seed=0)
EVAL_PAIR_DIGESTS = {
    ("circle", "const_one"): (
        "d1ddda0aa655c9a3ba69e12852de5a2ff86c3f40b57a7006741476c1bbf911e2",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
    ),
    ("circle", "cos_theta"): (
        "f611cf56faec4d6e5c88321925db74867fc95e47b4bc8beecd85d5fb0dd19be0",
        "65a54654617912e2fbb0dd37dd242f5f3f927c8e928bb13a2d06902805d0d5c7",
    ),
    ("circle", "sin_3theta"): (
        "58646c2fcfff20854d349140cc94d73f3fd54d057e4180d966c9e0c9edd08f21",
        "bd9fc34c5dc3b8b2674d661174235d7fdc5c8249f7944086b267d3c96edacf90",
    ),
    ("circle", "sin_theta"): (
        "7264bba790fbb2b121799a74f2ee3be887def8b76da51dd535a24ac1886a38b0",
        "31f96482fc34b69d02f51de71d8e9755d54784ed8fd7ef1770f4cd1e5235f58f",
    ),
    ("sphere", "const_one"): (
        "d1ddda0aa655c9a3ba69e12852de5a2ff86c3f40b57a7006741476c1bbf911e2",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
    ),
    ("sphere", "coord_x"): (
        "c3182c21ba79e9d0f7762e346baae98c3676a69fcaeca883377169cbc7e10b65",
        "bafe93bdc201941cdb80aeb3d881b55ccb87f021e8981eebaeacac4ecff4bb72",
    ),
    ("sphere", "coord_z"): (
        "52b123270c8d94b01aafaeb3c44e6a80147e33a8a3ba881b4c4c1c4d8af67167",
        "4f1af17f70ba28a3370d0220123d7720a47a14742c6e3c238ededd49e44a7fbd",
    ),
    ("sphere", "harmonic_xy"): (
        "50a48d2d3c94416d45d82806e7fd6b696a51117d61a330387e44a6fbf76d1677",
        "2914a7b833a99e9d7bc1d33e69d5edb7164efcb2e868b3cb61bfb350c64bc0aa",
    ),
    ("torus", "const_one"): (
        "d1ddda0aa655c9a3ba69e12852de5a2ff86c3f40b57a7006741476c1bbf911e2",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
    ),
    ("torus", "sin_phi"): (
        "83242c3a5dad74276177d22f29c06581e2a845a78e0909fa0e34e51f8df3e5ea",
        "88f6d41cdc2889ab2e1195dd198a72399b25f322e0dfafbf27388e4a4eb10557",
    ),
    ("torus", "sin_theta"): (
        "7264bba790fbb2b121799a74f2ee3be887def8b76da51dd535a24ac1886a38b0",
        "31f96482fc34b69d02f51de71d8e9755d54784ed8fd7ef1770f4cd1e5235f58f",
    ),
    ("torus", "sin_theta_cos_phi"): (
        "a94e1c0f85199187ad18b3a9cd31f6313d00ae091b87bc6cf33db9caba8b5ffd",
        "1fed2f9062a1b186e1963f8abf470846105d1f3eae5a79593737a1eb0acfca67",
    ),
}


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

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got -1$"):
            sample("circle", 10, seed=-1)

    @pytest.mark.parametrize(
        "seed",
        [2.5, 2.0, True, np.True_, 2**64, "2"],
        ids=["fraction", "float", "bool", "numpy-bool", "2**64", "string"],
    )
    def test_rejects_a_seed_that_is_not_a_64_bit_integer(self, seed):
        # int() would truncate 2.5 to 2 and read True as 1
        bound = " below 2**64" if isinstance(seed, int) and seed == 2**64 else ""
        message = f"^{re.escape(f'seed must be a nonnegative integer{bound}, got {seed!r}')}$"
        with pytest.raises(ValueError, match=message):
            sample("circle", 4, seed=seed)

    def test_numpy_integer_seed_is_its_value(self):
        expected = sample("circle", 4, seed=2**64 - 1).points
        assert np.array_equal(sample("circle", 4, seed=np.uint64(2**64 - 1)).points, expected)


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

    @pytest.mark.parametrize("manifold", ["circle", "sphere", "torus"])
    def test_grid_size_is_the_grid_sample_size(self, manifold):
        m = get_manifold(manifold)
        assert [m.grid_size(n) for n in range(2, 400)] == [grid_sample(m, n).n_points for n in range(2, 400)]

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


@pytest.mark.parametrize(
    "draw", [lambda n: sample("circle", n, seed=1), lambda n: grid_sample("circle", n)],
    ids=["sample", "grid_sample"],
)
class TestPointCount:
    @pytest.mark.parametrize(
        "n", [4.5, np.float64(3.0), True, 1], ids=["fraction", "numpy-float", "bool", "one"]
    )
    def test_refuses_a_count_that_is_not_an_integer_of_at_least_2(self, draw, n):
        # int() would truncate 4.5 to 4 and read True as 1
        with pytest.raises(ValueError, match=f"^{re.escape(f'N must be an integer >= 2, got {n!r}')}$"):
            draw(n)

    def test_numpy_integer_count_is_its_value(self, draw):
        assert draw(np.int64(5)).n_points == 5


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

    @pytest.mark.parametrize(
        "manifold,fn_id",
        [(m, fn_id) for m in manifold_names() for fn_id in sorted(get_manifold(m).functions)],
    )
    def test_outputs_are_pinned(self, manifold, fn_id):
        f, lap = eval_pair(manifold, fn_id, sample(manifold, 500, seed=0))
        eigenvalue = get_manifold(manifold).functions[fn_id].eigenvalue
        assert lap.tobytes() == (eigenvalue * f).tobytes()
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (f, lap))
        assert digests == EVAL_PAIR_DIGESTS[(manifold, fn_id)]


class TestLaplaceBeltramiFiniteDifferenceOracle:
    """Independent check of every registered eigenvalue: eigenvalue * f
    against central differences in intrinsic coordinates."""

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
                closed = fn.eigenvalue * fn.eval(circle_point(theta))[0]
                assert closed == pytest.approx(self._fd_circle(fn, theta), abs=2e-5)

    def test_sphere_functions(self):
        m = get_manifold("sphere")
        for polar, azimuth in ((0.7, 0.4), (1.3, 2.9), (2.2, 5.1)):
            for fn in m.functions.values():
                closed = fn.eigenvalue * fn.eval(sphere_point(polar, azimuth))[0]
                assert closed == pytest.approx(self._fd_sphere(fn, polar, azimuth), abs=2e-4)

    def test_torus_functions(self):
        m = get_manifold("torus")
        for theta, phi in ((0.5, 1.1), (2.4, 3.8), (5.9, 0.2)):
            for fn in m.functions.values():
                closed = fn.eigenvalue * fn.eval(torus_point(theta, phi))[0]
                assert closed == pytest.approx(self._fd_torus(fn, theta, phi), abs=2e-5)
