import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_calculus import (
    KernelConfig,
    PointCloud,
    build_weights,
    degrees,
    degrees_from_cloud,
    kernel_matvec,
    laplacian_apply,
    laplacian_from_cloud,
)
from graph_calculus import graph_core


def random_cloud(n, dim, seed):
    rng = np.random.default_rng(seed)
    return PointCloud(points=rng.standard_normal((n, dim)))


# the worked 3-point example: (0,0), (1,0), (0,2) with eps = 1
WORKED_POINTS = [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]


class TestPointCloud:
    def test_shape_and_props(self):
        cloud = PointCloud(points=WORKED_POINTS)
        assert cloud.n_points == 3
        assert cloud.ambient_dim == 2

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="at least 2"):
            PointCloud(points=[[0.0, 0.0]])

    def test_rejects_non_finite_naming_index(self):
        pts = [[0.0, 0.0], [1.0, np.nan], [2.0, 0.0]]
        with pytest.raises(ValueError, match="point index 1"):
            PointCloud(points=pts)

    def test_rejects_ragged_or_1d(self):
        with pytest.raises(ValueError):
            PointCloud(points=[1.0, 2.0, 3.0])

    def test_points_are_immutable(self):
        cloud = PointCloud(points=WORKED_POINTS)
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 5.0

    def test_from_csv(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("# x,y header comment\n0.0,0.0\n1.0,0.0\n0.0,2.0\n")
        cloud = PointCloud.from_csv(path)
        assert cloud.n_points == 3
        np.testing.assert_array_equal(cloud.points, np.asarray(WORKED_POINTS))

    def test_from_csv_bad_content(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,zzz\n1.0,2.0\n")
        with pytest.raises(ValueError, match="bad.csv"):
            PointCloud.from_csv(path)


class TestKernelConfig:
    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
    def test_bad_epsilon(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            KernelConfig(epsilon=eps)

    @pytest.mark.parametrize("tau", [-0.1, 1.0, 1.5])
    def test_bad_tau(self, tau):
        with pytest.raises(ValueError, match="truncation_tau"):
            KernelConfig(epsilon=1.0, truncation_tau=tau)


class TestBuildWeights:
    def test_self_weight_is_one(self):
        w = build_weights(PointCloud(points=WORKED_POINTS), KernelConfig(epsilon=0.37))
        assert w[0, 0] == 1.0
        assert w[1, 1] == 1.0

    def test_distance_sq_two_eps_gives_inverse_e(self):
        # |u - v|^2 = 2 eps forces w = exp(-1)
        eps = 0.73
        pts = [[0.0, 0.0], [math.sqrt(2.0 * eps), 0.0]]
        w = build_weights(PointCloud(points=pts), KernelConfig(epsilon=eps))
        assert w[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert w[0, 1] == pytest.approx(0.3678794, abs=5e-8)

    def test_worked_example_weights(self):
        w = build_weights(PointCloud(points=WORKED_POINTS), KernelConfig(epsilon=1.0))
        # squared distances 1, 4, 5 evaluated through the scalar kernel formula
        assert w[0, 1] == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert w[1, 2] == pytest.approx(math.exp(-2.5), rel=1e-15)
        assert w[0, 2] == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert w[0, 1] == pytest.approx(0.6065307, abs=5e-8)
        assert w[1, 2] == pytest.approx(0.0820850, abs=5e-8)
        assert w[0, 2] == pytest.approx(0.1353353, abs=5e-8)

    @pytest.mark.parametrize(
        "n,dim,seed,eps,tau,rows",
        [
            pytest.param(2, 2, 0, 0.8, 0.0, None, id="2-2-0"),
            pytest.param(37, 3, 1, 0.8, 0.0, None, id="37-3-1"),
            pytest.param(200, 5, 2, 0.8, 0.0, None, id="200-5-2"),
            pytest.param(128, 4, 3, 0.8, 0.0, None, id="128-4-3"),
            pytest.param(150, 3, 4, 0.3, 1e-5, None, id="150-3-4-1e-05"),
            pytest.param(150, 3, 4, 0.3, 1e-5, 40, id="150-3-4-1e-05-blocks40"),
        ],
    )
    def test_symmetry_is_bit_exact(self, split_blocks, n, dim, seed, eps, tau, rows):
        cloud = random_cloud(n, dim, seed)
        if rows is not None:
            split_blocks(n, dim, rows)
        w = build_weights(cloud, KernelConfig(epsilon=eps, truncation_tau=tau))
        assert np.abs(w - w.T).max() == 0.0

    def test_several_blocks_match_pairwise_formula(self, split_blocks):
        cloud = random_cloud(200, 5, 2)
        split_blocks(200, 5, 37)
        w = build_weights(cloud, KernelConfig(epsilon=0.8))
        assert np.abs(w - w.T).max() == 0.0
        x = cloud.points
        sq_dist = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        # GEMM distances err by ~1e-16 |x|^2, i.e. ~1e-14 relative in w here
        np.testing.assert_allclose(w, np.exp(-sq_dist / (2 * 0.8)), rtol=1e-12, atol=0.0)

    def test_truncation_consistency_across_blocks(self, split_blocks):
        cloud = random_cloud(120, 3, 6)
        split_blocks(120, 3, 50)
        tau = 1e-4
        dense = build_weights(cloud, KernelConfig(epsilon=0.4))
        trunc = build_weights(cloud, KernelConfig(epsilon=0.4, truncation_tau=tau))
        kept = trunc != 0
        assert np.array_equal(trunc[kept], dense[kept])
        assert dense[~kept].max() < tau
        assert not np.signbit(trunc).any()  # dropped weights are +0.0, never -0.0

    def test_epsilon_monotonicity(self):
        cloud = random_cloud(40, 3, 5)
        w_small = build_weights(cloud, KernelConfig(epsilon=0.5))
        w_big = build_weights(cloud, KernelConfig(epsilon=1.5))
        off = ~np.eye(40, dtype=bool)
        assert (w_big[off] > w_small[off]).all()

    def test_truncation_consistency(self):
        cloud = random_cloud(120, 3, 6)
        tau = 1e-4
        dense = build_weights(cloud, KernelConfig(epsilon=0.4))
        trunc = build_weights(cloud, KernelConfig(epsilon=0.4, truncation_tau=tau))
        assert isinstance(trunc, np.ndarray)
        kept = trunc != 0
        assert np.array_equal(trunc[kept], dense[kept])
        assert dense[~kept].max() < tau

    def test_entries_in_unit_interval(self):
        cloud = random_cloud(60, 4, 7)
        w = build_weights(cloud, KernelConfig(epsilon=0.9))
        assert w.min() >= 0.0 and w.max() <= 1.0

    @pytest.mark.parametrize("tau", [0.0, 1e-8])
    def test_dense_limit_enforced(self, tau):
        rng = np.random.default_rng(8)
        cloud = PointCloud(points=rng.standard_normal((4097, 2)))
        with pytest.raises(ValueError, match=r"limited to N <= 4096 points \(got 4097\)$"):
            build_weights(cloud, KernelConfig(epsilon=1.0, truncation_tau=tau))

    def test_build_is_deterministic(self):
        cloud = random_cloud(90, 3, 9)
        w1 = build_weights(cloud, KernelConfig(epsilon=0.6))
        w2 = build_weights(cloud, KernelConfig(epsilon=0.6))
        assert np.array_equal(w1, w2)


class TestDegrees:
    def test_coincident_points(self):
        cloud = PointCloud(points=[[1.0, 2.0]] * 3)
        d = degrees(build_weights(cloud, KernelConfig(epsilon=0.5)))
        np.testing.assert_array_equal(d, [3.0, 3.0, 3.0])

    def test_worked_example_degree(self):
        w = build_weights(PointCloud(points=WORKED_POINTS), KernelConfig(epsilon=1.0))
        d = degrees(w)
        expected = 1.0 + math.exp(-0.5) + math.exp(-2.0)
        assert d[0] == pytest.approx(expected, rel=1e-15)
        assert d[0] == pytest.approx(1.7418660, abs=1e-7)

    def test_kernel_decay_to_isolated(self):
        eps = 0.01
        pts = [[0.0], [math.sqrt(200.0 * eps)]]
        d = degrees(build_weights(PointCloud(points=pts), KernelConfig(epsilon=eps)))
        # 1 + exp(-100) rounds to exactly 1.0 in float64
        np.testing.assert_array_equal(d, [1.0, 1.0])

    def test_row_sum_consistency_and_bounds(self):
        cloud = random_cloud(180, 3, 10)
        w = build_weights(cloud, KernelConfig(epsilon=0.7))
        d = degrees(w)
        explicit = np.array([w[i].sum() for i in range(180)])
        assert np.abs(d - explicit).max() <= 1e-12 * 180
        assert (d >= 1.0).all() and (d <= 180.0).all()
        assert (d >= w.diagonal()).all()

    def test_sparse_degrees_match_dense(self):
        cloud = random_cloud(100, 3, 11)
        dd = degrees(build_weights(cloud, KernelConfig(epsilon=2.0)))
        ds = degrees(build_weights(cloud, KernelConfig(epsilon=2.0, truncation_tau=1e-13)))
        assert np.abs(dd - ds).max() <= 1e-12 * 100


class TestDegreesFromCloud:
    @pytest.mark.parametrize("tau", [0.0, 1e-8, 1e-4])
    def test_matches_materialized_route(self, tau):
        cloud = random_cloud(230, 3, 12)
        kernel = KernelConfig(epsilon=0.5, truncation_tau=tau)
        d_direct = degrees_from_cloud(cloud, kernel)
        d_route = degrees(build_weights(cloud, kernel))
        assert np.abs(d_direct - d_route).max() <= 1e-12 * 230

    def test_handles_blocking_boundaries(self, split_blocks):
        cloud = random_cloud(1201, 2, 13)
        split_blocks(1201, 2, 300)  # four full row blocks and a one-row fifth
        kernel = KernelConfig(epsilon=0.2, truncation_tau=1e-6)
        d_direct = degrees_from_cloud(cloud, kernel)
        d_route = degrees(build_weights(cloud, kernel))
        assert np.abs(d_direct - d_route).max() <= 1e-12 * 1201


_COORD = st.floats(-2.0, 2.0)


@st.composite
def degenerate_clouds(draw):
    """(points, vector, block rows) for clouds of 2-12 points, often degenerate."""
    n = draw(st.integers(2, 12))
    dim = draw(st.integers(1, 3))
    point = st.lists(_COORD, min_size=dim, max_size=dim)
    pts = np.array(draw(st.lists(point, min_size=n, max_size=n)))
    kind = draw(st.sampled_from(("general", "duplicates", "collinear")))
    if kind == "duplicates":
        pts = pts[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    elif kind == "collinear":
        pts = pts[0] + np.outer(draw(st.lists(_COORD, min_size=n, max_size=n)), pts[1] - pts[0])
    g = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return pts, g, draw(st.integers(1, n))


class TestKernelMatvec:
    @pytest.mark.parametrize("tau", [0.0, 1e-4])
    def test_matches_stored_product_across_blocks(self, split_blocks, tau):
        cloud = random_cloud(230, 3, 14)
        split_blocks(230, 3, 60)  # three full row blocks and a ragged fourth
        kernel = KernelConfig(epsilon=0.5, truncation_tau=tau)
        g = np.random.default_rng(15).uniform(0.5, 1.5, 230)
        expected = build_weights(cloud, kernel) @ g
        np.testing.assert_allclose(kernel_matvec(cloud, kernel, g), expected, rtol=1e-12, atol=0.0)

    def test_rejects_length_mismatch(self):
        cloud, kernel = random_cloud(5, 2, 0), KernelConfig(epsilon=1.0)
        for g, match in [(np.ones(4), "shape"), ([1.0, np.nan, 0.0, 0.0, 0.0], "non-finite")]:
            with pytest.raises(ValueError, match=match):
                kernel_matvec(cloud, kernel, g)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        case=degenerate_clouds(),
        log_eps=st.floats(-9.0, 6.0),
        tau=st.sampled_from((0.0, 1e-8)),
    )
    def test_matches_stored_product_on_degenerate_clouds(self, case, log_eps, tau):
        pts, g, rows = case
        n, dim = pts.shape
        cloud = PointCloud(points=pts)
        kernel = KernelConfig(epsilon=10.0**log_eps, truncation_tau=tau)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_core, "_BLOCK_BYTES", 8 * n * dim * rows)
            got = kernel_matvec(cloud, kernel, g)
            w = build_weights(cloud, kernel)
        # The norm expansion may round the distance of (u, v) and of (v, u)
        # a few ulps of |x|^2 apart. W keeps one orientation of a diagonal
        # block and the product uses both, so a weight may differ by up to
        # that over 2 eps.
        slack = 8 * np.finfo(float).eps * (pts**2).sum(axis=1).max() / (2 * kernel.epsilon)
        bound = 1e-12 * (np.abs(w) @ np.abs(g)) + slack * np.abs(g).sum()
        assert (np.abs(got - w @ g) <= bound).all()


class TestLaplacianFromCloud:
    @pytest.mark.parametrize("tau", [0.0, 1e-4])
    def test_matches_stored_reference_across_blocks(self, split_blocks, tau):
        cloud = random_cloud(230, 3, 16)
        split_blocks(230, 3, 60)  # three full row blocks and a ragged fourth
        kernel = KernelConfig(epsilon=0.5, truncation_tau=tau)
        f = np.random.default_rng(17).uniform(-2.0, 2.0, 230)
        w = build_weights(cloud, kernel)
        expected = laplacian_apply(f, w, degrees(w))
        got = laplacian_from_cloud(cloud, kernel, f, degrees_from_cloud(cloud, kernel))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "f, d, match",
        [
            (np.ones(4), np.ones(5), "vertex function has shape"),
            (np.ones(5), np.ones(4), "degree vector has shape"),
            ([1.0, np.nan, 0.0, 0.0, 0.0], np.ones(5), "non-finite"),
            ([1.0, np.inf, 0.0, 0.0, 0.0], np.ones(5), "non-finite"),
            (np.ones(5), [1.0, 1.0, 0.0, 1.0, 1.0], "strictly positive"),
            (np.ones(5), [1.0, -1.0, 1.0, 1.0, 1.0], "strictly positive"),
        ],
    )
    def test_rejects_bad_input(self, f, d, match):
        with pytest.raises(ValueError, match=match):
            laplacian_from_cloud(random_cloud(5, 2, 0), KernelConfig(epsilon=1.0), f, d)
