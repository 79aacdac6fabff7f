import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_calculus import (
    KernelConfig,
    PointCloud,
    build_weights,
    degrees,
    degrees_from_cloud,
    divergence,
    gradient,
    inner_edge,
    inner_vertex,
    kernel_matvec,
    laplacian_apply,
    laplacian_from_cloud,
    laplacian_matrix,
    sample,
)
from graph_calculus import graph_core, verification
from graph_calculus.convergence import lemma_check


def random_cloud(n, dim, seed):
    rng = np.random.default_rng(seed)
    return PointCloud(points=rng.standard_normal((n, dim)))


def pairwise_weights(x, eps):
    """W from its formula, with each difference x_u - x_v taken directly."""
    return np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2) / (2 * eps))


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
    # only a real number is read as one, not a bool: True would run at eps 1.0
    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf, True, np.True_, "0.5", None, [0.1], 1 + 2j])
    def test_bad_epsilon(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            KernelConfig(epsilon=eps)

    @pytest.mark.parametrize("tau", [-0.1, 1.0, 1.5, False, np.False_, "0", None, [0.0], 0.5j])
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
            split_blocks(n, rows)
        w = build_weights(cloud, KernelConfig(epsilon=eps, truncation_tau=tau))
        assert np.abs(w - w.T).max() == 0.0

    def test_several_blocks_match_pairwise_formula(self, split_blocks):
        cloud = random_cloud(200, 5, 2)
        split_blocks(200, 37)
        w = build_weights(cloud, KernelConfig(epsilon=0.8))
        assert np.abs(w - w.T).max() == 0.0
        # GEMM exponents err by ~1e-16 |y|^2 / eps, i.e. ~1e-14 relative in w here
        np.testing.assert_allclose(w, pairwise_weights(cloud.points, 0.8), rtol=1e-12, atol=0.0)

    def test_truncation_consistency_across_blocks(self, split_blocks):
        cloud = random_cloud(120, 3, 6)
        split_blocks(120, 50)
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

    @pytest.mark.parametrize("eps", [0.01, 0.1, 1.0, 10.0])
    def test_duplicated_points_weigh_at_most_one(self, eps):
        # The ln W of two coincident points rounds to a few ulps either side
        # of 0, so their weight rounds to a few ulps either side of 1; the
        # stored W is clamped at 1.
        for seed in range(10):
            base = np.random.default_rng(seed).uniform(-2.0, 2.0, (3, 3))
            w = build_weights(PointCloud(points=base[[0, 0, 1, 1, 2, 2]]), KernelConfig(epsilon=eps))
            assert w.max() == 1.0

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

    @pytest.mark.parametrize("tau", [0.0, 1e-8])
    def test_tiny_epsilon_leaves_the_self_weight_alone(self, tau):
        # ln W's roundoff passes exp's overflow point at eps 1e-20, yet the
        # diagonal is -inf before the exp and every other weight underflows
        cloud = random_cloud(500, 3, 14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = degrees_from_cloud(cloud, KernelConfig(epsilon=1e-20, truncation_tau=tau))
        assert np.array_equal(d, np.ones(500))

    def test_handles_blocking_boundaries(self, split_blocks):
        cloud = random_cloud(1201, 2, 13)
        split_blocks(1201, 300)  # four full row blocks and a one-row fifth
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
        split_blocks(230, 60)  # three full row blocks and a ragged fourth
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
        cloud = PointCloud(points=pts)
        kernel = KernelConfig(epsilon=10.0**log_eps, truncation_tau=tau)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_core, "_TILE", rows)
            got = kernel_matvec(cloud, kernel, g)
            w = build_weights(cloud, kernel)
        # The GEMM that gives ln W may round the exponent of (u, v) and of
        # (v, u) a few ulps of |y|^2 / eps apart. W keeps one orientation of
        # a diagonal tile and the product uses both, so a weight may differ
        # by up to that.
        slack = 8 * np.finfo(float).eps * (pts**2).sum(axis=1).max() / (2 * kernel.epsilon)
        bound = 1e-12 * (np.abs(w) @ np.abs(g)) + slack * np.abs(g).sum()
        assert (np.abs(got - w @ g) <= bound).all()


class TestOperatorIdentities:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        case=degenerate_clouds(),
        log_eps=st.floats(-9.0, 6.0),
        tau=st.sampled_from((0.0, 1e-8)),
        offset=st.sampled_from((0.0, 1e2, 1e4, 1e6)),
    )
    def test_identities_hold_on_degenerate_clouds(self, case, log_eps, tau, offset):
        # The identities verify checks, with its tolerances, on the stored W
        # of duplicated and collinear clouds, near the origin or translated
        # far from it; at tau > 0 W is its own tau = 0 result with the
        # weights below tau zeroed.
        pts, f, rows = case
        pts = pts + offset
        cloud = PointCloud(points=pts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_core, "_TILE", rows)
            w = build_weights(cloud, KernelConfig(epsilon=10.0**log_eps, truncation_tau=tau))
            dense = build_weights(cloud, KernelConfig(epsilon=10.0**log_eps))
        assert np.array_equal(w, w.T)
        assert np.array_equal(w, np.where(dense >= tau, dense, 0.0))
        tol = verification._TOLERANCES
        d = degrees(w)
        field = np.random.default_rng(len(pts)).standard_normal((len(pts), len(pts)))
        g = gradient(f, w, d)
        assert np.abs(g + g.T).max() <= tol["gradient_antisymmetry"]
        a, b = inner_edge(g, field), inner_vertex(f, divergence(field, w, d))
        # Where f is constant on duplicated points, <f, div F> cancels terms
        # of W's size down to a result as small as the weights between
        # clusters, so the residual is taken relative to its summands too.
        terms = np.abs(f) @ (np.sqrt(w / (2.0 * d[:, None])) * np.abs(field - field.T)).sum(axis=1)
        assert abs(a + b) <= tol["adjointness"] * max(abs(a), abs(b), terms, np.finfo(float).tiny)
        divgrad = verification._divgrad_matrix(w, d)
        assert np.abs(divgrad - laplacian_matrix(w, d)).max() <= tol["divgrad_factorization"]


def circle_and_far_cluster(seed):
    """64 points on the unit circle, then a cluster of 20 at distance 6.

    Centred, the circle's |y|^2 stays below 6 and the cluster's is about 21,
    so at eps 0.02 exp(y_u.y_v / eps) of two cluster points is about
    exp(1050), far past float64's overflow: the tiles must be taken as ln W.
    """
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    cluster = [6.0, 0.0] + 0.05 * np.random.default_rng(seed).standard_normal((20, 2))
    return PointCloud(points=np.vstack([np.c_[np.cos(theta), np.sin(theta)], cluster]))


class TestLogWeightTiles:
    """Tiles taken as ln W match W's formula where a factorized exp would overflow or lose digits."""

    @pytest.mark.parametrize("offset", [1e2, 1e4, 1e6])
    def test_offset_cloud_matches_pairwise_formula(self, split_blocks, offset):
        # Centring keeps the exponent's roundoff at the scale of the cloud's
        # own spread, whatever its offset; raw coordinates would lose digits
        # as offset^2 / eps.
        rng = np.random.default_rng(16)
        cloud = PointCloud(points=0.1 * rng.standard_normal((300, 3)) + offset)
        split_blocks(300, 70)
        kernel = KernelConfig(epsilon=0.01)
        expected = pairwise_weights(cloud.points, 0.01)
        g = rng.uniform(0.5, 1.5, 300)
        np.testing.assert_allclose(build_weights(cloud, kernel), expected, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(kernel_matvec(cloud, kernel, g), expected @ g, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("tau", [0.0, 1e-8])
    def test_far_cluster_matches_pairwise_formula(self, split_blocks, tau):
        cloud = circle_and_far_cluster(17)
        split_blocks(84, 16)
        kernel = KernelConfig(epsilon=0.02, truncation_tau=tau)
        if tau > 0.0:
            # the ordered tiles hold circle points or cluster points, and the
            # pairs of a circle tile with a cluster tile are skipped
            order = graph_core._pass_plan(cloud, kernel).order
            for rows, cols, _ in graph_core._kernel_blocks(cloud, kernel):
                on_circle = np.r_[order[rows], order[cols]] < 64
                assert on_circle.all() or not on_circle.any()
        expected = pairwise_weights(cloud.points, 0.02)
        expected[expected < tau] = 0.0
        w = build_weights(cloud, kernel)
        g = np.random.default_rng(18).uniform(0.5, 1.5, 84)
        got = kernel_matvec(cloud, kernel, g)
        assert np.isfinite(w).all() and np.isfinite(got).all()
        np.testing.assert_allclose(w, expected, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got, expected @ g, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    @pytest.mark.parametrize("tau", [0.0, 1e-8])
    def test_tiny_epsilon_stays_finite(self, split_blocks, eps, tau):
        # Every a_u = exp(-|y_u|^2 / (2 eps)) underflows to 0 here, and
        # exp(y_u.y_v / eps) would be inf, so W as a_u a_v exp(y_u.y_v / eps)
        # would be 0 * inf; the tiles take ln W, which needs neither.
        # Duplicated points keep weight 1.
        theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        circle = np.c_[np.cos(theta), np.sin(theta)]
        cloud = PointCloud(points=np.vstack([circle, circle[:5]]))
        split_blocks(69, 16)
        kernel = KernelConfig(epsilon=eps, truncation_tau=tau)
        centred = cloud.points - cloud.points.mean(axis=0)
        assert (np.exp(-(centred**2).sum(axis=1) / (2 * eps)) == 0.0).all()
        expected = pairwise_weights(cloud.points, eps)
        g = np.random.default_rng(19).uniform(0.5, 1.5, 69)
        np.testing.assert_array_equal(build_weights(cloud, kernel), expected)
        np.testing.assert_allclose(kernel_matvec(cloud, kernel, g), expected @ g, rtol=1e-15, atol=0.0)


def truncated_pairwise_weights(x, eps, tau):
    """(W from its formula with the entries below tau zeroed, the entries within 1e-12 of tau)."""
    w = pairwise_weights(x, eps)
    band = np.abs(w / tau - 1.0) < 1e-12
    w[w < tau] = 0.0
    return w, band


@st.composite
def cut_radius_clouds(draw):
    """(points, eps, tau, tile) for clouds of pairs a hair inside or outside the cut radius.

    Each pair is a base point and a second point at (1 +- delta) times the
    cut radius sqrt(-2 eps ln tau) from it, with delta from 1e-11 to 1e-4.
    The base points lie in a cube of side 3 cut radii, so with tiles of 1-6
    points the ordered tile pairs fall in all three classes.
    """
    dim = draw(st.integers(1, 3))
    eps = draw(st.sampled_from((0.02, 0.3, 2.0)))
    tau = draw(st.sampled_from((1e-8, 1e-4, 0.3)))
    radius = math.sqrt(-2.0 * eps * math.log(tau))
    pts = []
    for _ in range(draw(st.integers(2, 12))):
        base = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=dim, max_size=dim)))
        toward = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        if not np.linalg.norm(toward) > 0.1:
            toward = np.eye(dim)[0]
        delta = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.integers(-11, -4))
        pts += [radius * base, radius * (base + (1.0 + delta) * toward / np.linalg.norm(toward))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = np.array(pts)[rng.permutation(len(pts))]
    return pts, eps, tau, draw(st.integers(1, 6))


def pairs_on_a_line(deltas, eps=0.02, tau=1e-8):
    """Pairs (5 k r, 5 k r + (1 + delta_k) r) on a line, r the cut radius, in two-point tiles.

    Each tile holds one pair, so its farthest box distance is the pair's own.
    """
    radius = math.sqrt(-2.0 * eps * math.log(tau))
    pts = [[5.0 * k * radius + offset] for k, d in enumerate(deltas) for offset in (0.0, (1.0 + d) * radius)]
    return np.array(pts), eps, tau, 2


class TestTileClasses:
    """Ordered passes at tau > 0: skipped, unmasked and masked tile pairs."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(case=cut_radius_clouds())
    @example(case=pairs_on_a_line([1e-9, -1e-9, 1e-7, -1e-7]))
    def test_cut_radius_pairs_are_kept_or_dropped(self, case):
        pts, eps, tau, tile = case
        cloud, kernel = PointCloud(points=pts), KernelConfig(epsilon=eps, truncation_tau=tau)
        g = np.random.default_rng(20).uniform(0.5, 1.5, len(pts))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_core, "_TILE", tile)
            w = build_weights(cloud, kernel)
            got = kernel_matvec(cloud, kernel, g)
        ref = pairwise_weights(pts, eps)
        assert (w[ref >= tau * (1.0 + 1e-12)] != 0.0).all()
        assert (w[ref < tau * (1.0 - 1e-12)] == 0.0).all()
        expected, band = truncated_pairwise_weights(pts, eps, tau)
        np.testing.assert_allclose(w[~band], expected[~band], rtol=1e-13, atol=0.0)
        # an entry within 1e-12 of tau may go either way
        bound = 1e-13 * (expected @ g) + (band * ref) @ g
        assert (np.abs(got - expected @ g) <= bound).all()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=cut_radius_clouds())
    @example(case=pairs_on_a_line([1e-9, -1e-9, 1e-7, -1e-7]))
    def test_tiles_are_truncated_weights(self, case):
        # At tau > 0 each tile is exp(ln W) with the weights below tau zeroed:
        # each entry is the truncated pairwise weight, or, within 1e-12 of
        # tau, either that weight or 0.
        pts, eps, tau, tile = case
        cloud = PointCloud(points=pts)
        ref = pairwise_weights(pts, eps)
        expected, band = truncated_pairwise_weights(pts, eps, tau)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_core, "_TILE", tile)
            kernel = KernelConfig(eps, tau)
            order = graph_core._pass_plan(cloud, kernel).order
            for rows, cols, block in graph_core._kernel_blocks(cloud, kernel):
                pair = np.ix_(order[rows], order[cols])
                want, either, weight = expected[pair], band[pair], ref[pair]
                if cols is rows:
                    np.fill_diagonal(want, 0.0)  # the self-weight is left to the consumer
                np.testing.assert_allclose(block[~either], want[~either], rtol=1e-13, atol=0.0)
                kept = either & (block != 0.0)
                np.testing.assert_allclose(block[kept], weight[kept], rtol=1e-13, atol=0.0)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(case=cut_radius_clouds())
    @example(case=pairs_on_a_line([1e-9, -1e-9, 1e-7, -1e-7]))
    def test_trim_keeps_the_columns_within_the_limit(self, case):
        # The trim keeps exactly the columns whose squared gap to a row tile's
        # box is at most the limit, here r2 itself. It sums a gap over the axes
        # in axis order: that is a rounding choice and nothing more, so only a
        # column within 1e-12 of the limit may go either way.
        pts, eps, tau, tile = case
        r2 = -2.0 * math.log(tau)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_core, "_TILE", tile)
            aug_t = graph_core._augmented(pts, np.arange(len(pts)), eps)
            full = len(pts) // tile
            ys3 = aug_t[:-2, : full * tile].reshape(len(aug_t) - 2, full, tile)
            ys = aug_t[:-2].T
            for r0 in range(0, len(pts), tile):
                lo, hi = ys[r0 : r0 + tile].min(axis=0), ys[r0 : r0 + tile].max(axis=0)
                near = graph_core._near_columns(ys3, np.arange(full), lo, hi, np.full(full, r2))
                for u in range(full * tile):
                    reach = math.fsum(max(a - y, y - b, 0.0) ** 2 for a, y, b in zip(lo, ys[u], hi))
                    if abs(reach / r2 - 1.0) > 1e-12:
                        assert near[u // tile, u % tile] == (reach <= r2), (r0, u, reach, r2)

    @pytest.mark.parametrize(
        "case, tile",
        [
            ("circle", 16),  # 300 points: 18 full tiles and a ragged 19th
            ("sphere", 16),
            ("equal", 7),
            ("collinear", 16),
            ("sphere", 300),  # one tile holds the cloud
            ("sphere", 400),
        ],
    )
    @pytest.mark.parametrize("tau", [1e-8, 1e-4])
    def test_passes_match_truncated_pairwise_formula(self, monkeypatch, case, tile, tau):
        # at eps 0.01 the circle and the line take all three tile classes,
        # the sphere skips and masks
        rng = np.random.default_rng(21)
        if case in ("circle", "sphere"):
            pts = sample(case, 300, 4).points
        elif case == "equal":
            pts = np.tile([0.3, -1.7, 2.2], (50, 1))
        else:
            pts = np.outer(rng.uniform(-2.0, 2.0, 300), [0.6, -0.8, 0.0]) + [1.0, 2.0, 3.0]
        monkeypatch.setattr(graph_core, "_TILE", tile)
        kernel = KernelConfig(epsilon=0.01, truncation_tau=tau)
        cloud = PointCloud(points=pts)
        expected, band = truncated_pairwise_weights(pts, 0.01, tau)
        assert not band.any()
        g = rng.uniform(0.5, 1.5, len(pts))
        w = build_weights(cloud, kernel)
        np.testing.assert_allclose(w, expected, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(kernel_matvec(cloud, kernel, g), expected @ g, rtol=1e-13, atol=0.0)

    def test_ordered_tiles_take_every_class(self, split_blocks, caplog):
        # One debug line per plan at tau > 0 gives N, the tile pairs of each
        # class and the trimmed columns, and a second pass on the plan adds
        # none; at tau = 0 nothing is skipped or masked, and no line.
        cloud = sample("circle", 300, 4)
        split_blocks(300, 16)
        caplog.set_level(logging.DEBUG, logger="graph_calculus.graph_core")
        kernel_matvec(cloud, KernelConfig(epsilon=0.01), np.ones(300))
        assert caplog.records == []
        degrees_from_cloud(cloud, KernelConfig(epsilon=0.01, truncation_tau=1e-8))
        kernel_matvec(cloud, KernelConfig(epsilon=0.01, truncation_tau=1e-8), np.ones(300))
        (record,) = caplog.records
        assert record.name == "graph_calculus.graph_core"
        found = re.fullmatch(
            r"kernel pass: N=300, tile pairs skipped=(\d+) unmasked=(\d+) masked=(\d+), "
            r"dropped mass of skipped pairs < tau x (\d+) entries = (\S+), "
            r"trimmed columns kept=(\d+) dropped=(\d+) in (\d+) gathered chunks",
            record.getMessage(),
        )
        skipped, unmasked, masked, entries = map(int, found.groups()[:4])
        kept, trimmed, chunks = map(int, found.groups()[5:])
        assert min(skipped, unmasked, masked) > 0
        assert skipped + unmasked + masked == 19 * 20 // 2
        # each skipped pair is two full 16 x 16 off-diagonal blocks of W, or
        # two 16 x 12 blocks with the ragged last tile
        assert 2 * 16 * 12 * skipped <= entries <= 2 * 16 * 16 * skipped
        assert float(found.group(5)) == pytest.approx(1e-8 * entries, rel=1e-2)
        # trimmed pairs are masked ones off the diagonal, each with a full
        # column tile of 16; a row's kept columns fill chunks of up to 16
        assert min(kept, trimmed) > 0
        assert (kept + trimmed) % 16 == 0
        assert kept + trimmed <= 16 * masked
        assert -(-kept // 16) <= chunks <= kept

    @pytest.mark.parametrize("case", ["circle", "sphere"])
    @pytest.mark.parametrize("tau", [1e-8, 1e-4])
    def test_trimmed_columns_are_gathered(self, monkeypatch, case, tau):
        # Masked tile pairs keep only the columns within reach of the row
        # tile's box, and gather them across column tiles into chunks.
        pts = sample(case, 300, 4).points
        monkeypatch.setattr(graph_core, "_TILE", 16)
        cloud, kernel = PointCloud(points=pts), KernelConfig(epsilon=0.01, truncation_tau=tau)
        order = graph_core._pass_plan(cloud, kernel).order
        ref = pairwise_weights(pts[order], 0.01)
        covered = np.zeros((300, 300), dtype=bool)  # in tile order
        spans = []
        for rows, cols, _ in graph_core._kernel_blocks(cloud, kernel):
            cols = np.arange(300)[cols]
            covered[rows, cols] = True
            if rows.stop <= cols[0]:
                spans.append(np.unique(cols // 16).size)
        assert max(spans) >= 2
        trimmed = 0
        for i0 in range(0, 300, 16):
            rows = slice(i0, i0 + 16)
            for j0 in range(i0 + 16, 300, 16):
                seen = covered[rows, j0 : j0 + 16].any(axis=0)
                assert (covered[rows, j0 : j0 + 16] == seen).all()  # whole columns
                if seen.any():
                    # the pair was computed or trimmed: each dropped column
                    # weighs below tau against every row of the tile
                    trimmed += int((~seen).sum())
                    assert (ref[rows, j0 : j0 + 16][:, ~seen] < tau).all()
        assert trimmed > 0
        # so is every entry of a skipped pair
        assert (ref[np.triu(~covered, 1)] < tau).all()
        expected, band = truncated_pairwise_weights(pts, 0.01, tau)
        assert not band.any()
        g = np.random.default_rng(22).uniform(0.5, 1.5, 300)
        np.testing.assert_allclose(build_weights(cloud, kernel), expected, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(kernel_matvec(cloud, kernel, g), expected @ g, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("case", ["circle", "sphere"])
    def test_trimmed_weights_are_bit_equal_to_dense(self, case):
        # The stored W at tau > 0 is its tau = 0 tiles with the weights below
        # tau zeroed. At the default tile the matrix-free pass gathers chunks
        # of ragged width and has a ragged last column tile
        # (1333 = 5 x 224 + 213), which BLAS rounds with narrower kernels
        # than a full tile; W g must still agree with the stored product.
        cloud = sample(case, 1333, 3)
        kernel = KernelConfig(epsilon=0.02, truncation_tau=1e-8)
        dense = build_weights(cloud, KernelConfig(epsilon=0.02))
        trunc = build_weights(cloud, kernel)
        kept = dense >= 1e-8
        assert np.array_equal(trunc[kept], dense[kept])
        assert not trunc[~kept].any()
        g = np.random.default_rng(23).uniform(0.5, 1.5, 1333)
        np.testing.assert_allclose(kernel_matvec(cloud, kernel, g), trunc @ g, rtol=1e-13, atol=0.0)

    def test_plan_is_built_once_per_cloud_and_kernel(self, monkeypatch):
        # The degree pass and the W g pass of a cell share one plan: one
        # order, and one column trim per tile row; a changed tile side or
        # tau plans anew.
        calls, trims = [], []
        real, real_near = graph_core._tile_order, graph_core._near_columns
        monkeypatch.setattr(graph_core, "_tile_order", lambda pts: calls.append(1) or real(pts))
        monkeypatch.setattr(graph_core, "_near_columns", lambda *a: trims.append(1) or real_near(*a))
        lemma_check("sphere", "coord_z", 2000, 0.01, tau=1e-8)
        assert (len(calls), len(trims)) == (1, 9)  # 2000 = 8 x 224 + 208
        calls.clear()
        cloud, kernel = sample("sphere", 500, 2), KernelConfig(epsilon=0.01, truncation_tau=1e-8)
        d = degrees_from_cloud(cloud, kernel)
        laplacian_from_cloud(cloud, kernel, np.ones(500), d)
        assert len(calls) == 1
        monkeypatch.setattr(graph_core, "_TILE", 64)
        np.testing.assert_allclose(degrees_from_cloud(cloud, kernel), d, rtol=1e-13, atol=0.0)
        assert len(calls) == 2
        degrees_from_cloud(cloud, KernelConfig(epsilon=0.01, truncation_tau=1e-4))
        assert len(calls) == 3


# The three kernel passes, each as f(cloud, kernel).
KERNEL_PASSES = {
    "build_weights": build_weights,
    "degrees_from_cloud": degrees_from_cloud,
    "kernel_matvec": lambda cloud, kernel: kernel_matvec(cloud, kernel, np.ones(cloud.n_points)),
}


class TestPassMemory:
    @pytest.mark.parametrize("manifold", ["circle", "sphere"])
    @pytest.mark.parametrize("name", ["degrees_from_cloud", "kernel_matvec"])
    def test_peak_is_a_few_tiles_plus_vectors(self, manifold, name):
        # A pass holds O(1) tiles and O(1) length-N vectors, whatever N and
        # the ambient dimension; a block size that grew with N would not.
        n = 4000
        cloud, kernel = sample(manifold, n, 0), KernelConfig(epsilon=0.05, truncation_tau=1e-8)
        tracemalloc.start()
        try:
            KERNEL_PASSES[name](cloud, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (4 * graph_core._TILE**2 + 8 * n)


# Times a degree pass plus a W g pass on each manifold, after one warm-up pass
# and a pause: idle BLAS workers spin for about 0.1 s after start-up before
# they sleep, and a cold pass would be billed for that spin.
_THREAD_PROBE = textwrap.dedent(
    """
    import json, time
    import numpy as np
    from graph_calculus import KernelConfig, PointCloud, degrees_from_cloud, kernel_matvec, sample

    n, kernel = 4000, KernelConfig(epsilon=0.05, truncation_tau=1e-8)
    degrees_from_cloud(sample("circle", n, 0), kernel)
    time.sleep(0.5)
    legs = [(manifold, sample(manifold, n, 1), kernel) for manifold in ("circle", "sphere", "torus")]
    legs += [(f"{manifold}, tau = 0", cloud, KernelConfig(epsilon=0.05)) for manifold, cloud, _ in legs[1:]]
    # a 12-dimensional cloud: a tile product threads only from about 18 (see _TILE)
    normal = PointCloud(points=np.random.default_rng(2).standard_normal((n, 12)))
    legs.append(("12-d normal, tau = 0", normal, KernelConfig(epsilon=1.0)))
    ratios = {}
    for name, cloud, pass_kernel in legs:
        process, thread = time.process_time(), time.thread_time()
        degrees_from_cloud(cloud, pass_kernel)
        kernel_matvec(cloud, pass_kernel, np.linspace(-1.0, 1.0, n))
        ratios[name] = (time.process_time() - process) / (time.thread_time() - thread)
    print(json.dumps(ratios))
    """
)


class TestPassThreads:
    def test_tile_products_stay_on_the_calling_thread(self):
        # With BLAS allowed 2 threads, a pass must still run on the thread
        # that calls it: the tiles are too small for BLAS to thread, so the
        # cell pool is the only source of threads. Both clocks count CPU
        # time, so a busy host cannot fail this; a tile large enough for
        # BLAS to thread reads about 2.
        import graph_calculus

        src = str(Path(graph_calculus.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"}
        done = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, text=True, check=True
        )
        ratios = json.loads(done.stdout)
        assert set(ratios) == {
            "circle", "sphere", "torus", "sphere, tau = 0", "torus, tau = 0", "12-d normal, tau = 0"
        }
        assert all(r <= 1.25 for r in ratios.values()), ratios


# The clouds whose kernel outputs are pinned: a ragged 52-point last tile
# (500 = 2 x 224 + 52); masked tiles and gathered chunks on the sphere;
# skipped, unmasked and masked tile pairs and dropped columns on the circle;
# and a 12-dimensional cloud, whose tiles have 14 columns of aug.
DIGEST_CLOUDS = {
    "circle N=500, tau 0": (lambda: sample("circle", 500, 1), KernelConfig(epsilon=0.01)),
    "sphere N=2000, eps 0.05, tau 1e-8": (
        lambda: sample("sphere", 2000, 1), KernelConfig(epsilon=0.05, truncation_tau=1e-8)
    ),
    "circle N=2000, eps 0.05, tau 1e-8": (
        lambda: sample("circle", 2000, 1), KernelConfig(epsilon=0.05, truncation_tau=1e-8)
    ),
    "12-d normal N=600, tau 0": (lambda: random_cloud(600, 12, 2), KernelConfig(epsilon=1.0)),
    # its trim drops 28,695 columns over 260 trimmed pairs; past DENSE_LIMIT,
    # so build_weights is left out
    "sphere N=8000, eps 0.01, tau 1e-8": (
        lambda: sample("sphere", 8000, 1), KernelConfig(epsilon=0.01, truncation_tau=1e-8)
    ),
}


def kernel_digests(cloud, kernel):
    """sha256 of the float64 bytes of each kernel pass on the cloud."""
    g = np.linspace(-1.0, 1.0, cloud.n_points)
    outputs = {
        "degrees_from_cloud": degrees_from_cloud(cloud, kernel),
        "kernel_matvec": kernel_matvec(cloud, kernel, g),
    }
    if cloud.n_points <= graph_core.DENSE_LIMIT:
        outputs["build_weights"] = build_weights(cloud, kernel)
    return {name: hashlib.sha256(out.tobytes()).hexdigest() for name, out in outputs.items()}


class TestKernelDigests:
    # A new operand layout or call of the same tile products must not move
    # a kernel output by one bit (numpy 2.4, OpenBLAS 0.3.31 on x86-64;
    # another BLAS or exp may round the last bits apart).
    PINNED = {
        "circle N=500, tau 0": {
            "degrees_from_cloud": "b68fb7c6cb3748be3abad42ad9d796a5227b7b0a4814e7c38c99a3d17c977852",
            "kernel_matvec": "cf0bcec09411353e12a89afdee7c88ea3ce600867327d4712d0d19ec1b686a01",
            "build_weights": "25ea3fee53ecbb4f4e7872d8c4ad1ed898b30a046d8f7fd31660adc1582713b8",
        },
        "sphere N=2000, eps 0.05, tau 1e-8": {
            "degrees_from_cloud": "707216da792b554bb681d0a09b949506628749ab4ff2fadd81a6fd190f3b8a06",
            "kernel_matvec": "530c1e7ef7ebc092e936a49cae6240ba7b20366ce289fa1a582717bf9eb5e29f",
            "build_weights": "6a202cc5329b874ec1afae0afaa75cc51fb13b411177372de93dc958e5db32b5",
        },
        "circle N=2000, eps 0.05, tau 1e-8": {
            "degrees_from_cloud": "741d651a3f6e5f21f637323c6d98b53eb8adea483b8296b58e83dc61a93b9291",
            "kernel_matvec": "7d7d5bcb2802dad84b19e85b3ba5886b7d4a7406e224b223886606069891c840",
            "build_weights": "d7c3bf38762278ce861ffa0ddb7f15e8537c7d1b01a383372c66cfceae17a042",
        },
        "12-d normal N=600, tau 0": {
            "degrees_from_cloud": "c6a59de0a46d2bfa58f685e2737c24a7bee781e85fd0d4533a6684ed34890c57",
            "kernel_matvec": "163906e94e2bcb4b3697166aac0a60af1dd4f3152afcaa551200e048eca3bbc7",
            "build_weights": "c9a1ddefa025da9b2857651e0b7df909a3a3d806d3221298972d6baf35b4bb45",
        },
        "sphere N=8000, eps 0.01, tau 1e-8": {
            "degrees_from_cloud": "d39e53f528a0c44fb93046aaf06ff9786579ee404624aeecaad3b930043c4c83",
            "kernel_matvec": "4026c97175793b0799347c2c666e63b86b93f3b2ce9e10d011bcb29bc747c020",
        },
    }

    @pytest.mark.parametrize("case", list(DIGEST_CLOUDS))
    def test_kernel_outputs_are_pinned(self, case):
        make, kernel = DIGEST_CLOUDS[case]
        assert kernel_digests(make(), kernel) == self.PINNED[case]


# The clouds whose pass plans are pinned, all at tau 1e-8: the shapes of the
# sphere_sparse_sweep and degree_ensemble cells, a torus in R^4 and a
# 12-dimensional cloud.
PLAN_CLOUDS = {
    "sphere N=8000, eps 0.01": (lambda: sample("sphere", 8000, 1), 0.01),
    "sphere N=8000, eps 0.02": (lambda: sample("sphere", 8000, 1), 0.02),
    "sphere N=20000, eps 0.05": (lambda: sample("sphere", 20000, 1), 0.05),
    "circle N=20000, eps 0.05": (lambda: sample("circle", 20000, 1), 0.05),
    "torus N=4000, eps 0.05": (lambda: sample("torus", 4000, 1), 0.05),
    "12-d normal N=2000, eps 1": (lambda: random_cloud(2000, 12, 2), 1.0),
}


def plan_digest(cloud, kernel):
    """sha256 of a pass plan: its order, then per tile row the column starts,
    masked flags, trimmed column tiles and kept-column bits."""
    plan = graph_core._pass_plan(cloud, kernel)
    digest = hashlib.sha256(plan.order.astype(np.int64).tobytes())
    for _, cols, masks, trimmed, bits in plan.layout:
        digest.update(np.array([c.start for c in cols], dtype=np.int64).tobytes())
        digest.update(np.array(masks, dtype=bool).tobytes())
        digest.update(trimmed.astype(np.int64).tobytes())
        digest.update(np.ascontiguousarray(bits).tobytes())
    return digest.hexdigest()


class TestPlanDigests:
    # A faster way to build a plan must build the same one: the same order,
    # tile classes and kept columns (numpy 2.4 on x86-64).
    PINNED = {
        "sphere N=8000, eps 0.01": "26be21b0d30ce49b18fb134f8f0979618e485c2ed0a4db8e5a17261deffa542a",
        "sphere N=8000, eps 0.02": "ccaadd18a3487578393c9ad0583e096a6efef51658294bc0a65254ca8bdc630b",
        "sphere N=20000, eps 0.05": "fd63b668aa5ba1c81b97b8c55d4874060ff8b95f380196a5f45b8d8809e448df",
        "circle N=20000, eps 0.05": "533da4a86d3f0e2084e157a5c6da9728ba56d71a05c8776e2c82904ca98b3f9c",
        "torus N=4000, eps 0.05": "3beb082831a940212c0d472930b6ac449f25657b63b406feae2a8b3ec49dcaf1",
        "12-d normal N=2000, eps 1": "414f77c387467d3eb9040732b516a8b434b6babdfd7154e46ad1a3144baf0dda",
    }

    @pytest.mark.parametrize("case", list(PLAN_CLOUDS))
    def test_plans_are_pinned(self, case):
        make, eps = PLAN_CLOUDS[case]
        assert plan_digest(make(), KernelConfig(epsilon=eps, truncation_tau=1e-8)) == self.PINNED[case]


class TestLaplacianFromCloud:
    @pytest.mark.parametrize("tau", [0.0, 1e-4])
    def test_matches_stored_reference_across_blocks(self, split_blocks, tau):
        cloud = random_cloud(230, 3, 16)
        split_blocks(230, 60)  # three full row blocks and a ragged fourth
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
            (np.ones(5), [1.0, np.inf, 1.0, 1.0, 1.0], "degrees must be finite"),
            (np.ones(5), [1.0, np.nan, 1.0, 1.0, 1.0], "degrees must be finite"),
        ],
    )
    def test_rejects_bad_input(self, f, d, match):
        with pytest.raises(ValueError, match=match):
            laplacian_from_cloud(random_cloud(5, 2, 0), KernelConfig(epsilon=1.0), f, d)
