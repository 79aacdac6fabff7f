import dataclasses
import hashlib
import importlib
import json
import math
import os
import pathlib
import pkgutil
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

import graph_calculus
import graph_calculus.convergence as conv
from graph_calculus import (
    ExperimentSpec,
    KernelConfig,
    build_weights,
    degree_check,
    degrees,
    derive_cell_seed,
    eval_pair,
    fit_rate_xy,
    grid_sample,
    laplacian_apply,
    lemma_check,
    run_invariant_suite,
    sample,
    sweep,
)
from graph_calculus import cli
from graph_calculus.convergence import classify_regime


@pytest.fixture(scope="module")
def oracle():
    with open(pathlib.Path(__file__).parent / "fixtures" / "oracle_values.json") as fh:
        return json.load(fh)


def test_oracle_fixture_is_what_the_tool_writes(tmp_path):
    # the committed fixture must be tools/quadrature_oracle.py's output, byte for byte
    root = pathlib.Path(__file__).parents[1]
    out = tmp_path / "oracle_values.json"
    cmd = [sys.executable, str(root / "tools" / "quadrature_oracle.py"), "--write", str(out)]
    subprocess.run(cmd, capture_output=True, check=True, timeout=60)
    assert out.read_bytes() == (root / "tests" / "fixtures" / "oracle_values.json").read_bytes()


@pytest.fixture
def recording_pool(monkeypatch):
    """Run the cells of a sweep serially here; yields the helper counts asked for."""
    helpers = []

    def serial(spec, cells, n_helpers):
        helpers.append(n_helpers)
        return [conv._run_cell(spec, *c) for c in cells]

    monkeypatch.setattr(conv, "_run_cells", serial)
    return helpers


def strip_wall(row):
    return dataclasses.replace(row, wall_ms=0.0)


# sha256 of (estimate, reference, degrees) of lemma_check cells, keyed by
# (manifold, function, N, epsilon, seed, tau, pin_anchor): tau alone selects
# the exact (tau 0) or truncated pass (numpy 2.4, OpenBLAS 0.3.31 on x86-64).
LEMMA_CHECK_DIGESTS = {
    ("circle", "sin_theta", 300, 0.05, 3, 0.0, False): (
        "0e994d5ae62e695833da1c643e8b611d9e33c5fe1907e19526082efaf85659d9",
        "41045ed4dd3eb5b8f0d8ce8380a681f78d3f84673cbbaf7b565a9b68d4d7943c",
        "c05ccc01a3cc052594354ccb3ddbf30550c51a0767831fcc1b603d013c227f21",
    ),
    ("circle", "sin_theta", 300, 0.05, 3, 1e-08, False): (
        "1c9a6dff54d5cadd6e278acb62f8f44c1391f79e9af506cc57347bb0055786a1",
        "41045ed4dd3eb5b8f0d8ce8380a681f78d3f84673cbbaf7b565a9b68d4d7943c",
        "c53c2de84cc41ed3ee0d435adf592ac6a57c2f903d383abd1ccd86ad015137ac",
    ),
    ("sphere", "coord_z", 400, 0.05, 4, 0.0, False): (
        "e67358fbae3b26d6753f06261bebda8431c2cd5dab1a5013670bd5d9201ccc05",
        "7ce51b62fbb201ddb30ee00ef519b18fbc24cf2845745f95866b3d32120f3214",
        "b52e92647171f385ec727fc05f038fa3771fb2df96e7284bdcef1d662e37ec67",
    ),
    ("sphere", "coord_z", 400, 0.05, 4, 1e-08, False): (
        "6d6207e35978b321c0fdf0e191aefbcfb25646d28980a248bd09ac8530f86bda",
        "7ce51b62fbb201ddb30ee00ef519b18fbc24cf2845745f95866b3d32120f3214",
        "d1f65e22375d02c90b87cc5d4b97b72fd50eb45ddc7098ddcc3988de6b08d755",
    ),
    ("circle", "sin_theta", 300, 0.05, 5, 0.0, True): (
        "1de272436fa6c1917de3e600ce3bb749081525e7f30ff811f2e183cdcbd7e390",
        "ebcfd911b944e53e3924c342b9832ad1cd871997a83cf5c82ce63876a4f79761",
        "759d6dd26918c882f943dea22142ca1274280423a3c9c84177530a7686fc81d3",
    ),
}


class TestExperimentSpec:
    def minimal(self, **overrides):
        payload = {
            "manifold": "circle",
            "function": "sin_theta",
            "N_list": [100],
            "epsilon_list": [0.05],
            "trials": 1,
            "master_seed": 0,
        }
        payload.update(overrides)
        return payload

    def test_from_dict_defaults(self):
        spec = ExperimentSpec.from_dict(self.minimal())
        assert spec.mode == "dense" and spec.tau == 0.0
        assert spec.sampling == "random"

    def test_sparse_default_tau(self):
        spec = ExperimentSpec.from_dict(self.minimal(mode="sparse"))
        assert spec.tau == conv.DEFAULT_TAU

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown spec fields: bogus"):
            ExperimentSpec.from_dict(self.minimal(bogus=1))

    @pytest.mark.parametrize(
        "key", ["manifold", "function", "N_list", "epsilon_list", "trials", "master_seed"]
    )
    def test_missing_field_rejected(self, key):
        payload = self.minimal()
        del payload[key]
        with pytest.raises(ValueError, match=f"missing spec fields: {key}$"):
            ExperimentSpec.from_dict(payload)

    def test_unknown_manifold_lists_ids(self):
        with pytest.raises(ValueError, match="circle, sphere, torus"):
            ExperimentSpec.from_dict(self.minimal(manifold="moebius"))

    def test_unknown_function_lists_ids(self):
        with pytest.raises(ValueError, match="sin_theta"):
            ExperimentSpec.from_dict(self.minimal(function="nope"))

    def test_dense_rejects_tau(self):
        with pytest.raises(ValueError, match="^mode 'dense' disagrees with tau 1e-08: .*tau must be 0"):
            ExperimentSpec.from_dict(self.minimal(mode="dense", tau=1e-8))
        # without a mode, tau alone picks the pass, and the spec echoes the mode it picked
        spec = ExperimentSpec.from_dict(self.minimal(tau=1e-8))
        assert spec.mode == "sparse" and spec.to_dict()["mode"] == "sparse"
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_dense_accepts_large_n(self):
        # a cell never stores W, so the stored-W size limit does not apply
        spec = ExperimentSpec.from_dict(self.minimal(N_list=[8192]))
        assert (spec.mode, spec.n_list) == ("dense", (8192,))

    def test_sparse_needs_positive_tau(self):
        with pytest.raises(ValueError, match="0 < tau < 1"):
            ExperimentSpec.from_dict(self.minimal(mode="sparse", tau=0.0))

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("N_list", [], "non-empty"),
            ("N_list", [1], ">= 2"),
            ("epsilon_list", [], "non-empty"),
            ("epsilon_list", [-0.1], "positive"),
            ("trials", 0, "trials"),
            ("master_seed", -3, "master_seed"),
            ("mode", "banded", "mode"),
            ("sampling", "sobol", "sampling"),
            ("master_seed", 2**64, "nonnegative integer"),
            ("master_seed", True, "^master_seed must be a nonnegative integer, got True$"),
            ("trials", 2.9, "^trials must be an integer >= 1, got 2.9$"),
            ("N_list", [500.0], "^N_list entry must be an integer >= 2, got 500.0$"),
            ("epsilon_list", [True], "epsilon_list entry must be a real number, got True$"),
            pytest.param(
                "epsilon_list", [10**400], "^epsilon_list entry is too large for a float$", id="eps-10**400"
            ),
            pytest.param("tau", 10**400, "^tau is too large for a float$", id="tau-10**400"),
            ("N_list", "500", "^N_list has the wrong type: '500'$"),
            ("epsilon_list", "0.05", "^epsilon_list has the wrong type: '0.05'$"),
            ("N_list", {"40": 1}, r"^N_list has the wrong type: \{'40': 1\}$"),
            ("epsilon_list", {"0.1": 1}, r"^epsilon_list has the wrong type: \{'0.1': 1\}$"),
            ("N_list", [40, 40, 80], r"^N_list repeats a value: \[40, 40, 80\]$"),
            ("epsilon_list", [0.1, 0.1], r"^epsilon_list repeats a value: \[0.1, 0.1\]$"),
            ("mode", None, "mode"),
        ],
    )
    def test_field_validation(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            ExperimentSpec.from_dict(self.minimal(**{field: value}))

    def test_readme_example_is_a_valid_spec(self, monkeypatch):
        # the example under README's "Experiment spec (JSON)" heading, run with every cell stubbed out
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Experiment spec (JSON)\n", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        spec = ExperimentSpec.from_dict(json.loads(example))
        cells = []
        monkeypatch.setattr(conv, "_run_cells", lambda spec, todo, helpers: cells.extend(todo) or [])
        sweep(spec)
        assert (len(spec.n_list), len(spec.epsilon_list), spec.trials, len(cells)) == (3, 2, 10, 60)

    @pytest.mark.parametrize("manifold, function", [("circle", "sin_theta"), ("sphere", "coord_z"), ("torus", "sin_theta")])
    def test_grid_n_list_holds_the_grid_sizes(self, manifold, function):
        # a grid N names a grid; the torus rounds 10, 20 and 40 up to 16, 25 and 49 points
        n_list = [10, 20, 40]
        payload = self.minimal(manifold=manifold, function=function, N_list=n_list, sampling="grid")
        spec = ExperimentSpec.from_dict(payload)
        assert spec.n_list == tuple(grid_sample(manifold, n).n_points for n in n_list)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_dict({**payload, "sampling": "random"}).n_list == (10, 20, 40)

    def test_round_trip(self, tmp_path):
        payload = self.minimal(mode="sparse", tau=1e-7, sampling="grid")
        spec = ExperimentSpec.from_dict(payload)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert ExperimentSpec.from_json(path) == spec

    def test_to_dict_keys_in_field_order(self):
        payload = ExperimentSpec.from_dict(self.minimal(N_list=[100, 200])).to_dict()
        assert list(payload) == [
            "manifold",
            "function",
            "N_list",
            "epsilon_list",
            "trials",
            "master_seed",
            "mode",
            "tau",
            "sampling",
        ]
        # lists, not the spec's tuples: a tuple never equals a list
        assert (payload["N_list"], payload["epsilon_list"]) == ([100, 200], [0.05])

    def test_from_json_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            ExperimentSpec.from_json(path)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(epsilon_list=[0.05, 0.0]), "epsilon must be a positive real, got 0.0"),
            (dict(epsilon_list=[math.inf]), "epsilon must be a positive real, got inf"),
            (dict(epsilon_list=[math.nan]), "epsilon must be a positive real, got nan"),
            (dict(mode="sparse", tau=1.0), r"truncation_tau must lie in \[0, 1\), got 1.0"),
            (dict(mode="sparse", tau=2.5), r"truncation_tau must lie in \[0, 1\), got 2.5"),
        ],
        ids=["eps-0", "eps-inf", "eps-nan", "tau-1", "tau-2.5"],
    )
    def test_kernel_rules_come_from_kernel_config(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            ExperimentSpec.from_dict(self.minimal(**overrides))


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        s = derive_cell_seed(7, 100, 0.05, 0)
        assert s == derive_cell_seed(7, 100, 0.05, 0)
        assert s != derive_cell_seed(7, 100, 0.05, 1)
        assert s != derive_cell_seed(7, 200, 0.05, 0)
        assert s != derive_cell_seed(7, 100, 0.02, 0)
        assert s != derive_cell_seed(8, 100, 0.05, 0)

    def test_value_based_not_index_based(self):
        # the same (N, eps, trial) cell gets the same seed wherever it sits in the lists
        assert derive_cell_seed(1, 500, 0.01, 2) == derive_cell_seed(1, 500, 0.01, 2)


class TestRateFit:
    def test_exact_square_root_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        fit = fit_rate_xy(x, np.sqrt(x))
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_inverse_law(self):
        x = np.array([1.0, 3.0, 9.0, 27.0])
        fit = fit_rate_xy(x, 7.0 / x)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-12)

    def test_needs_three_distinct_points(self):
        with pytest.raises(ValueError, match="3 distinct"):
            fit_rate_xy([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="3 distinct"):
            fit_rate_xy([1.0, 1.0, 2.0], [1.0, 1.0, 2.0])
        # nor are three x values with two responses three points
        with pytest.raises(ValueError, match=r"^x and y must be equal-length vectors, got \(3,\) and \(2,\)$"):
            fit_rate_xy([1.0, 2.0, 4.0], [1.0, 2.0])

    def test_rejects_nonpositive_responses(self):
        with pytest.raises(ValueError, match="positive"):
            fit_rate_xy([1.0, 2.0, 4.0], [1.0, -2.0, 4.0])
        with pytest.raises(ValueError, match="^swept-axis values must be positive$"):
            fit_rate_xy([0.0, 2.0, 4.0], [1.0, 2.0, 4.0])

    @staticmethod
    def assert_same_bits(ours, ref):
        if math.isnan(ref):
            assert math.isnan(ours)
        else:
            assert np.float64(ours).tobytes() == np.float64(ref).tobytes()

    def test_bit_identical_to_linregress(self):
        from scipy.stats import linregress

        rng = np.random.default_rng(20240611)
        for case in range(300):
            k = int(rng.integers(3, 13))
            if case % 3 == 0:  # repeated swept values, as in a multi-trial sweep
                x = rng.choice([10.0, 20.0, 40.0, 80.0], size=k)
                x[:3] = [10.0, 20.0, 40.0]
            else:
                x = np.exp(rng.uniform(-8.0, 10.0, size=k))
            y = np.exp(rng.normal(0.0, 3.0, size=k) + rng.normal() * np.log(x))
            fit = fit_rate_xy(x, y)
            ref = linregress(np.log(x), np.log(y))
            self.assert_same_bits(fit.slope, ref.slope)
            self.assert_same_bits(fit.intercept, ref.intercept)
            self.assert_same_bits(fit.r_squared, ref.rvalue**2)

    def test_constant_response_matches_linregress(self):
        from scipy.stats import linregress

        x = np.array([100.0, 200.0, 400.0, 800.0])
        for y in (np.ones(4), np.full(4, 0.3)):
            fit = fit_rate_xy(x, y)
            ref = linregress(np.log(x), np.log(y))
            self.assert_same_bits(fit.slope, ref.slope)
            self.assert_same_bits(fit.intercept, ref.intercept)
            self.assert_same_bits(fit.r_squared, ref.rvalue**2)
        assert math.isnan(fit_rate_xy(x, np.ones(4)).r_squared)

    def test_grouped_rate_fits_groups_orders_and_skips(self):
        # (group, x, y) rows out of order; group "few" holds x=10 twice
        rows = [
            ("few", 100, 1.0), (0.02, 1000, 0.0), (0.01, 1000, 1e-3), ("few", 10, 2.0), (0.02, 10, 0.0),
            (0.01, 10, 1e-1), (0.02, 100, 0.0), (0.01, 100, 1e-2), ("few", 10, 3.0),
        ]
        groups, xs, ys = (list(column) for column in zip(*rows))
        out = conv.grouped_rate_fits(groups, xs, ys)
        # numbers in value order, then text; each group's rows in x order, ties as given
        assert [(value, positions) for value, positions, _ in out] == [
            (0.01, [5, 7, 2]),
            (0.02, [4, 6, 1]),
            ("few", [3, 8, 0]),
        ]
        (_, _, fit), (_, _, zero), (_, _, few) = out
        assert fit == fit_rate_xy([10, 100, 1000], [1e-1, 1e-2, 1e-3])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        # a zero response or fewer than 3 distinct x: the ValueError in place of a fit
        assert isinstance(zero, ValueError) and "positive" in str(zero)
        assert isinstance(few, ValueError) and "3 distinct" in str(few)
        # no traceback, so no frame is kept alive in a reference cycle
        assert zero.__traceback__ is None and few.__traceback__ is None


class TestLemmaCheck:
    def test_grid_example_bound_and_oracle_agreement(self, oracle):
        res = lemma_check("circle", "sin_theta", 2000, 1e-3, sampling="grid")
        fixture = oracle["lemma_example_grid_2000_1e-3"]
        # bias stays below the committed C sqrt(eps) envelope
        assert res.err_rel_median <= fixture["bias_constant_C"] * math.sqrt(1e-3)
        # and the pipeline agrees with the symmetry-reduced oracle route
        assert res.err_rel_median == pytest.approx(fixture["err_rel_median"], rel=1e-6)
        assert res.err_abs_max == pytest.approx(fixture["err_abs_max"], rel=1e-6)

    def test_grid_constant_function_is_exact_zero(self):
        res = lemma_check("circle", "const_one", 2000, 1e-3, sampling="grid")
        # degrees agree to last-ulp only, so the estimator is zero to ~1e-9
        assert np.abs(res.estimate).max() <= 1e-9
        assert res.err_abs_max <= 1e-9
        assert math.isfinite(res.err_rel_median)

    def test_pin_anchor_places_anchor(self):
        res = lemma_check("circle", "sin_theta", 50, 0.05, seed=5, pin_anchor=True)
        assert res.n == 50
        got = lemma_check("circle", "sin_theta", 50, 0.05, seed=5, pin_anchor=True)
        assert got.estimate[0] == res.estimate[0]

    @pytest.mark.parametrize(
        "cell", list(LEMMA_CHECK_DIGESTS), ids=lambda c: f"{c[0]}-tau{c[5]:g}{'-pinned' * c[6]}"
    )
    def test_tau_alone_selects_the_pass(self, cell):
        manifold, fn_id, n, epsilon, seed, tau, pin_anchor = cell
        res = lemma_check(manifold, fn_id, n, epsilon, seed=seed, tau=tau, pin_anchor=pin_anchor)
        digests = tuple(
            hashlib.sha256(a.tobytes()).hexdigest() for a in (res.estimate, res.reference, res.degrees)
        )
        assert digests == LEMMA_CHECK_DIGESTS[cell]

    def test_validation(self):
        with pytest.raises(ValueError, match="truncation_tau"):
            lemma_check("circle", "sin_theta", 50, 0.05, tau=1.0)
        # N above the stored-W limit runs in dense mode and matches sparse
        dense = lemma_check("circle", "sin_theta", 5000, 0.05, seed=9)
        sparse = lemma_check("circle", "sin_theta", 5000, 0.05, seed=9, tau=1e-12)
        np.testing.assert_allclose(sparse.estimate, dense.estimate, atol=1e-8)

    @pytest.mark.parametrize("epsilon", [0.0, -0.05])
    def test_bad_epsilon_fails_before_sampling(self, monkeypatch, epsilon):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled a cloud for a bad epsilon")

        monkeypatch.setattr(conv, "sample", refuse)
        monkeypatch.setattr(conv, "grid_sample", refuse)
        with pytest.raises(ValueError, match="epsilon must be a positive real"):
            lemma_check("circle", "sin_theta", 50, epsilon)
        with pytest.raises(ValueError, match="epsilon must be a positive real"):
            degree_check("circle", 50, epsilon)

    @pytest.mark.parametrize("sampling", ["random", "grid"])
    @pytest.mark.parametrize("seed", [-1, 2.5, True, 2**64])
    def test_rejects_a_seed_that_is_not_a_64_bit_integer(self, sampling, seed):
        # grid cells draw no random numbers but are checked alike
        bound = " below 2**64" if isinstance(seed, int) and seed == 2**64 else ""
        message = f"^{re.escape(f'seed must be a nonnegative integer{bound}, got {seed!r}')}$"
        with pytest.raises(ValueError, match=message):
            lemma_check("circle", "sin_theta", 10, 0.1, seed=seed, sampling=sampling)
        with pytest.raises(ValueError, match=message):
            degree_check("circle", 10, 0.1, seed=seed, sampling=sampling)

    def test_low_neighbor_warning(self):
        with pytest.warns(UserWarning, match="too few neighbors"):
            res = lemma_check("circle", "sin_theta", 10, 1e-6, seed=0)
        assert res.low_neighbor_warning

    def test_low_neighbor_warning_points_at_caller(self):
        with pytest.warns(UserWarning, match="too few neighbors") as record:
            lemma_check("circle", "sin_theta", 10, 1e-6, seed=0)
            degree_check("circle", 10, 1e-6, seed=0)
        assert [w.filename for w in record] == [__file__, __file__]

    def test_sparse_close_to_dense(self):
        dense = lemma_check("circle", "sin_theta", 400, 0.02, seed=9)
        sparse = lemma_check("circle", "sin_theta", 400, 0.02, seed=9, tau=1e-12)
        np.testing.assert_allclose(sparse.estimate, dense.estimate, atol=1e-8)

    @pytest.mark.parametrize("tau", [0.0, 1e-8], ids=["dense-0.0", "sparse-1e-08"])
    def test_matches_stored_weight_route(self, split_blocks, tau):
        split_blocks(700, 160)  # four full row blocks and a ragged fifth
        res = lemma_check("sphere", "coord_z", 700, 0.05, seed=4, tau=tau)
        cloud = sample("sphere", 700, seed=4)
        w = build_weights(cloud, KernelConfig(epsilon=0.05, truncation_tau=tau))
        d = degrees(w)
        f, _ = eval_pair(conv.get_manifold("sphere"), "coord_z", cloud)
        np.testing.assert_allclose(res.degrees, d, rtol=1e-12)
        expected = (2.0 / 0.05) * laplacian_apply(f, w, d)
        np.testing.assert_allclose(res.estimate, expected, rtol=0.0, atol=1e-9)

    def test_cells_store_no_weight_matrix(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("a vector output stored W")

        # every package module that binds build_weights, so that a module
        # holding its own reference to it is caught too
        modules = [graph_calculus] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(graph_calculus.__path__, "graph_calculus.")
        ]
        patched = {m.__name__ for m in modules if hasattr(m, "build_weights")}
        assert {"graph_calculus", "graph_calculus.graph_core", "graph_calculus.cli"} <= patched
        for module in modules:
            if module.__name__ in patched:
                monkeypatch.setattr(module, "build_weights", refuse)

        lemma_check("sphere", "coord_z", 300, 0.05, seed=1, tau=1e-8)
        lemma_check("circle", "sin_theta", 200, 0.05, seed=1)
        cloud_csv, f_csv = tmp_path / "cloud.csv", tmp_path / "f.csv"
        cloud = sample("sphere", 300, seed=1)
        np.savetxt(cloud_csv, cloud.points, delimiter=",")
        np.savetxt(f_csv, cloud.points[:, 2])
        for tau in ("0", "1e-8"):
            code = cli.main(
                ["laplacian", "--cloud", str(cloud_csv), "--epsilon", "0.05", "--tau", tau,
                 "--function", str(f_csv), "--out", str(tmp_path / "lap.csv")]
            )
            assert code == 0


class TestDegreeCheck:
    def test_grid_circle_oracle_example(self, oracle):
        fixture = oracle["circle_grid_degree_5000_1e-3"]
        res = degree_check("circle", 5000, 1e-3, sampling="grid")
        assert abs(res.stats.ratio_mean - 1.0) <= fixture["committed_delta"]
        assert res.stats.ratio_mean == pytest.approx(fixture["ratio"], rel=1e-9)
        assert res.regime == "bias"

    def test_tiny_epsilon_regime_is_reported_not_hidden(self):
        with pytest.warns(UserWarning, match="too few neighbors"):
            res = degree_check("circle", 100, 1e-9, sampling="grid")
        assert res.regime == "self_loop_floor"
        # degrees collapse to the self weight, so r(u) is just the self-loop share
        assert res.stats.ratio_mean == pytest.approx(res.stats.self_loop_share, rel=1e-9)

    def test_matches_materialized_route(self):
        from graph_calculus import KernelConfig, build_weights, degrees, sample

        cloud = sample("circle", 300, seed=21)
        d = degrees(build_weights(cloud, KernelConfig(epsilon=0.05)))
        m = conv.get_manifold("circle")
        stats = conv._degree_stats(d, m, cloud.points, 0.05)
        res = degree_check("circle", 300, 0.05, seed=21)
        assert res.stats.ratio_mean == pytest.approx(stats.ratio_mean, rel=1e-13)
        assert res.stats.residual_dev == pytest.approx(stats.residual_dev, rel=1e-10)

    def test_curvature_prediction_value(self):
        res = degree_check("sphere", 500, 0.05, seed=2)
        assert res.stats.prediction_mean == pytest.approx(1.0 + 0.05 * 2.0 / 6.0)

    def test_non_finite_degrees_are_refused(self):
        # at eps 1e-310, |ys|^2 overflows: refused before any tile, with no RuntimeWarning
        with pytest.warns(UserWarning, match="too few neighbors"):
            with pytest.raises(ValueError, match=r"^epsilon 1e-310 is too small for this cloud"):
                degree_check("circle", 50, 1e-310)


@pytest.mark.parametrize(
    "check",
    [lambda n: lemma_check("circle", "sin_theta", n, 0.05), lambda n: degree_check("circle", n, 0.05)],
    ids=["lemma_check", "degree_check"],
)
def test_cell_refuses_a_fractional_n(check):
    # the sampler would otherwise draw 50 points and report N = 50
    with pytest.raises(ValueError, match="^N must be an integer >= 2, got 50.7$"):
        check(50.7)


_SPEC = dict(manifold="circle", function="sin_theta", N_list=[30], epsilon_list=[0.05], trials=1, master_seed=0)

# each integer input: (a call with the value, its name in the message, its lowest value)
_INTEGER_INPUTS = {
    "sample-N": (lambda v: sample("circle", v, seed=1), "N", 2),
    "sample-seed": (lambda v: sample("circle", 10, seed=v), "seed", 0),
    "grid_sample-N": (lambda v: grid_sample("circle", v), "N", 2),
    "lemma_check-N": (lambda v: lemma_check("circle", "sin_theta", v, 0.1), "N", 2),
    "lemma_check-seed": (lambda v: lemma_check("circle", "sin_theta", 10, 0.1, seed=v), "seed", 0),
    "degree_check-N": (lambda v: degree_check("circle", v, 0.1), "N", 2),
    "degree_check-seed": (lambda v: degree_check("circle", 10, 0.1, seed=v), "seed", 0),
    "from_dict-N_list": (lambda v: ExperimentSpec.from_dict({**_SPEC, "N_list": [v]}), "N_list entry", 2),
    "from_dict-trials": (lambda v: ExperimentSpec.from_dict({**_SPEC, "trials": v}), "trials", 1),
    "from_dict-master_seed": (lambda v: ExperimentSpec.from_dict({**_SPEC, "master_seed": v}), "master_seed", 0),
    "sweep-parallelism": (lambda v: sweep(ExperimentSpec.from_dict(_SPEC), parallelism=v), "parallelism", 1),
    "run_invariant_suite-n": (lambda v: run_invariant_suite(n=v), "N", 2),
    "run_invariant_suite-n_seeds": (lambda v: run_invariant_suite(n=10, n_seeds=v), "n_seeds", 1),
}


@pytest.mark.parametrize(
    "value",
    [True, np.True_, 2.5, "2", None, "below"],
    ids=["bool", "numpy-bool", "fraction", "string", "none", "below-range"],
)
@pytest.mark.parametrize("entry", list(_INTEGER_INPUTS))
def test_every_integer_input_has_one_rule(entry, value, monkeypatch):
    # int() would read True as 1, 2.5 as 2 and "2" as 2; no cell may run
    monkeypatch.setattr(conv, "_run_cell", None)
    call, name, low = _INTEGER_INPUTS[entry]
    if value == "below":
        value = low - 1
    rule = "a nonnegative integer" if low == 0 else f"an integer >= {low}"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {rule}, got {value!r}')}$"):
        call(value)


class TestClassifyRegime:
    def test_grid_moderate_is_bias(self):
        assert classify_regime(1, 2 * np.pi, 4000, 0.005, "grid") == "bias"

    def test_grid_tiny_eps_is_floor(self):
        assert classify_regime(1, 2 * np.pi, 100, 1e-9, "grid") == "self_loop_floor"

    def test_random_moderate_is_noise(self):
        # fluctuation dominates at these sizes (measured sigma ~ 1)
        assert classify_regime(1, 2 * np.pi, 4000, 0.005, "random") == "sampling_noise"


class TestSweep:
    def base_spec(self, **overrides):
        payload = dict(
            manifold="circle",
            function="sin_theta",
            n_list=(60, 120),
            epsilon_list=(0.05, 0.1),
            trials=2,
            master_seed=5,
            mode="dense",
        )
        payload.update(overrides)
        return ExperimentSpec(**payload)

    def test_cardinality(self):
        spec = self.base_spec(n_list=(30, 60, 90), epsilon_list=(0.05, 0.1), trials=5)
        assert len(sweep(spec).rows) == 30

    def test_row_order_is_spec_order(self):
        rows = sweep(self.base_spec()).rows
        key = [(r.n, r.epsilon, r.trial) for r in rows]
        assert key == [
            (60, 0.05, 0), (60, 0.05, 1), (60, 0.1, 0), (60, 0.1, 1),
            (120, 0.05, 0), (120, 0.05, 1), (120, 0.1, 0), (120, 0.1, 1),
        ]

    def test_degenerate_sweep_reproduces_single_lemma_check(self):
        spec = self.base_spec(n_list=(80,), epsilon_list=(0.05,), trials=1)
        row = sweep(spec).rows[0]
        seed = derive_cell_seed(5, 80, 0.05, 0)
        direct = lemma_check("circle", "sin_theta", 80, 0.05, seed=seed)
        assert row.seed == seed
        assert row.err_abs_median == direct.err_abs_median
        assert row.err_abs_max == direct.err_abs_max
        assert row.err_rel_median == direct.err_rel_median
        assert row.degree_ratio_mean == direct.degree_stats.residual_mean

    def test_permuting_lists_leaves_cell_numbers_bitwise_unchanged(self):
        rows_a = sweep(self.base_spec()).rows
        rows_b = sweep(
            self.base_spec(n_list=(120, 60), epsilon_list=(0.1, 0.05))
        ).rows
        key = lambda r: (r.n, r.epsilon, r.trial)
        assert sorted(map(strip_wall, rows_a), key=key) == sorted(
            map(strip_wall, rows_b), key=key
        )

    def test_parallelism_bitwise_identical(self):
        spec = self.base_spec()
        serial = [strip_wall(r) for r in sweep(spec, parallelism=1).rows]
        threaded = [strip_wall(r) for r in sweep(spec, parallelism=4).rows]
        assert serial == threaded

    def test_more_workers_than_cpus_bitwise_identical(self, monkeypatch, time_limit):
        # 5 workers on any host: this process and 4 helpers, more than cores here
        spec = self.base_spec(n_list=(60, 90, 120))
        serial = [strip_wall(r) for r in sweep(spec).rows]
        monkeypatch.setattr(conv, "_usable_cpus", lambda: 8)
        time_limit(60)
        result = sweep(spec, parallelism=5)
        assert result.pool_width == 5 and not result.failures
        assert [strip_wall(r) for r in result.rows] == serial

    @pytest.mark.parametrize(
        "parallelism, cpus, cells, width",
        [
            (64, 4, 3, 3),
            (64, 4, 10, 4),
            (2, 4, 10, 2),
            (1, 4, 3, 1),
            (8, 1, 3, 1),
            (8, None, 3, 1),
        ],
    )
    def test_pool_width(self, monkeypatch, recording_pool, parallelism, cpus, cells, width):
        # min(K, cells, usable CPUs) workers, read once: this process and
        # width - 1 helpers; a width of 1 runs the same loop with no helper
        lookups = []
        monkeypatch.setattr(conv, "_usable_cpus", lambda: lookups.append(cpus) or cpus)
        spec = self.base_spec(n_list=(30,), epsilon_list=(0.05,), trials=cells)
        result = sweep(spec, parallelism=parallelism)
        assert recording_pool == [width - 1]
        assert result.pool_width == width
        assert len(lookups) == 1
        assert [r.trial for r in result.rows] == list(range(cells))

    @pytest.mark.parametrize("parallelism", [0, -3])
    def test_parallelism_below_one_is_refused(self, monkeypatch, recording_pool, parallelism):
        # refused before any CPU lookup or cell, where it was once clamped to 1
        lookups = []
        monkeypatch.setattr(conv, "_usable_cpus", lambda: lookups.append(4) or 4)
        spec = self.base_spec(n_list=(30,), epsilon_list=(0.05,), trials=3)
        msg = f"^parallelism must be an integer >= 1, got {parallelism}$"
        with pytest.raises(ValueError, match=msg):
            sweep(spec, parallelism=parallelism)
        assert recording_pool == [] and lookups == []

    def test_pool_width_is_clamped_to_cells(self, monkeypatch, recording_pool):
        monkeypatch.setattr(conv, "_usable_cpus", lambda: 4)
        spec = self.base_spec(n_list=(60,), epsilon_list=(0.05,), trials=2)
        rows = sweep(spec, parallelism=16).rows
        assert recording_pool == [1]  # two workers: this process and one helper
        assert [strip_wall(r) for r in rows] == [strip_wall(r) for r in sweep(spec).rows]

    def test_without_fork_the_width_is_1(self, monkeypatch, recording_pool):
        monkeypatch.setattr(conv, "_usable_cpus", lambda: 4)
        monkeypatch.delattr(conv.os, "fork", raising=False)
        spec = self.base_spec(n_list=(30,), epsilon_list=(0.05,), trials=3)
        result = sweep(spec, parallelism=4)
        assert recording_pool == [0]
        assert result.pool_width == 1
        assert [r.trial for r in result.rows] == [0, 1, 2]

    def test_helper_death_is_a_resource_failure(self, monkeypatch, time_limit):
        # The helper dies in the first cell it gets, which is the one
        # recorded as failed; this process runs the rest, whose numbers
        # are unchanged.
        real, me = conv.lemma_check, os.getpid()

        def killed_in_helpers(*args, **kwargs):
            if os.getpid() != me:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        spec = self.base_spec(n_list=(30,), epsilon_list=(0.05,), trials=8)
        serial = {r.trial: strip_wall(r) for r in sweep(spec).rows}
        monkeypatch.setattr(conv, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(conv, "lemma_check", killed_in_helpers)
        time_limit(60)
        result = sweep(spec, parallelism=2)
        assert result.pool_width == 2
        (failure,) = result.failures
        assert (failure.trial, failure.seed, failure.kind) == (0, serial[0].seed, "resource")
        assert failure.message == f"its helper process ended abruptly (exit code {-signal.SIGKILL})"
        assert [strip_wall(r) for r in result.rows] == [serial[t] for t in range(1, 8)]

    def test_failures_recorded_and_cells_continue(self, monkeypatch):
        real = conv.lemma_check

        def flaky(manifold, fn_id, n, epsilon, **kwargs):
            if n == 60:
                raise RuntimeError("synthetic cell blow-up")
            return real(manifold, fn_id, n, epsilon, **kwargs)

        monkeypatch.setattr(conv, "lemma_check", flaky)
        result = sweep(self.base_spec(trials=1))
        assert [(f.n, f.epsilon, f.message) for f in result.failures] == [
            (60, 0.05, "synthetic cell blow-up"),
            (60, 0.1, "synthetic cell blow-up"),
        ]
        assert [(r.n, r.epsilon) for r in result.rows] == [(120, 0.05), (120, 0.1)]

    def test_grid_sampling_rows_identical_across_trials(self):
        spec = self.base_spec(sampling="grid", trials=2, n_list=(64,), epsilon_list=(0.05,))
        rows = sweep(spec).rows
        assert rows[0].err_abs_max == rows[1].err_abs_max


class TestUsableCpus:
    def test_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(conv.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(conv.os, "cpu_count", lambda: 8)
        assert conv._usable_cpus() == 1

    @pytest.mark.parametrize("cpus", [8, None])
    def test_falls_back_to_cpu_count(self, monkeypatch, cpus):
        monkeypatch.delattr(conv.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(conv.os, "cpu_count", lambda: cpus)
        assert conv._usable_cpus() == cpus


class TestSignSanity:
    """The estimator of the second derivative of sin is anticorrelated with sin."""

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "at N=4000, eps=0.005 the estimator is variance dominated (pointwise "
            "sigma ~ eps^(-3/4)/sqrt(N) > 1): measured correlation ~ -0.2; the "
            "-0.9 level needs eps >~ 0.05 at this N"
        ),
    )
    def test_stated_cell(self):
        res = lemma_check("circle", "sin_theta", 4000, 0.005, seed=0)
        f = -res.reference  # reference is -sin(theta)
        corr = float(np.corrcoef(res.estimate, f)[0, 1])
        print(f"\ncorr(estimator, f) at eps=0.005: {corr:.3f} (required <= -0.9)")
        assert corr <= -0.9

    def test_feasible_bandwidth(self):
        res = lemma_check("circle", "sin_theta", 4000, 0.05, seed=0)
        f = -res.reference
        corr = float(np.corrcoef(res.estimate, f)[0, 1])
        assert corr <= -0.9


@pytest.mark.acceptance
class TestSphereMonotoneImprovement:
    def test_mean_error_improves_from_1000_to_8000(self):
        # brute force over the two cells, 20 seeds each
        eps, seeds = 0.01, 20

        def mean_err(n):
            vals = []
            for t in range(seeds):
                seed = derive_cell_seed(77, n, eps, t)
                res = lemma_check("sphere", "coord_z", n, eps, seed=seed, tau=1e-8)
                vals.append(res.err_rel_median)
            return float(np.mean(vals))

        small, large = mean_err(1000), mean_err(8000)
        print(f"\nsphere mean err_rel_median: N=1000 -> {small:.4f}, N=8000 -> {large:.4f}")
        assert large < small
