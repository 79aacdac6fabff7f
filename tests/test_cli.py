import errno
import json
import logging
import os
import signal
import stat
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from graph_calculus import (
    KernelConfig,
    PointCloud,
    build_weights,
    degrees,
    degrees_from_cloud,
    divergence,
    gradient,
    grid_sample,
    laplacian_apply,
    laplacian_from_cloud,
    laplacian_matrix,
)
import graph_calculus.cli as cli
import graph_calculus.convergence as conv
import graph_calculus.graph_core as graph_core
from graph_calculus.cli import main
from graph_calculus.convergence import fit_rate_xy
from graph_calculus.csvio import (
    format_float,
    read_matrix_csv,
    read_results_csv,
    read_vector_csv,
    write_matrix_csv,
    write_text_atomic,
    write_vector_csv,
)

CLOUD_ROWS = "0.0,0.0\n1.0,0.0\n0.0,2.0\n"


@pytest.fixture
def spec_file(tmp_path):
    payload = {
        "manifold": "circle",
        "function": "sin_theta",
        "N_list": [40],
        "epsilon_list": [0.1],
        "trials": 1,
        "master_seed": 3,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return path


def write_spec(tmp_path, name="spec.json", **overrides):
    payload = {
        "manifold": "circle",
        "function": "sin_theta",
        "N_list": [40, 80, 160],
        "epsilon_list": [0.05, 0.1],
        "trials": 2,
        "master_seed": 3,
    }
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestRun:
    def test_minimal_config_single_row(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(spec_file), "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("manifold,function,N,epsilon,seed,mode,")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_cells"] == 1 and summary["n_failed"] == 0
        assert summary["spec"]["manifold"] == "circle"
        assert summary["cells"][0]["regime"]

    def test_unknown_manifold_exit_1_lists_ids(self, tmp_path, capsys):
        path = write_spec(tmp_path, manifold="banana")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert "banana" in captured.err
        assert "circle, sphere, torus" in captured.err

    def test_missing_config_exit_1(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "invalid" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("text", ["[1, 2]", "5"])
    def test_spec_that_is_not_an_object_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: invalid experiment spec: experiment spec must be a JSON object\n"
        assert not out.exists()

    def test_unknown_spec_field_exit_1(self, tmp_path, capsys):
        path = write_spec(tmp_path, extra_knob=1)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "extra_knob" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        path = write_spec(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_parallelism_byte_identical(self, tmp_path):
        path = write_spec(tmp_path)
        out1, out2 = tmp_path / "p1", tmp_path / "p4"
        assert main(["run", "--config", str(path), "--out", str(out1), "--parallelism", "1"]) == 0
        assert main(["run", "--config", str(path), "--out", str(out2), "--parallelism", "4"]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_parallelism_byte_identical_sparse(self, tmp_path):
        # sparse cells of 5 and 7 tiles take ordered passes that skip far tile pairs
        path = write_spec(
            tmp_path, N_list=[1000, 1500], epsilon_list=[0.005, 0.01], mode="sparse", tau=1e-8
        )
        out1, out2 = tmp_path / "p1", tmp_path / "p4"
        assert main(["run", "--config", str(path), "--out", str(out1), "--parallelism", "1"]) == 0
        assert main(["run", "--config", str(path), "--out", str(out2), "--parallelism", "4"]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(epsilon_list=[0.05, 0.0]), "epsilon must be a positive real, got 0.0"),
            (dict(epsilon_list=[float("inf")]), "epsilon must be a positive real, got inf"),
            (dict(epsilon_list=[float("nan")]), "epsilon must be a positive real, got nan"),
            (dict(mode="sparse", tau=1.0), "truncation_tau must lie in [0, 1), got 1.0"),
        ],
        ids=["eps-0", "eps-inf", "eps-nan", "tau-1"],
    )
    def test_bad_kernel_parameters_exit_1(self, tmp_path, capsys, overrides, match):
        path = write_spec(tmp_path, **overrides)  # json writes inf and nan as literals
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert match in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_failed_cells_exit_2(self, tmp_path, monkeypatch):
        path = write_spec(tmp_path, N_list=[40, 80], epsilon_list=[0.1], trials=2)
        good = tmp_path / "good"
        assert main(["run", "--config", str(path), "--out", str(good)]) == 0
        real = conv.lemma_check

        def flaky(manifold, fn_id, n, epsilon, **kwargs):
            if n == 40:
                raise RuntimeError("synthetic cell blow-up")
            return real(manifold, fn_id, n, epsilon, **kwargs)

        monkeypatch.setattr(conv, "lemma_check", flaky)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["n_cells"], summary["n_failed"]) == (4, 2)
        assert [(f["N"], f["trial"], f["message"]) for f in summary["failures"]] == [
            (40, 0, "synthetic cell blow-up"),
            (40, 1, "synthetic cell blow-up"),
        ]
        header, *rows = (good / "results.csv").read_text().splitlines(keepends=True)
        kept = [r for r in rows if r.split(",")[2] == "80"]
        assert len(kept) == 2
        assert (out / "results.csv").read_text() == header + "".join(kept)
        assert {f["kind"] for f in summary["failures"]} == {"numerical"}

    def test_out_of_memory_cell_is_a_resource_failure(self, tmp_path, monkeypatch):
        path = write_spec(tmp_path, N_list=[40, 80], epsilon_list=[0.1], trials=1)
        real = conv.lemma_check

        def starved(manifold, fn_id, n, epsilon, **kwargs):
            if n == 80:
                raise MemoryError()
            return real(manifold, fn_id, n, epsilon, **kwargs)

        monkeypatch.setattr(conv, "lemma_check", starved)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        (failure,) = summary["failures"]
        assert (failure["N"], failure["kind"], failure["message"]) == (80, "resource", "MemoryError")
        assert [c["N"] for c in summary["cells"]] == [40]

    def test_summary_key_order(self, tmp_path, monkeypatch):
        # the records' field order is the keys' order
        path = write_spec(tmp_path, N_list=[40, 80], epsilon_list=[0.1], trials=1)
        real = conv.lemma_check

        def flaky(manifold, fn_id, n, epsilon, **kwargs):
            if n == 40:
                raise RuntimeError("synthetic cell blow-up")
            return real(manifold, fn_id, n, epsilon, **kwargs)

        monkeypatch.setattr(conv, "lemma_check", flaky)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary) == [
            "schema_version", "spec", "package_version", "n_cells", "n_failed", "failures",
            "cells", "rate_fits", "threads", "total_wall_ms", "peak_rss_mb", "results_csv_sha256",
        ]
        (failure,) = summary["failures"]
        assert list(failure) == ["N", "epsilon", "trial", "seed", "kind", "message"]
        (cell,) = summary["cells"]
        assert list(cell) == ["N", "epsilon", "trial", "seed", "regime", "wall_ms"]

    @pytest.mark.parametrize(
        "epsilon_list, fitted_eps, fitted_n",
        [([0.2, 0.1, 0.05], [0.05, 0.1, 0.2], [40, 80, 160]), ([0.1, 0.05], [0.05, 0.1], [])],
        ids=["both-axes", "two-eps"],
    )
    def test_rate_fits_order_and_keys(self, tmp_path, epsilon_list, fitted_eps, fitted_n):
        # N by epsilon, then epsilon by N, each for every error column in this order,
        # groups in value order; two epsilon values are too few for a fit along epsilon
        path = write_spec(tmp_path, epsilon_list=epsilon_list, trials=1)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        fits = json.loads((out / "summary.json").read_text())["rate_fits"]
        responses = ("err_rel_median", "err_abs_median", "err_abs_mean", "err_abs_max")
        assert [(f["swept_axis"], f["group_by"], f["group_value"], f["response"]) for f in fits] == [
            ("N", "epsilon", eps, response) for response in responses for eps in fitted_eps
        ] + [("epsilon", "N", n, response) for response in responses for n in fitted_n]
        assert list(fits[0]) == [
            "swept_axis", "group_by", "group_value", "response", "slope", "intercept", "r_squared",
        ]

    def test_interior_statistic_is_not_a_spec_field(self, tmp_path, capsys):
        # every run fits every error column, so no field selects one
        path = write_spec(tmp_path, interior_statistic="median")
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: invalid experiment spec: unknown spec fields: interior_statistic\n"
        assert not (out / "results.csv").exists()

    def test_killed_helper_is_a_resource_failure(self, tmp_path, monkeypatch, capsys, time_limit):
        path = write_spec(tmp_path)
        real, me = conv.lemma_check, os.getpid()

        def killed_in_helpers(*args, **kwargs):
            if os.getpid() != me:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        monkeypatch.setattr(conv, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(conv, "lemma_check", killed_in_helpers)
        out = tmp_path / "o"
        time_limit(60)
        assert main(["run", "--config", str(path), "--out", str(out), "--parallelism", "2"]) == 2
        assert "cell(s) failed; see summary.json" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["n_cells"], summary["n_failed"]) == (12, 1)
        (failure,) = summary["failures"]
        assert (failure["N"], failure["epsilon"], failure["trial"]) == (40, 0.05, 0)
        assert failure["kind"] == "resource"
        first = [(c["N"], c["epsilon"], c["trial"]) for c in summary["cells"][:3]]
        assert first == [(40, 0.05, 1), (40, 0.1, 0), (40, 0.1, 1)]

    @pytest.mark.parametrize(
        "flag", [["--seed", "9"], ["--mode", "sparse"], ["--tau", "1e-8"], ["--timings"]],
        ids=["seed", "mode", "tau", "timings"],
    )
    def test_no_flag_changes_results_exit_1(self, spec_file, tmp_path, capsys, flag):
        # a run is a function of its spec file: no flag changes its numbers
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(spec_file), "--out", str(out), *flag])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_spec_is_the_parsed_file(self, tmp_path):
        # a sparse spec without tau is echoed with the default tau filled in
        path = write_spec(tmp_path, mode="sparse")
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["spec"] == conv.ExperimentSpec.from_json(path).to_dict()
        assert summary["spec"]["tau"] == conv.DEFAULT_TAU

    def test_wall_times_only_in_summary(self, tmp_path):
        path = write_spec(tmp_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = read_results_csv(out / "results.csv")
        assert len(rows) == 12 and {row["wall_ms"] for row in rows} == {"0"}
        cells = json.loads((out / "summary.json").read_text())["cells"]
        assert len(cells) == 12 and all(cell["wall_ms"] > 0 for cell in cells)

    def test_users_write_probe_file_survives(self, spec_file, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / ".write_probe").write_text("keep me")
        assert main(["run", "--config", str(spec_file), "--out", str(out)]) == 0
        assert (out / ".write_probe").read_text() == "keep me"
        assert sorted(p.name for p in out.iterdir()) == [".write_probe", "results.csv", "summary.json"]

    def test_no_leftover_temp_files(self, spec_file, tmp_path):
        out = tmp_path / "clean"
        assert main(["run", "--config", str(spec_file), "--out", str(out)]) == 0
        assert not [p for p in out.iterdir() if p.suffix == ".tmp"]

    def test_results_path_held_by_a_directory_exit_1(self, spec_file, tmp_path, capsys):
        # the rename onto a directory fails: the temp file goes and the error is re-raised
        out = tmp_path / "o"
        (out / "results.csv").mkdir(parents=True)
        assert main(["run", "--config", str(spec_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "results.csv" in err
        assert (out / "results.csv").is_dir()
        assert sorted(p.name for p in out.iterdir()) == ["results.csv"]

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_parallelism_below_one_exit_1(self, spec_file, tmp_path, capsys, k):
        out = tmp_path / "o"
        code = main(["run", "--config", str(spec_file), "--out", str(out), "--parallelism", k])
        assert code == 1
        assert f"--parallelism must be an integer >= 1, got {k}" in capsys.readouterr().err
        assert not out.exists()

    def test_output_files_follow_umask(self, tmp_path):
        previous = os.umask(0o022)
        try:
            write_text_atomic(tmp_path / "open.txt", "x\n")
            os.umask(0o077)
            write_text_atomic(tmp_path / "private.txt", "x\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "open.txt").stat().st_mode) == 0o644
        assert stat.S_IMODE((tmp_path / "private.txt").stat().st_mode) == 0o600
        assert sorted(p.name for p in tmp_path.iterdir()) == ["open.txt", "private.txt"]

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(tau=None), "tau"),
            (dict(N_list=5), "N_list"),
            (dict(function=["a"]), "function"),
            (dict(N_list=[500.7]), "N_list"),
            (dict(N_list=[40.0]), "N_list"),
            (dict(trials=2.9), "trials"),
            (dict(master_seed=True), "master_seed"),
            (dict(master_seed=2**70), "master_seed"),
            (dict(epsilon_list=[True]), "epsilon_list"),
            (dict(tau=False), "tau"),
            (dict(epsilon_list=["0.05"]), "epsilon_list"),
            (dict(epsilon_list=[10**400]), "epsilon_list"),
            (dict(mode="sparse", tau=10**400), "tau"),
            (dict(N_list={"40": 1}), "N_list"),
            (dict(epsilon_list={"0.05": 1}), "epsilon_list"),
        ],
        ids=[
            "tau-null", "N_list-number", "function-list", "N_list-fraction", "N_list-float",
            "trials-fraction", "master_seed-bool", "master_seed-2**70", "epsilon_list-bool",
            "tau-bool", "epsilon_list-string", "epsilon_list-10**400", "tau-10**400",
            "N_list-object", "epsilon_list-object",
        ],
    )
    def test_wrongly_typed_spec_field_exit_1(self, tmp_path, capsys, overrides, field):
        path = write_spec(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid experiment spec: ")
        assert err.count("\n") == 1  # one line, no traceback
        assert field in err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(N_list=[40, 40, 80]), "N_list repeats a value: [40, 40, 80]"),
            (dict(epsilon_list=[0.1, 0.1]), "epsilon_list repeats a value: [0.1, 0.1]"),
        ],
        ids=["N_list", "epsilon_list"],
    )
    def test_repeated_list_value_exit_1(self, tmp_path, capsys, overrides, message):
        # a repeat would run the same seeded cell twice and write its row twice
        path = write_spec(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: invalid experiment spec: {message}\n"
        assert not (out / "results.csv").exists()

    def test_torus_grid_rows_give_the_n_the_cell_ran_on(self, tmp_path, capsys):
        # the torus grid rounds N up to a square: 10, 20 and 40 run on 16, 25 and 49 points
        n_list = [10, 20, 40]
        path = write_spec(
            tmp_path, manifold="torus", function="sin_theta", N_list=n_list, epsilon_list=[0.5],
            trials=1, sampling="grid",
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        ran = [int(row["N"]) for row in read_results_csv(out / "results.csv")]
        assert ran == [grid_sample("torus", n).n_points for n in n_list] == [16, 25, 49]
        capsys.readouterr()
        for n, n_points in zip(n_list, ran):
            argv = ["degree-check", "--manifold", "torus", "--n", str(n), "--epsilon", "0.5", "--sampling", "grid"]
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["N"] == n_points

    def test_grid_n_values_that_make_one_grid_exit_1(self, tmp_path, capsys):
        # the torus grid rounds 10 and 12 up to one 16-point grid, whose row would be written twice
        path = write_spec(
            tmp_path, manifold="torus", function="sin_theta", N_list=[10, 12, 20, 40], epsilon_list=[0.5],
            trials=1, master_seed=5, sampling="grid",
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        message = "N_list repeats a value: [16, 16, 25, 49]"
        assert capsys.readouterr().err == f"error: invalid experiment spec: {message}\n"
        assert not (out / "results.csv").exists()

    def test_torus_grid_seeds_come_from_the_n_the_cell_ran_on(self, tmp_path):
        path = write_spec(
            tmp_path, manifold="torus", function="sin_theta", N_list=[10, 20, 40], epsilon_list=[0.5],
            sampling="grid",
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = read_results_csv(out / "results.csv")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["spec"]["N_list"] == [16, 25, 49]
        assert [int(row["N"]) for row in rows] == [16, 16, 25, 25, 49, 49]
        for row, cell in zip(rows, summary["cells"], strict=True):
            n, epsilon = int(row["N"]), float(row["epsilon"])
            assert (cell["N"], cell["epsilon"]) == (n, epsilon)
            assert int(row["seed"]) == cell["seed"] == conv.derive_cell_seed(3, n, epsilon, cell["trial"])

    def test_spec_key_given_twice_exit_1(self, spec_file, tmp_path, capsys):
        # json.load alone keeps the last value, so the first spec would run 3 trials; the
        # repeat rule is the spec object's own, so a nested object falls to the type rule
        for old, new, message in [
            ('"trials": 1', '"trials": 1, "trials": 3', "spec field trials appears twice"),
            ('"N_list": [40]', '"N_list": {"40": 1, "40": 2}', "N_list has the wrong type: {'40': 2}"),
        ]:
            path = tmp_path / "twice.json"
            path.write_text(spec_file.read_text().replace(old, new))
            out = tmp_path / "o"
            assert main(["run", "--config", str(path), "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: invalid experiment spec: {message}\n"
            assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("k, width", [("1", 1), ("2", 2), ("64", 4)])
    def test_summary_records_thread_layout(self, tmp_path, monkeypatch, k, width):
        monkeypatch.setattr(conv, "_usable_cpus", lambda: 4)
        path = write_spec(tmp_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out), "--parallelism", k]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["threads"] == {"cell_pool": width}
        assert summary["schema_version"] == 1
        # this process has at least imported numpy, and holds far less than 64 GB
        assert 10.0 < summary["peak_rss_mb"] < 65536.0

    @pytest.mark.parametrize("self_kb, children_kb", [(300 << 10, 100 << 10), (100 << 10, 300 << 10)])
    def test_peak_rss_counts_the_helpers(self, monkeypatch, self_kb, children_kb):
        # the larger of this process's peak and its largest joined helper's
        usage = {cli.resource.RUSAGE_SELF: self_kb, cli.resource.RUSAGE_CHILDREN: children_kb}
        monkeypatch.setattr(
            cli.resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=usage[who])
        )
        assert cli._peak_rss_mb() == (300.0 / 1024 if sys.platform == "darwin" else 300.0)

    def test_results_do_not_depend_on_blas_threads(self, tmp_path):
        # A kernel tile's products are too small for BLAS to thread, so the
        # host's OpenBLAS thread count cannot move the last bits of their sums.
        import graph_calculus

        src = str(Path(graph_calculus.__file__).resolve().parents[1])
        path = write_spec(tmp_path, N_list=[2000], epsilon_list=[0.005], trials=2)
        csv = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas-{threads}"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            cmd = [sys.executable, "-m", "graph_calculus.cli", "run", "--config", str(path)]
            subprocess.run(cmd + ["--out", str(out)], env=env, capture_output=True, check=True)
            csv.append((out / "results.csv").read_bytes())
        assert csv[0] == csv[1]

    def test_dense_results_are_pinned(self, tmp_path):
        # Dense cells take sample-order ln W tiles at tau = 0, so their
        # results.csv must not move by one byte (numpy 2.4, OpenBLAS 0.3.31
        # on x86-64; another BLAS or exp may round the last bits apart).
        import hashlib

        path = write_spec(tmp_path, N_list=[100, 500], epsilon_list=[0.02, 0.05], master_seed=7)
        out = tmp_path / "pinned"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
        assert digest == "46ad8b67a462f723e603120ad353bff46eee83a15486e9b06fb177a7fe673c43"

    @pytest.mark.parametrize("mode", [dict(mode="sparse"), {}], ids=["with-mode", "tau-only"])
    def test_sparse_results_are_pinned(self, tmp_path, mode):
        # Sparse cells take ordered ln W tiles whose pairs are skipped,
        # unmasked or masked, with trimmed columns gathered into chunks; a
        # new layout of the same tiles must not move results.csv by one byte
        # (numpy 2.4, OpenBLAS 0.3.31 on x86-64). tau alone picks the pass,
        # so a spec without a mode writes the same bytes, mode column included.
        import hashlib

        path = write_spec(tmp_path, N_list=[1500, 8000], epsilon_list=[0.005, 0.01], tau=1e-8, **mode)
        out = tmp_path / "pinned"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
        assert digest == "6f0b75f7cd45d12c93b436e4726275c05b0f79bb5bbbde312db754980e58fb10"

    def test_summary_hash_matches_file(self, spec_file, tmp_path):
        import hashlib

        out = tmp_path / "hashed"
        assert main(["run", "--config", str(spec_file), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
        assert summary["results_csv_sha256"] == digest


class TestVerifyCommand:
    def test_default_passes(self, capsys):
        assert main(["verify", "--n", "60", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_smallest_graph(self):
        assert main(["verify", "--n", "2", "--seeds", "1"]) == 0

    def test_oversized_n_rejected(self, capsys):
        assert main(["verify", "--n", "2000"]) == 1
        assert "1000" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seeds_exit_1(self, capsys, seeds):
        assert main(["verify", "--n", "60", "--seeds", seeds]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: n_seeds must be an integer >= 1, got {seeds}\n"
        assert "PASS" not in captured.out


class TestDegreeCheckCommand:
    def test_json_payload(self, capsys):
        assert (
            main(
                [
                    "degree-check",
                    "--manifold", "circle",
                    "--n", "500",
                    "--epsilon", "0.05",
                    "--seed", "4",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifold"] == "circle"
        assert {"ratio_mean", "residual_mean", "self_loop_share", "regime"} <= set(payload)

    def test_key_order(self, capsys):
        assert main(["degree-check", "--manifold", "circle", "--n", "50", "--epsilon", "0.05"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == [
            "manifold", "N", "epsilon", "seed", "sampling", "ratio_mean", "ratio_dev",
            "residual_mean", "residual_dev", "curvature_prediction_mean", "self_loop_share",
            "regime", "low_neighbor_warning",
        ]

    def test_unknown_manifold(self, capsys):
        code = main(["degree-check", "--manifold", "x", "--n", "10", "--epsilon", "0.1"])
        assert code == 1
        assert "circle, sphere, torus" in capsys.readouterr().err

    def test_bad_epsilon_exit_1(self, capsys):
        code = main(["degree-check", "--manifold", "circle", "--n", "10", "--epsilon", "-1"])
        assert code == 1
        assert "epsilon must be a positive real, got -1.0" in capsys.readouterr().err

    def test_non_finite_degrees_exit_1(self, capsys):
        # at eps 1e-310, |ys|^2 overflows: refused before any tile, with no RuntimeWarning
        argv = ["degree-check", "--manifold", "circle", "--n", "50", "--epsilon", "1e-310"]
        with pytest.warns(UserWarning, match="too few neighbors"):
            assert main(argv) == 1
        captured = capsys.readouterr()
        text = "epsilon 1e-310 is too small for this cloud: 2 max |y|^2 / epsilon overflows"
        assert captured.err == f"error: {text}\n"
        assert captured.out == ""

    def test_negative_seed_exit_1(self, capsys):
        argv = ["degree-check", "--manifold", "circle", "--n", "100", "--epsilon", "0.1", "--seed", "-1"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"

    def test_grid_negative_seed_exit_1(self, capsys):
        # a grid cloud draws no random numbers, but its reported seed is still checked
        argv = ["degree-check", "--manifold", "circle", "--n", "10", "--epsilon", "0.1",
                "--sampling", "grid", "--seed", "-1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a nonnegative integer, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 21.8 TiB for an array"), "Unable to allocate 21.8 TiB for an array"),
            (MemoryError(), "MemoryError"),
        ],
    )
    def test_out_of_memory_exit_2(self, capsys, monkeypatch, exc, message):
        # A cloud too large to allocate ends as a sweep cell's "resource"
        # failure does; the sampler raises here without asking for memory.
        def starved(manifold, n, seed):
            raise exc

        monkeypatch.setattr(conv, "sample", starved)
        argv = ["degree-check", "--manifold", "sphere", "--n", "1000000000000", "--epsilon", "0.05"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: out of memory: {message}\n"
        assert captured.out == ""


class TestOperatorCommands:
    @pytest.fixture
    def graph_inputs(self, tmp_path):
        cloud_csv = tmp_path / "cloud.csv"
        cloud_csv.write_text(CLOUD_ROWS)
        f = np.array([0.5, -1.0, 2.0])
        f_csv = tmp_path / "f.csv"
        write_vector_csv(f_csv, f)
        cloud = PointCloud.from_csv(cloud_csv)
        w = build_weights(cloud, KernelConfig(epsilon=1.0))
        return cloud_csv, f_csv, f, w, degrees(w)

    @pytest.fixture
    def big_cloud(self, tmp_path):
        # one point over the stored-W limit
        cloud_csv = tmp_path / "cloud.csv"
        np.savetxt(cloud_csv, np.random.default_rng(8).standard_normal((4097, 2)), delimiter=",")
        f_csv = tmp_path / "f.csv"
        write_vector_csv(f_csv, np.zeros(4097))
        return cloud_csv, f_csv

    def test_grad_matches_library(self, graph_inputs, tmp_path):
        cloud_csv, f_csv, f, w, d = graph_inputs
        out = tmp_path / "grad.csv"
        code = main(
            ["grad", "--cloud", str(cloud_csv), "--epsilon", "1.0",
             "--function", str(f_csv), "--out", str(out)]
        )
        assert code == 0
        np.testing.assert_array_equal(read_matrix_csv(out), gradient(f, w, d))

    def test_div_matches_library(self, graph_inputs, tmp_path):
        cloud_csv, f_csv, f, w, d = graph_inputs
        field = gradient(f, w, d)
        field_csv = tmp_path / "field.csv"
        write_matrix_csv(field_csv, field)
        out = tmp_path / "div.csv"
        code = main(
            ["div", "--cloud", str(cloud_csv), "--epsilon", "1.0",
             "--field", str(field_csv), "--out", str(out)]
        )
        assert code == 0
        np.testing.assert_array_equal(read_vector_csv(out), divergence(field, w, d))

    def test_div_refuses_a_field_of_the_wrong_shape(self, graph_inputs, tmp_path, capsys):
        field_csv, out = tmp_path / "field.csv", tmp_path / "div.csv"
        write_matrix_csv(field_csv, np.zeros((4, 5)))
        argv = ["div", "--cloud", str(graph_inputs[0]), "--epsilon", "1.0", "--field", str(field_csv)]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: edge field has shape (4, 5), expected (3, 3)\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("grad", "--function"), ("div", "--field")])
    def test_unparsable_input_names_its_file(self, graph_inputs, tmp_path, capsys, command, flag):
        cloud_csv = graph_inputs[0]
        bad = tmp_path / "bad_input.csv"
        bad.write_text("x,1.0\n")
        out = tmp_path / "out.csv"
        code = main(
            [command, "--cloud", str(cloud_csv), "--epsilon", "1.0", flag, str(bad), "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: could not parse CSV file {bad}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["laplacian", "--cloud", "{bad}", "--matrix"], ""),
            (["grad", "--cloud", "{cloud}", "--function", "{bad}"], "# a comment\n\n# and no data\n"),
        ],
        ids=["empty-cloud", "comment-only-function"],
    )
    def test_input_without_data_exits_1_naming_its_file(self, graph_inputs, tmp_path, capsys, argv, text):
        bad = tmp_path / "no_data.csv"
        bad.write_text(text)
        out = tmp_path / "out.csv"
        argv = [a.format(bad=bad, cloud=graph_inputs[0]) for a in argv]
        assert main([*argv, "--epsilon", "1.0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: could not parse CSV file {bad}: no data rows\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["grad", "laplacian"])
    @pytest.mark.parametrize("rows, width", [("1,2\n3,4\n", 2), ("1,2,3,4\n", 4)], ids=["2x2", "one-row"])
    def test_function_file_holds_one_value_per_line(self, tmp_path, capsys, command, rows, width):
        # four values for a four-point cloud, but not one to a line
        cloud_csv, f_csv, out = tmp_path / "cloud.csv", tmp_path / "f.csv", tmp_path / "out.csv"
        cloud_csv.write_text(CLOUD_ROWS + "2.0,2.0\n")
        f_csv.write_text(rows)
        argv = [command, "--cloud", str(cloud_csv), "--epsilon", "1.0", "--function", str(f_csv), "--out", str(out)]
        assert main(argv) == 1
        message = f"could not parse CSV file {f_csv}: expected one value per line, got {width}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        f_csv.write_text("1\n2\n3\n4\n")
        assert main(argv) == 0

    def test_laplacian_vector_and_matrix(self, graph_inputs, tmp_path):
        cloud_csv, f_csv, f, w, d = graph_inputs
        out_v = tmp_path / "lap.csv"
        assert (
            main(
                ["laplacian", "--cloud", str(cloud_csv), "--epsilon", "1.0",
                 "--function", str(f_csv), "--out", str(out_v)]
            )
            == 0
        )
        cloud, kernel = PointCloud.from_csv(cloud_csv), KernelConfig(epsilon=1.0)
        vector = read_vector_csv(out_v)
        expected = laplacian_from_cloud(cloud, kernel, f, degrees_from_cloud(cloud, kernel))
        np.testing.assert_array_equal(vector, expected)
        np.testing.assert_allclose(vector, laplacian_apply(f, w, d), rtol=1e-12, atol=0.0)
        out_m = tmp_path / "lapmat.csv"
        assert (
            main(
                ["laplacian", "--cloud", str(cloud_csv), "--epsilon", "1.0",
                 "--matrix", "--out", str(out_m)]
            )
            == 0
        )
        np.testing.assert_array_equal(read_matrix_csv(out_m), laplacian_matrix(w, d))

    def test_laplacian_needs_function_or_matrix(self, graph_inputs, tmp_path, capsys):
        cloud_csv, _, _, _, _ = graph_inputs
        with pytest.raises(SystemExit) as exc:
            main(["laplacian", "--cloud", str(cloud_csv), "--epsilon", "1.0", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1
        assert "--function" in capsys.readouterr().err

    def test_laplacian_refuses_function_and_matrix_together(self, graph_inputs, tmp_path, capsys):
        cloud_csv, f_csv, _, _, _ = graph_inputs
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(
                ["laplacian", "--cloud", str(cloud_csv), "--epsilon", "1.0",
                 "--function", str(f_csv), "--matrix", "--out", str(out)]
            )
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: graph-calculus laplacian ")
        assert err.endswith(
            "graph-calculus laplacian: error: argument --matrix: not allowed with argument --function\n"
        )
        assert not out.exists()

    def test_stored_weight_limit_applies_at_any_tau(self, big_cloud, tmp_path, capsys):
        cloud_csv, f_csv = big_cloud
        # every command whose output is N x N or is built from an N x N input
        for command, extra in (
            ("grad", ["--function", str(f_csv)]),
            ("div", ["--field", str(f_csv)]),
            ("laplacian", ["--matrix"]),
        ):
            code = main(
                [command, "--cloud", str(cloud_csv), "--epsilon", "1.0", "--tau", "1e-8",
                 *extra, "--out", str(tmp_path / "out.csv")]
            )
            assert code == 1
            err = capsys.readouterr().err
            assert "limited to N <= 4096 points (got 4097)" in err
        assert not (tmp_path / "out.csv").exists()

    def test_laplacian_vector_is_matrix_free(self, big_cloud, tmp_path):
        cloud_csv, f_csv = big_cloud
        out = tmp_path / "out.csv"
        code = main(
            ["laplacian", "--cloud", str(cloud_csv), "--epsilon", "1.0", "--tau", "1e-8",
             "--function", str(f_csv), "--out", str(out)]
        )
        assert code == 0
        np.testing.assert_array_equal(read_vector_csv(out), np.zeros(4097))

    def test_laplacian_rejects_non_finite_function(self, graph_inputs, tmp_path, capsys):
        cloud_csv, _, _, _, _ = graph_inputs
        f_csv = tmp_path / "nan.csv"
        f_csv.write_text("0.5\nnan\n2.0\n")
        out = tmp_path / "out.csv"
        code = main(
            ["laplacian", "--cloud", str(cloud_csv), "--epsilon", "1.0",
             "--function", str(f_csv), "--out", str(out)]
        )
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_cloud_file(self, tmp_path, capsys):
        code = main(
            ["laplacian", "--cloud", str(tmp_path / "nope.csv"), "--epsilon", "1.0",
             "--matrix", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1


class TestListingCommands:
    def test_list_manifolds(self, capsys):
        assert main(["list-manifolds"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [m["id"] for m in payload] == ["circle", "sphere", "torus"]

    def test_list_manifolds_bytes(self, capsys):
        assert main(["list-manifolds"]) == 0
        registry = [
            ("circle", 1, 2, 6.283185307179586, ["const_one", "cos_theta", "sin_3theta", "sin_theta"]),
            ("sphere", 2, 3, 12.566370614359172, ["const_one", "coord_x", "coord_z", "harmonic_xy"]),
            ("torus", 2, 4, 39.47841760435743, ["const_one", "sin_phi", "sin_theta", "sin_theta_cos_phi"]),
        ]
        keys = ("id", "intrinsic_dim", "ambient_dim", "volume", "functions")
        expected = json.dumps([dict(zip(keys, entry)) for entry in registry], indent=2) + "\n"
        assert capsys.readouterr().out == expected

    def test_list_functions_filtered(self, capsys):
        assert main(["list-functions", "--manifold", "sphere"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == [
            {
                "manifold": "sphere",
                "functions": ["const_one", "coord_x", "coord_z", "harmonic_xy"],
            }
        ]

    def test_list_functions_unknown_manifold(self, capsys):
        assert main(["list-functions", "--manifold", "nope"]) == 1


class TestPlotData:
    @pytest.fixture
    def results_dir(self, tmp_path):
        path = write_spec(tmp_path)
        out = tmp_path / "sweep"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        return out

    def test_groups_by_epsilon(self, results_dir, tmp_path):
        out = tmp_path / "plots"
        code = main(
            ["plot-data", "--results", str(results_dir / "results.csv"),
             "--x", "N", "--y", "err_rel_median", "--group-by", "epsilon",
             "--out", str(out)]
        )
        assert code == 0
        series = sorted(p.name for p in out.glob("err_rel_median_vs_N__epsilon_*.csv"))
        assert len(series) == 2
        first = (out / series[0]).read_text().splitlines()
        assert first[0] == "N,err_rel_median"
        xs = [float(line.split(",")[0]) for line in first[1:]]
        assert xs == sorted(xs)

    def test_slope_annotation_matches_fit_rate(self, results_dir, tmp_path):
        out = tmp_path / "plots2"
        assert (
            main(
                ["plot-data", "--results", str(results_dir / "results.csv"),
                 "--x", "N", "--y", "err_rel_median", "--group-by", "epsilon",
                 "--out", str(out)]
            )
            == 0
        )
        summary = (out / "series_summary.txt").read_text().splitlines()
        rows = (results_dir / "results.csv").read_text().splitlines()[1:]
        header = (results_dir / "results.csv").read_text().splitlines()[0].split(",")
        n_idx, y_idx, eps_idx = header.index("N"), header.index("err_rel_median"), header.index("epsilon")
        for line in summary:
            gval = float(line.split(":")[0].split("=", 1)[1])
            grp = [r.split(",") for r in rows if float(r.split(",")[eps_idx]) == gval]
            assert grp
            xs = [float(r[n_idx]) for r in grp]
            ys = [float(r[y_idx]) for r in grp]
            fit = fit_rate_xy(np.array(xs), np.array(ys))
            assert f"slope={format_float(fit.slope)}" in line

    def test_series_summary_is_pinned(self, tmp_path):
        results = tmp_path / "results.csv"
        results.write_text("N,epsilon,err_rel_median\n160,0.1,0.2\n40,0.1,0.5\n80,0.2,0.4\n80,0.1,0.3\n")
        out = tmp_path / "p"
        assert main(
            ["plot-data", "--results", str(results), "--x", "N", "--y", "err_rel_median",
             "--group-by", "epsilon", "--out", str(out)]
        ) == 0
        assert (out / "series_summary.txt").read_text() == (
            "epsilon=0.1: slope=-0.6609640474436812 intercept=1.7275094280200678 "
            "r_squared=0.9956120861450094\n"
            "epsilon=0.2: no rate fit (rate fitting needs >= 3 distinct values on the swept axis)\n"
        )
        assert (out / "err_rel_median_vs_N__epsilon_0.1.csv").read_text() == (
            "N,err_rel_median\n40,0.5\n80,0.3\n160,0.2\n"
        )

    def test_rate_fits_do_not_depend_on_list_order(self, tmp_path):
        # summary.json fits each group in swept-value order, as plot-data does
        fits = {}
        for name, n_list, eps_list in (
            ("up", [100, 200, 400, 800], [0.05, 0.1, 0.2]),
            ("down", [800, 400, 200, 100], [0.2, 0.1, 0.05]),
        ):
            path = write_spec(tmp_path, f"{name}.json", N_list=n_list, epsilon_list=eps_list, trials=1)
            assert main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
            fits[name] = json.loads((tmp_path / name / "summary.json").read_text())["rate_fits"]
        assert fits["down"] == fits["up"]
        out = tmp_path / "plots"
        assert main(
            ["plot-data", "--results", str(tmp_path / "down" / "results.csv"), "--x", "N",
             "--y", "err_rel_median", "--group-by", "epsilon", "--out", str(out)]
        ) == 0
        assert (out / "series_summary.txt").read_text().splitlines() == [
            f"epsilon={f['group_value']}: slope={format_float(f['slope'])} "
            f"intercept={format_float(f['intercept'])} r_squared={format_float(f['r_squared'])}"
            for f in fits["down"]
            if f["swept_axis"] == "N" and f["response"] == "err_rel_median"
        ]

    def test_group_labels_are_shortest_numbers_in_value_order(self, tmp_path):
        path = write_spec(tmp_path, N_list=[500, 1000], epsilon_list=[0.01, 0.02, 0.04], trials=1)
        results = tmp_path / "sweep" / "results.csv"
        assert main(["run", "--config", str(path), "--out", str(results.parent)]) == 0
        by_eps, by_n = tmp_path / "by_eps", tmp_path / "by_n"
        for group, x, out in (("epsilon", "N", by_eps), ("N", "epsilon", by_n)):
            assert main(
                ["plot-data", "--results", str(results), "--x", x, "--y", "err_rel_median",
                 "--group-by", group, "--out", str(out)]
            ) == 0

        def labels(out):
            lines = (out / "series_summary.txt").read_text().splitlines()
            return [line.split(":")[0] for line in lines]

        assert (by_eps / "err_rel_median_vs_N__epsilon_0.04.csv").is_file()
        assert labels(by_eps) == ["epsilon=0.01", "epsilon=0.02", "epsilon=0.04"]
        assert labels(by_n) == ["N=500", "N=1000"]
        assert (by_n / "err_rel_median_vs_epsilon__N_500.csv").is_file()

    def test_single_row_input(self, spec_file, tmp_path):
        out_run = tmp_path / "single"
        assert main(["run", "--config", str(spec_file), "--out", str(out_run)]) == 0
        out = tmp_path / "plots3"
        assert (
            main(
                ["plot-data", "--results", str(out_run / "results.csv"),
                 "--x", "N", "--y", "err_abs_max", "--group-by", "epsilon",
                 "--out", str(out)]
            )
            == 0
        )
        series = list(out.glob("err_abs_max_vs_N__epsilon_*.csv"))
        assert len(series) == 1
        assert len(series[0].read_text().splitlines()) == 2
        assert "no rate fit" in (out / "series_summary.txt").read_text()

    def test_unknown_column(self, results_dir, tmp_path, capsys):
        code = main(
            ["plot-data", "--results", str(results_dir / "results.csv"),
             "--x", "N", "--y", "bogus_col", "--group-by", "epsilon",
             "--out", str(tmp_path / "p")]
        )
        assert code == 1
        assert "bogus_col" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "x, y, text", [("manifold", "err_rel_median", "manifold"), ("N", "mode", "mode")]
    )
    def test_text_column_exits_1_without_files(self, results_dir, tmp_path, capsys, x, y, text):
        out = tmp_path / "p"
        code = main(
            ["plot-data", "--results", str(results_dir / "results.csv"),
             "--x", x, "--y", y, "--group-by", "epsilon", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: column {text!r} is not numeric\n"
        assert not out.exists()


    @pytest.mark.parametrize(
        "bad_row, count", [("40", 1), ("40,0.1,0.5,7", 4)], ids=["missing", "extra"]
    )
    def test_ragged_row_exits_1_naming_its_line(self, tmp_path, capsys, bad_row, count):
        results = tmp_path / "results.csv"
        results.write_text(f"N,epsilon,err_rel_median\n40,0.05,0.5\n{bad_row}\n80,0.1,0.3\n")
        out = tmp_path / "p"
        code = main(
            ["plot-data", "--results", str(results), "--x", "N", "--y", "err_rel_median",
             "--group-by", "epsilon", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {results}: line 3 has {count} field(s) where the header has 3\n"
        assert not out.exists()


class TestExitPath:
    """main maps any command's ValueError or OSError to exit 1, MemoryError to exit 2."""

    @pytest.fixture
    def inputs(self, tmp_path):
        write_spec(tmp_path, N_list=[40], epsilon_list=[0.1], trials=1)
        (tmp_path / "cloud.csv").write_text(CLOUD_ROWS)
        write_vector_csv(tmp_path / "f.csv", [0.5, -1.0, 2.0])
        write_matrix_csv(tmp_path / "field.csv", np.ones((3, 3)))
        (tmp_path / "results.csv").write_text(
            "N,epsilon,err_rel_median\n40,0.1,0.5\n80,0.1,0.3\n160,0.1,0.2\n"
        )
        return tmp_path

    OPERATOR = ["--cloud", "{dir}/cloud.csv", "--epsilon", "1.0", "--out", "{dir}/out/x.csv"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["grad", *OPERATOR, "--function", "{dir}/f.csv"],
            ["div", *OPERATOR, "--field", "{dir}/field.csv"],
            ["laplacian", *OPERATOR, "--matrix"],
            ["laplacian", *OPERATOR, "--function", "{dir}/f.csv"],
            ["verify", "--n", "10", "--seeds", "1"],
        ],
        ids=["grad", "div", "laplacian-matrix", "laplacian-function", "verify"],
    )
    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 8.00 TiB for an array"), "Unable to allocate 8.00 TiB for an array"),
            (MemoryError(), "MemoryError"),
        ],
        ids=["message", "empty"],
    )
    def test_out_of_memory_exit_2(self, inputs, monkeypatch, capsys, caplog, argv, exc, message):
        # Every kernel pass plans first, and the plan allocates the augmented cloud.
        def starved(*args):
            raise exc

        monkeypatch.setattr(graph_core, "_augmented", starved)
        caplog.set_level(logging.DEBUG, logger="graph_calculus.cli")
        assert main([a.format(dir=inputs) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: out of memory: {message}\n"
        assert captured.out == ""
        assert not (inputs / "out").exists()
        traced = [r.exc_info[1] for r in caplog.records if r.name == cli.log.name and r.exc_info]
        assert traced == [exc]

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "{dir}/spec.json", "--out", "{dir}/out"],
            ["plot-data", "--results", "{dir}/results.csv", "--x", "N", "--y", "err_rel_median",
             "--group-by", "epsilon", "--out", "{dir}/out"],
        ],
        ids=["run", "plot-data"],
    )
    def test_unwritable_output_exit_1(self, inputs, monkeypatch, capsys, argv):
        def full(path, text):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "write_text_atomic", full)
        assert main([a.format(dir=inputs) for a in argv]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert list((inputs / "out").iterdir()) == []


class TestArgumentHandling:
    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--frobnicate"])
        assert exc.value.code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1

    def test_bad_log_level_warns_and_continues(self, monkeypatch, capsys):
        monkeypatch.setenv("GRAPH_CALCULUS_LOG", "verbose")
        assert main(["list-manifolds"]) == 0
        assert "GRAPH_CALCULUS_LOG" in capsys.readouterr().err

    def test_cli_import_leaves_scipy_stats_out(self):
        # The package imports only numpy: no scipy module at all, scipy.stats
        # included. A fresh interpreter, since this test process may hold scipy.
        import graph_calculus

        src = str(Path(graph_calculus.__file__).resolve().parents[1])
        probe = (
            "import sys, graph_calculus.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_serial_run_leaves_multiprocessing_out(self, spec_file, tmp_path):
        # Only a sweep that forks helpers imports multiprocessing, so neither
        # start-up nor a K=1 run pays for it. A fresh interpreter, as above.
        import graph_calculus

        src = str(Path(graph_calculus.__file__).resolve().parents[1])
        argv = ["run", "--config", str(spec_file), "--out", str(tmp_path / "out"), "--parallelism", "1"]
        probe = (
            "import sys, graph_calculus.cli; "
            f"code = graph_calculus.cli.main({argv!r}); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "0 []"
