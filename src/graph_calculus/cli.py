"""Command-line entry point.

Thin shell over the library: every number it emits comes from graph_core,
calculus, manifolds, convergence, or verification. Exit codes: 0 success,
1 configuration/usage errors, 2 when sweep cells failed (numerically, or
for want of memory; summary.json names the kind of each failure). For any
command, bad input or a file that cannot be read or written exits 1 with
"error: ...", and running out of memory exits 2 with "error: out of
memory: ...".
Logging level comes from GRAPH_CALCULUS_LOG (quiet|info|debug); at debug a
failed command also logs its traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import resource
import secrets
import sys
from pathlib import Path

from . import __version__
from .calculus import _check_edge_field, divergence, gradient, laplacian_matrix
from .convergence import ExperimentSpec, RateFit, degree_check, grouped_rate_fits, sweep
from .csvio import (
    format_float,
    output_key,
    read_matrix_csv,
    read_results_csv,
    read_vector_csv,
    record_dict,
    results_csv_text,
    write_matrix_csv,
    write_text_atomic,
    write_vector_csv,
)
from .graph_core import (
    KernelConfig,
    PointCloud,
    _check_stored,
    _check_vertex_function,
    build_weights,
    degrees,
    degrees_from_cloud,
    laplacian_from_cloud,
)
from .manifolds import SAMPLINGS, check_integer, get_manifold, registry_payload
from .verification import run_invariant_suite

log = logging.getLogger("graph_calculus.cli")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CELL_FAILURES = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; the exit-code taxonomy
    # reserves 2 for failed sweep cells, so usage errors exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _peak_rss_mb() -> float:
    """Peak resident set size in MB of this process or of its largest joined child.

    The children are a sweep's helper processes, counted once the pool has
    joined them (ru_maxrss counts KB on Linux, bytes on macOS).
    """
    peak = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def _configure_logging() -> None:
    level_name = os.environ.get("GRAPH_CALCULUS_LOG", "info").lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(
            f"warning: GRAPH_CALCULUS_LOG={level_name!r} not in (quiet|info|debug); using info",
            file=sys.stderr,
        )
        level_name = "info"
    logging.basicConfig(
        level=levels[level_name], format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="graph-calculus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="execute an experiment spec file")
    run.set_defaults(func=_cmd_run)
    run.add_argument("--config", required=True, help="experiment spec JSON")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--parallelism", type=int, default=1, metavar="K")

    verify = sub.add_parser(
        "verify", help="run the exact-algebra invariant suite"
    )
    verify.set_defaults(func=_cmd_verify)
    verify.add_argument("--n", type=int, default=100)
    verify.add_argument("--seeds", type=int, default=5)

    deg = sub.add_parser(
        "degree-check", help="single-cell degree asymptotics check"
    )
    deg.set_defaults(func=_cmd_degree_check)
    deg.add_argument("--manifold", required=True)
    deg.add_argument("--n", type=int, required=True)
    deg.add_argument("--epsilon", type=float, required=True)
    deg.add_argument("--seed", type=int, default=0)
    deg.add_argument("--sampling", choices=SAMPLINGS, default="random")
    deg.add_argument("--tau", type=float, default=0.0)

    for name in ("grad", "div", "laplacian"):
        op = sub.add_parser(name, help=f"apply {name} to CSV inputs")
        op.set_defaults(func=_cmd_operator)
        op.add_argument("--cloud", required=True, help="point cloud CSV")
        op.add_argument("--epsilon", type=float, required=True)
        op.add_argument("--tau", type=float, default=0.0)
        op.add_argument("--out", required=True, help="output CSV")
        if name == "div":
            op.add_argument("--field", required=True, help="edge field CSV (N x N, row-major)")
        elif name == "grad":
            op.add_argument("--function", required=True, help="vertex function CSV (one value per line)")
        else:
            which = op.add_mutually_exclusive_group(required=True)
            which.add_argument("--function", help="vertex function CSV (one value per line)")
            which.add_argument("--matrix", action="store_true", help="export the Laplacian matrix instead")

    sub.add_parser("list-manifolds", help="emit the manifold registry as JSON").set_defaults(
        func=_cmd_list_manifolds
    )
    lf = sub.add_parser("list-functions", help="emit test-function ids as JSON")
    lf.set_defaults(func=_cmd_list_functions)
    lf.add_argument("--manifold", default=None)

    plot = sub.add_parser(
        "plot-data", help="reshape a results CSV into per-curve series"
    )
    plot.set_defaults(func=_cmd_plot_data)
    plot.add_argument("--results", required=True)
    plot.add_argument("--x", required=True, dest="x_axis")
    plot.add_argument("--y", required=True, dest="y_column")
    plot.add_argument("--group-by", required=True, dest="group_by")
    plot.add_argument("--out", required=True, help="output directory")
    return parser


# ----------------------------------------------------------------------
# run


def _prepare_out_dir(out) -> Path:
    """Create the output directory and check that a file can be made in it.

    The probe file takes a fresh random name, as write_text_atomic's temp
    files do, so no file of the user's is truncated or removed.
    """
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / f".write_probe.{secrets.token_hex(8)}"
        os.close(os.open(probe, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        os.unlink(probe)
    except OSError as exc:
        raise OSError(f"output directory not writable: {out_dir} ({exc})") from exc
    return out_dir


# The CellResult fields that summary.json lists for each cell; the rest are in results.csv.
_SUMMARY_CELL_FIELDS = ("n", "epsilon", "trial", "seed", "regime", "wall_ms")


def _cmd_run(args) -> int:
    check_integer(args.parallelism, "--parallelism", 1)  # before --out is made
    config = Path(args.config)
    if not config.is_file():
        raise ValueError(f"config file not found: {config}")
    try:
        spec = ExperimentSpec.from_json(config)
    except ValueError as exc:
        raise ValueError(f"invalid experiment spec: {exc}") from exc

    out_dir = _prepare_out_dir(args.out)
    result = sweep(spec, parallelism=args.parallelism)
    csv_text = results_csv_text(result.rows)
    write_text_atomic(out_dir / "results.csv", csv_text)

    # N by epsilon, then epsilon by N, each for every error column
    rate_fits = []
    for swept, group in (("n", "epsilon"), ("epsilon", "n")):
        for response in ("err_rel_median", "err_abs_median", "err_abs_mean", "err_abs_max"):
            columns = ([getattr(r, name) for r in result.rows] for name in (group, swept, response))
            axes = {"swept_axis": output_key(swept), "group_by": output_key(group)}
            rate_fits += [
                {**axes, "group_value": value, "response": response, **record_dict(fit)}
                for value, _, fit in grouped_rate_fits(*columns)
                if isinstance(fit, RateFit)
            ]
    summary = {
        "schema_version": 1,
        "spec": spec.to_dict(),
        "package_version": __version__,
        "n_cells": len(result.rows) + len(result.failures),
        "n_failed": len(result.failures),
        "failures": [record_dict(f) for f in result.failures],
        "cells": [record_dict(r, _SUMMARY_CELL_FIELDS) for r in result.rows],
        "rate_fits": rate_fits,
        "threads": {"cell_pool": result.pool_width},
        "total_wall_ms": sum(r.wall_ms for r in result.rows),
        "peak_rss_mb": _peak_rss_mb(),
        "results_csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
    }
    write_text_atomic(out_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    log.info(
        "wrote %s (%d rows) and summary.json", out_dir / "results.csv", len(result.rows)
    )
    if result.failures:
        print(f"{len(result.failures)} cell(s) failed; see summary.json", file=sys.stderr)
        return EXIT_CELL_FAILURES
    return EXIT_OK


# ----------------------------------------------------------------------
# verify / degree-check


def _cmd_verify(args) -> int:
    reports = run_invariant_suite(n=args.n, n_seeds=args.seeds)
    all_ok = True
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        all_ok &= rep.passed
        print(
            f"{status}  {rep.name:<26} worst residual {rep.worst_residual:.3e} "
            f"(tolerance {rep.tolerance:.0e})"
        )
    return EXIT_OK if all_ok else EXIT_CELL_FAILURES


def _cmd_degree_check(args) -> int:
    res = degree_check(
        args.manifold,
        args.n,
        args.epsilon,
        seed=args.seed,
        sampling=args.sampling,
        tau=args.tau,
    )
    print(json.dumps(record_dict(res), indent=2))
    return EXIT_OK


# ----------------------------------------------------------------------
# operator commands


def _cmd_operator(args) -> int:
    cloud = PointCloud.from_csv(args.cloud)
    kernel = KernelConfig(epsilon=args.epsilon, truncation_tau=args.tau)
    # every input is read and checked against the cloud before any kernel work
    if args.command == "laplacian" and not args.matrix:
        # a vector output needs only the degree pass and one W g pass
        f = _check_vertex_function(read_vector_csv(args.function), cloud.n_points)
        d = degrees_from_cloud(cloud, kernel)
        write_vector_csv(args.out, laplacian_from_cloud(cloud, kernel, f, d))
        return EXIT_OK
    _check_stored(cloud.n_points)  # the bound on a stored W comes before its inputs
    if args.command == "grad":
        f = _check_vertex_function(read_vector_csv(args.function), cloud.n_points)
    elif args.command == "div":
        field = _check_edge_field(read_matrix_csv(args.field), cloud.n_points)
    w = build_weights(cloud, kernel)
    d = degrees(w)
    if args.command == "grad":
        write_matrix_csv(args.out, gradient(f, w, d))
    elif args.command == "div":
        write_vector_csv(args.out, divergence(field, w, d))
    else:
        write_matrix_csv(args.out, laplacian_matrix(w, d))
    return EXIT_OK


# ----------------------------------------------------------------------
# listings and plot data


def _cmd_list_manifolds(_args) -> int:
    print(json.dumps(registry_payload(), indent=2))
    return EXIT_OK


def _cmd_list_functions(args) -> int:
    payload = registry_payload()
    if args.manifold is not None:
        get_manifold(args.manifold)
        payload = [m for m in payload if m["id"] == args.manifold]
    print(json.dumps([{"manifold": m["id"], "functions": m["functions"]} for m in payload], indent=2))
    return EXIT_OK


def _group_value(text: str):
    """A results.csv cell as the int or float it holds, else as the text."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _cmd_plot_data(args) -> int:
    rows = read_results_csv(args.results)
    if not rows:
        raise ValueError("results CSV has no data rows")
    columns = list(rows[0])
    for col in (args.x_axis, args.y_column, args.group_by):
        if col not in columns:
            raise ValueError(f"unknown column {col!r}; available: {', '.join(columns)}")
    for col in (args.x_axis, args.y_column):
        if any(isinstance(_group_value(row[col]), str) for row in rows):
            raise ValueError(f"column {col!r} is not numeric")
    out_dir = _prepare_out_dir(args.out)

    groups = grouped_rate_fits(
        [_group_value(row[args.group_by]) for row in rows],
        [float(row[args.x_axis]) for row in rows],
        [float(row[args.y_column]) for row in rows],
    )
    summary_lines = []
    # str() of a number is its shortest round-trip form (0.04, not 0.040000000000000001)
    for gval, positions, fit in groups:
        name = f"{args.y_column}_vs_{args.x_axis}__{args.group_by}_{gval}.csv"
        lines = [f"{args.x_axis},{args.y_column}"]
        lines += [f"{rows[i][args.x_axis]},{rows[i][args.y_column]}" for i in positions]
        write_text_atomic(out_dir / name, "\n".join(lines) + "\n")
        if isinstance(fit, RateFit):
            fit_text = " ".join(f"{key}={format_float(v)}" for key, v in record_dict(fit).items())
        else:
            fit_text = f"no rate fit ({fit})"
        summary_lines.append(f"{args.group_by}={gval}: {fit_text}")
    write_text_atomic(out_dir / "series_summary.txt", "\n".join(summary_lines) + "\n")
    print(f"wrote {len(groups)} series file(s) to {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        log.debug("%s failed", args.command, exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # as a sweep cell's "resource" failure
        log.debug("%s failed", args.command, exc_info=True)
        print(f"error: out of memory: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_CELL_FAILURES


if __name__ == "__main__":
    sys.exit(main())
