"""Convergence-lab benchmark: one workload, one seed, one result line.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py; metric names and units come from
BENCHMARK.json, and from layers.json for the per-layer metrics that only the
report shows. A run

1. times `setup_s`: SETUP_SAMPLES fresh interpreters that import
   graph_calculus.cli and run `graph-calculus list-manifolds`, median taken;
2. starts a fresh child process (workloads.py) that runs the workload as a
   closed loop for S seconds and reports its raw outputs and its peak RSS;
3. checks every cell (checks.py): reference table, quadrature oracle on
   degree_ensemble, byte-identical results.csv across repeats;
4. prints a report with every metric by name and unit, the checks and the
   environment, writes it to .perfbench_out/, and prints as its last line
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
   --trace 0, the per-layer metrics (from spans.py) with --trace 1.

The exit code is 0 only when every check passed, 1 when a check failed and 2
when the checkout holds no graph_calculus sources or the run could not finish.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_rounds, load_oracle  # noqa: E402
from spans import check_cell_accounting, layer_metrics, span_tree  # noqa: E402
from workloads import WORKLOADS, input_seed  # noqa: E402

SETUP_SAMPLES = 5
# p90 needs at least ten samples beyond it
P90_MIN_CELLS = 100
# a whole run, set-up included, must end well inside 180 s
TIME_LIMIT_S = 170.0

SETUP_SNIPPET = (
    "import sys\n"
    "from graph_calculus.cli import main\n"
    "sys.exit(main(['list-manifolds']))\n"
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["GRAPH_CALCULUS_LOG"] = "quiet"
    return env


def measure_setup(root: Path, env: dict) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=60,
        )
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0 or not json.loads(proc.stdout):
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
    return samples


def code_identity(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    rev = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        rev = proc.stdout.strip() or None
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def phase_cells(name: str, rounds) -> tuple[list[list[float]], list[float]]:
    """Wall times (ms) of each round's completed cells, and each round's wall seconds."""
    if WORKLOADS[name]["kind"] == "degree":
        cell_ms = [[c["ms"] for c in r["cells"] if "error" not in c] for r in rounds]
    else:
        cell_ms = [r["cell_ms"] for r in rounds]
    return cell_ms, [r["wall_s"] for r in rounds]


# Rates and per-cell times are medians over rounds, so one round slowed by a
# neighbour moves them little. Every round holds the same cells, so a round's
# median cell time is steady, where the median over all cells of a run sits on
# the edge between two cell groups (N, epsilon, manifold) and jumps with noise.
def cells_per_s(cell_ms, walls) -> float:
    return statistics.median(len(c) / w for c, w in zip(cell_ms, walls))


def cell_ms_p50(cell_ms) -> float:
    return statistics.median(statistics.median(c) for c in cell_ms if c)


def end_to_end(name: str, child: dict, setup: list[float]) -> dict:
    cell_ms, walls = phase_cells(name, child["untraced"])
    return {
        "cells_per_s": cells_per_s(cell_ms, walls),
        "cell_ms_p50": cell_ms_p50(cell_ms),
        "peak_rss_mb": child["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "graph_calculus" / "cli.py").is_file():
        return fail(f"no graph_calculus sources under {root / 'src'}; run from a repository checkout")
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    config = json.loads((root / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    if str(input_seed(args.seed)) not in reference["workloads"].get(args.workload, {}):
        return fail(f"reference.json has no {args.workload} cells for input seed {input_seed(args.seed)}")
    oracle = load_oracle(root)

    out_root = root / ".perfbench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out_root / f"work-{tag}-{os.getpid()}"
    child_out = workdir / "child.json"
    env = child_env(root)
    try:
        setup = measure_setup(root, env)
        budget = TIME_LIMIT_S - (time.perf_counter() - started)
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "workloads.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--workdir", str(workdir),
                "--out", str(child_out),
            ],
            cwd=root,
            env=env,
            timeout=budget,
        )
        if proc.returncode != 0:
            return fail(f"workload process exited with {proc.returncode}")
        child = json.loads(child_out.read_text())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = check_rounds(args.workload, args.seed, child["untraced"], reference, oracle)
    if args.trace:
        traced = check_rounds(args.workload, args.seed, child["traced"], reference, oracle)
        checks = {"untraced": checks, "traced": traced}
        attempted = checks["untraced"]["attempted"] + traced["attempted"]
        failed = checks["untraced"]["failed"] + traced["failed"]
    else:
        attempted, failed = checks["attempted"], checks["failed"]

    e2e = end_to_end(args.workload, child, setup)
    layer_map = json.loads((HERE / "layers.json").read_text())["metrics"]
    # cell_ms_p50 is reported but not gated: in the K=nproc pool its run-to-run
    # spread (up to 0.24 on a 2-vCPU host whose speed drifts) nears any bound,
    # and with K=1 and identical rounds it only restates cells_per_s.
    units = {"cell_ms_p50": "ms"}
    units.update({m["name"]: m["unit"] for m in layer_map + config["end_to_end"] + config["per_layer"]})
    metrics = {m["name"]: e2e[m["name"]] for m in config["end_to_end"]}
    cell_ms, walls = phase_cells(args.workload, child["untraced"])
    all_ms = [ms for r in cell_ms for ms in r]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": input_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "env": dict(child["env"], **code_identity(root)),
        "cells": len(all_ms),
        "round_wall_s": walls,
        "cell_ms_p90": (
            statistics.quantiles(all_ms, n=10, method="inclusive")[-1]
            if len(all_ms) >= P90_MIN_CELLS
            else None
        ),
        "setup_samples_s": setup,
        "end_to_end": e2e,
        "checks": checks,
    }

    if args.trace:
        spans = child["spans"]
        layers = layer_metrics(spans, child["memory_spans"])
        traced_ms, traced_walls = phase_cells(args.workload, child["traced"])
        layers["trace.cells_per_s_ratio"] = cells_per_s(traced_ms, traced_walls) / e2e["cells_per_s"]
        problems = check_cell_accounting(spans)
        failed += len(problems)
        report.update(layers=layers, span_tree=span_tree(spans), accounting_problems=problems)
        missing = [m["name"] for m in config["per_layer"] if layers.get(m["name"]) is None]
        if missing:
            return fail(f"no spans for per-layer metric(s) {', '.join(missing)}")
        metrics = {m["name"]: layers[m["name"]] for m in config["per_layer"]}
        out_root.mkdir(exist_ok=True)
        (out_root / f"trace-{tag}.json").write_text(
            json.dumps({"spans": spans, "memory_spans": child["memory_spans"]})
        )

    report.update(cells_attempted=attempted, failed=failed, error_rate=failed / attempted)
    correct = failed == 0
    out_root.mkdir(exist_ok=True)
    (out_root / f"result-{tag}.json").write_text(json.dumps(report, indent=2, default=str))
    print_report(report, units, config)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(report: dict, units: dict, config: dict) -> None:
    print(
        f"workload {report['workload']}  seed {report['seed']} (input seed "
        f"{report['input_seed']})  K={report['env']['parallelism']}  trace={report['trace']}"
    )
    for name, value in report["end_to_end"].items():
        print(f"  {name:<34} {_fmt(value):>14} {units[name]}")
    p90 = report["cell_ms_p90"]
    print(
        f"  {'cell_ms_p90':<34} {_fmt(p90):>14} ms"
        + ("" if p90 is not None else f"   (needs >= {P90_MIN_CELLS} cells)")
        + f"   over {report['cells']} cells"
    )
    print(f"  {'error_rate':<34} {_fmt(report['error_rate']):>14}   of {report['cells_attempted']} cells")
    if "layers" in report:
        per_layer = {m["name"] for m in config["per_layer"]}
        for name, value in report["layers"].items():
            mark = "*" if name in per_layer else " "
            print(f" {mark}{name:<42} {_fmt(value):>14} {units.get(name, '')}")
        print("  span tree (name, calls, parents, median ms):")
        for row in report["span_tree"]:
            print(f"    {row['name']:<34} {row['calls']:>6}  {','.join(row['parents']):<28} {_fmt(row['median_ms'])}")
        print(f"  cell accounting problems: {len(report['accounting_problems'])}")
    print(f"  checks: {json.dumps(report['checks'])}")
    print(f"  env: {json.dumps(report['env'])}")


if __name__ == "__main__":
    sys.exit(main())
