"""Workload definitions and the closed-loop workload process.

Imported by run.py for the definitions (this module imports nothing heavy at
load time), and started by run.py as a fresh child process that runs one
workload:

    PYTHONPATH=src python3 perfbench/workloads.py --workload NAME --seed N \
        --seconds S --trace 0|1 --workdir DIR --out RESULT.json

The child imports graph_calculus from the checkout's src/, runs the workload
as a single-client closed loop (the next round starts when the previous one
has returned) until the time is up, and writes every round's raw outputs to
RESULT.json. The parent checks and summarizes them, so the child's peak RSS
is that of the workload alone.

With --trace 1 one discarded warm-up round runs first, then the time is split
in two halves: an untraced phase, then a phase with spans.Tracer installed;
the ratio of their cells/s is the tracing overhead. One more round then runs
under tracemalloc for allocation peaks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# Reference values are recorded for this many input seeds; the benchmark's
# --seed is folded onto them, so every run is checked against the table.
# Input seed 15 (--seed 15, 31, ...) is reserved: leave it unused while
# developing a change and validate the change's claim on it.
REFERENCE_SEEDS = 16

# Relative tolerance of the reference comparison: admits ~1e-15 changes in
# the distance arithmetic (amplified by 2/eps and by the cancellation in the
# Laplacian) but no change in the method.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12
# Acceptance-suite tolerance on the mean degree ratio against the quadrature
# closed forms in tests/fixtures/oracle_values.json.
ORACLE_ATOL = 1.5e-3

ORACLE_FILE = Path("tests/fixtures/oracle_values.json")
ORACLE_KEY = "degree_closed_forms_20000_0.05"

# circle_seed_ensemble runs one pool thread per usable CPU, capped so a large
# host does not get a pool far wider than the 120 cells of a round can use.
MAX_POOL = 8

WORKLOADS = {
    "sphere_sparse_sweep": {
        "kind": "run",
        "spec": {
            "manifold": "sphere",
            "function": "coord_z",
            "N_list": [8000],
            "epsilon_list": [0.01, 0.02],
            "trials": 1,
            "mode": "sparse",
            "tau": 1e-8,
        },
        "parallelism": 1,
    },
    "degree_ensemble": {
        "kind": "degree",
        "manifolds": ("sphere", "circle"),
        "n": 20000,
        "epsilon": 0.05,
        "tau": 1e-8,
        "seeds_per_manifold": 4,
        "parallelism": 1,
    },
    "circle_seed_ensemble": {
        "kind": "run",
        "spec": {
            "manifold": "circle",
            "function": "sin_theta",
            "N_list": [500, 1000, 2000],
            "epsilon_list": [0.005],
            "trials": 40,
            "sampling": "random",
        },
        "parallelism": "nproc",
    },
}


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def parallelism(name: str) -> int:
    k = WORKLOADS[name]["parallelism"]
    if k == "nproc":
        return max(1, min(len(os.sched_getaffinity(0)), MAX_POOL))
    return k


def run_spec(name: str, seed: int) -> dict:
    return dict(WORKLOADS[name]["spec"], master_seed=input_seed(seed))


def cells_per_round(name: str) -> int:
    w = WORKLOADS[name]
    if w["kind"] == "degree":
        return len(w["manifolds"])
    s = w["spec"]
    return len(s["N_list"]) * len(s["epsilon_list"]) * s["trials"]


def degree_cells(seed: int) -> list[tuple[str, int]]:
    """The fixed cycle of (manifold, cloud seed) cells of degree_ensemble."""
    w = WORKLOADS["degree_ensemble"]
    cells = []
    for j in range(w["seeds_per_manifold"]):
        digest = hashlib.sha256(f"degree_ensemble/{input_seed(seed)}/{j}".encode()).digest()
        cloud_seed = int.from_bytes(digest[:4], "little")
        cells += [(m, cloud_seed) for m in w["manifolds"]]
    return cells


# ----------------------------------------------------------------------
# child process


def _run_rounds(name, seed, seconds, workdir: Path, tracer, phase):
    """graph-calculus run on the workload's spec, repeated until time is up."""
    from graph_calculus import cli

    config = workdir / "spec.json"
    config.write_text(json.dumps(run_spec(name, seed)))
    argv_tail = ["--parallelism", str(parallelism(name))]
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        out = workdir / f"{phase}-{len(rounds)}"
        span = tracer.span("cli.run") if tracer else nullcontext()
        start = time.perf_counter()
        with span:
            code = cli.main(["run", "--config", str(config), "--out", str(out)] + argv_tail)
        wall = time.perf_counter() - start
        summary = json.loads((out / "summary.json").read_text())
        rounds.append(
            {
                "exit_code": code,
                "wall_s": wall,
                "results_csv": (out / "results.csv").read_text(),
                "cell_ms": [c["wall_ms"] for c in summary["cells"]],
            }
        )
        shutil.rmtree(out)
        if time.perf_counter() >= deadline:
            return rounds


def _degree_rounds(seed, seconds, tracer):
    """degree_check over the fixed (manifold, seed) cycle, one manifold pair per round."""
    from graph_calculus import convergence

    w = WORKLOADS["degree_ensemble"]
    cells = degree_cells(seed)
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        first = (len(rounds) * len(w["manifolds"])) % len(cells)
        span = tracer.span("bench.ensemble", parallelism=1) if tracer else nullcontext()
        records = []
        start = time.perf_counter()
        with span:
            for index in range(first, first + len(w["manifolds"])):
                manifold, cloud_seed = cells[index]
                cell_start = time.perf_counter()
                rec = {"cell": index, "manifold": manifold, "seed": cloud_seed}
                try:
                    # looked up on the module at call time, so tracing sees it
                    res = convergence.degree_check(
                        manifold, w["n"], w["epsilon"], seed=cloud_seed, tau=w["tau"]
                    )
                except (ValueError, ArithmeticError, MemoryError) as exc:
                    rec["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    rec.update(
                        ratio_mean=res.stats.ratio_mean,
                        ratio_dev=res.stats.ratio_dev,
                        residual_mean=res.stats.residual_mean,
                        residual_dev=res.stats.residual_dev,
                    )
                rec["ms"] = (time.perf_counter() - cell_start) * 1000.0
                records.append(rec)
        rounds.append({"wall_s": time.perf_counter() - start, "cells": records})
        if time.perf_counter() >= deadline:
            return rounds


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy has loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(name: str) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "parallelism": parallelism(name),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_phase(name, seed, seconds, workdir: Path, tracer=None, phase="main"):
    if WORKLOADS[name]["kind"] == "degree":
        return _degree_rounds(seed, seconds, tracer)
    return _run_rounds(name, seed, seconds, workdir, tracer, phase)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    result = {"workload": args.workload, "seed": args.seed, "env": environment(args.workload)}
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    if args.trace:
        # a discarded round first, so that neither half pays the process's
        # first-round costs (page faults on fresh heap, BLAS thread start)
        run_phase(args.workload, args.seed, 0.0, workdir, phase="warmup")
    result["untraced"] = run_phase(args.workload, args.seed, seconds, workdir, phase="untraced")
    # ru_maxrss is in KiB on Linux; read before tracing adds its own memory
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        import tracemalloc

        from spans import Tracer, instrument

        tracer = Tracer()
        with instrument(tracer):
            result["traced"] = run_phase(
                args.workload, args.seed, seconds, workdir, tracer, phase="traced"
            )
        # Allocation peaks come from one more round under tracemalloc, which
        # slows the numpy-heavy passes by up to half and would skew the timings.
        memory = Tracer()
        tracemalloc.start()
        try:
            with instrument(memory):
                run_phase(args.workload, args.seed, 0.0, workdir, memory, phase="memory")
        finally:
            tracemalloc.stop()
        result["spans"] = tracer.spans
        result["memory_spans"] = memory.spans
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
