"""Record the reference table the benchmark checks every cell against.

Runs each workload's fixed cell set once per input seed (0 .. REFERENCE_SEEDS-1)
and stores every cell's error and degree statistics, to 12 significant digits,
in perfbench/reference.json. Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py [--workloads A,B] [--seeds 0-15]

Entries for other workloads and seeds already in the file are kept. A change
that alters results beyond the benchmark's tolerance must say so before the
table is recorded again.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from checks import degree_reference_rows, run_reference_rows
from workloads import REFERENCE_SEEDS, WORKLOADS, degree_cells, run_phase

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _round12(row):
    return [float(f"{v:.12g}") if isinstance(v, float) else v for v in row]


def record(name: str, seed: int, workdir: Path) -> list[list]:
    if WORKLOADS[name]["kind"] == "degree":
        from graph_calculus import convergence

        w = WORKLOADS[name]
        records = []
        for manifold, cloud_seed in degree_cells(seed):
            res = convergence.degree_check(manifold, w["n"], w["epsilon"], seed=cloud_seed, tau=w["tau"])
            records.append(
                {
                    "manifold": manifold,
                    "seed": cloud_seed,
                    "ratio_mean": res.stats.ratio_mean,
                    "ratio_dev": res.stats.ratio_dev,
                    "residual_mean": res.stats.residual_mean,
                    "residual_dev": res.stats.residual_dev,
                }
            )
        rows = degree_reference_rows(records)
    else:
        (rnd,) = run_phase(name, seed, 0.0, workdir)
        if rnd["exit_code"] != 0:
            raise SystemExit(f"{name} seed {seed}: graph-calculus run exited {rnd['exit_code']}")
        rows = run_reference_rows(rnd["results_csv"])
    return [_round12(r) for r in rows]


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default=f"0-{REFERENCE_SEEDS - 1}")
    args = parser.parse_args(argv)
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"workloads": {}}
    with tempfile.TemporaryDirectory(prefix="perfbench-ref-", dir=".") as tmp:
        for name in args.workloads.split(","):
            for seed in _seed_range(args.seeds):
                rows = record(name, seed, Path(tmp))
                table["workloads"].setdefault(name, {})[str(seed)] = rows
                print(f"{name} seed {seed}: {len(rows)} cells", file=sys.stderr, flush=True)
                REFERENCE.write_text(json.dumps(table, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
