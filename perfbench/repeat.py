"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/repeat.py [--workloads A,B] [--seeds 0-9] [--seconds 20]
        [--trace 0|1] [--out summary.json] [--compare earlier-summary.json]

Runs perfbench/run.py once per (workload, seed), sequentially, from the
current directory (a repository checkout). For every metric it reports the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, and flags an end-to-end metric whose spread exceeds a
third of its BENCHMARK.json bound. With --compare it also reports how far
each median moved from an earlier summary, as a share of that median, in the
metric's worse direction. Exits 1 if any run failed or was incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    config = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)

    metrics = config["per_layer"] if args.trace else config["end_to_end"]
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None
    summary = {"seeds": _seeds(args.seeds), "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in summary["seeds"]:
            res = run_one(workload, seed, args.seconds, args.trace)
            if "error" in res or not res["correct"]:
                ok = False
                print(f"{workload} seed {seed}: {res.get('error', 'incorrect output')}", file=sys.stderr)
                continue
            results.append(res)
            if "env" not in summary:
                tag = f"{workload}-seed{seed}-trace{args.trace}"
                report = json.loads(Path(f".perfbench_out/result-{tag}.json").read_text())
                summary["env"] = report["env"]
        row = summary["workloads"][workload] = {
            "runs": len(results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            if len(values) < 2:
                continue
            stats = row["metrics"][m["name"]] = dict(spread(values), unit=m["unit"])
            note = ""
            if "bound" in m and stats["spread"] > m["bound"] / 3:
                note = f"  spread above bound/3 = {m['bound'] / 3:.3f}"
            if earlier and m["name"] in earlier["workloads"].get(workload, {}).get("metrics", {}):
                before = earlier["workloads"][workload]["metrics"][m["name"]]["median"]
                worse = (stats["median"] - before) / before
                if m["better"] == "higher":
                    worse = -worse
                stats["worse_than_compare"] = worse
                note += f"  worse by {worse:+.3f} vs compare"
                if "bound" in m and worse > m["bound"]:
                    note += " (beyond bound)"
            print(
                f"{workload:<22} {m['name']:<34} median {stats['median']:.6g} {m['unit']:<7} "
                f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f}{note}"
            )
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
