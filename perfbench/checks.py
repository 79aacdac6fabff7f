"""Output checks: reference table, quadrature oracle, byte determinism.

Every check counts cells: a cell fails when it raised, when it is missing from
results.csv, when one of its statistics is off the reference table recorded
for its input seed, when (degree_ensemble) its mean degree ratio is off the
closed form, or when its round's results.csv differs from the first round's
(the same spec must give byte-identical output on every repeat).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

from workloads import (
    ORACLE_ATOL,
    ORACLE_FILE,
    ORACLE_KEY,
    REFERENCE_ATOL,
    REFERENCE_RTOL,
    WORKLOADS,
    cells_per_round,
    input_seed,
)

RUN_KEYS = ("manifold", "function", "N", "epsilon", "seed", "mode")
RUN_STATS = (
    "err_abs_median",
    "err_abs_mean",
    "err_abs_max",
    "err_rel_median",
    "degree_ratio_mean",
    "degree_ratio_dev",
)
DEGREE_STATS = ("ratio_mean", "ratio_dev", "residual_mean", "residual_dev")


def _close(value: float, expected: float) -> bool:
    return math.isclose(value, expected, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL)


def run_reference_rows(results_csv: str) -> list[list]:
    """results.csv rows in the reference table's layout: key fields, then stats."""
    return [
        [row[k] for k in RUN_KEYS] + [float(row[s]) for s in RUN_STATS]
        for row in csv.DictReader(io.StringIO(results_csv))
    ]


def degree_reference_rows(records) -> list[list]:
    return [[r["manifold"], r["seed"]] + [r[s] for s in DEGREE_STATS] for r in records]


def check_run_rounds(name: str, rounds, reference) -> dict:
    expected = {tuple(row[: len(RUN_KEYS)]): row[len(RUN_KEYS) :] for row in reference}
    per_round = cells_per_round(name)
    attempted = failed = mismatched = missing = 0
    digests = []
    for rnd in rounds:
        attempted += per_round
        digest = hashlib.sha256(rnd["results_csv"].encode()).hexdigest()
        digests.append(digest)
        if rnd["exit_code"] not in (0, 2):
            failed += per_round
            continue
        rows = run_reference_rows(rnd["results_csv"])
        bad = 0
        for row in rows:
            ref = expected.get(tuple(row[: len(RUN_KEYS)]))
            if ref is None or not all(map(_close, row[len(RUN_KEYS) :], ref)):
                bad += 1
        mismatched += bad
        missing += per_round - len(rows)
        if digest != digests[0]:
            failed += per_round
        else:
            failed += bad + per_round - len(rows)
    return {
        "attempted": attempted,
        "failed": failed,
        "reference_mismatches": mismatched,
        "missing_or_failed_cells": missing,
        "distinct_results_sha256": sorted(set(digests)),
        "deterministic": len(set(digests)) <= 1,
    }


def check_degree_rounds(rounds, reference, oracle) -> dict:
    forms = oracle[ORACLE_KEY]
    attempted = failed = mismatched = off_oracle = errors = 0
    worst_oracle = 0.0
    for rnd in rounds:
        for rec in rnd["cells"]:
            attempted += 1
            if "error" in rec:
                errors += 1
                failed += 1
                continue
            ref = reference[rec["cell"]]
            same = ref[:2] == [rec["manifold"], rec["seed"]] and all(
                _close(rec[s], r) for s, r in zip(DEGREE_STATS, ref[2:])
            )
            gap = abs(rec["ratio_mean"] - forms[rec["manifold"]]["mean_ratio"])
            worst_oracle = max(worst_oracle, gap)
            mismatched += not same
            off_oracle += gap > ORACLE_ATOL
            failed += (not same) or gap > ORACLE_ATOL
    return {
        "attempted": attempted,
        "failed": failed,
        "cell_errors": errors,
        "reference_mismatches": mismatched,
        "oracle_misses": off_oracle,
        "worst_oracle_gap": worst_oracle,
        "oracle_tolerance": ORACLE_ATOL,
    }


def check_rounds(name: str, seed: int, rounds, reference_table, oracle) -> dict:
    reference = reference_table["workloads"][name][str(input_seed(seed))]
    if WORKLOADS[name]["kind"] == "degree":
        return check_degree_rounds(rounds, reference, oracle)
    return check_run_rounds(name, rounds, reference)


def load_oracle(root) -> dict:
    with open(root / ORACLE_FILE, encoding="utf-8") as fh:
        return json.load(fh)
