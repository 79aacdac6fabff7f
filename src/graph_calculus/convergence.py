"""Convergence lab: estimator error sweeps and degree-asymptotics checks.

The estimator under study is (2 / epsilon) * Delta f, where Delta is the
normalized graph Laplacian of a Gaussian-kernel graph built on points
sampled from a manifold. As the sampling densifies and epsilon shrinks it
approaches the Laplace-Beltrami image of f; the lab measures the error
against the closed-form image, splitting the kernel-bandwidth bias (grid
sampling, noise free) from the Monte Carlo fluctuation (seed ensembles).

Error statistics are reported raw (median/mean/max of |error|) plus a
relative median, normalized by max |Delta_M f| over the cloud rather than
pointwise (pointwise division blows up at zeros of the target).

Every cell of a sweep derives its RNG seed from (master_seed, N value,
epsilon bits, trial index), so results are independent of execution order,
parallelism, and the ordering of the sweep lists.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
import warnings
from collections import deque
from dataclasses import MISSING, dataclass, fields
from typing import Sequence

import numpy as np

from .csvio import output_key, record_dict
from .graph_core import KernelConfig, PointCloud, _check_degrees, check_real
from .graph_core import degrees_from_cloud, laplacian_from_cloud
from .manifolds import (
    SAMPLINGS,
    ManifoldDescriptor,
    check_integer,
    eval_pair,
    get_function,
    get_manifold,
    grid_sample,
    sample,
)

__all__ = [
    "ExperimentSpec",
    "CellResult",
    "CellFailure",
    "SweepResult",
    "LemmaCheckResult",
    "DegreeCheckResult",
    "DegreeStats",
    "RateFit",
    "derive_cell_seed",
    "lemma_check",
    "degree_check",
    "sweep",
    "fit_rate_xy",
    "grouped_rate_fits",
    "classify_regime",
]

log = logging.getLogger("graph_calculus.convergence")

_FROM_TAU = object()  # mode's default, replaced by the mode tau picks; None would let "mode": null in

# Default truncation threshold for sparse sweeps: its cut radius is sqrt(-2 ln 1e-8 eps) = 6.07 sqrt(eps),
# and the weights past it moved an estimate by at most 6.7e-7 on the circle, sphere and torus cells tried.
DEFAULT_TAU = 1e-8


# ----------------------------------------------------------------------
# experiment specification


def _check_choice(name: str, value: str, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _entries(value, key: str, check) -> tuple:
    """A spec list as a tuple of its entries, each run through check(entry, its name)."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} has the wrong type: {value!r}")
    if not value:
        raise ValueError(f"{key} must be non-empty")
    entries = tuple(check(v, f"{key} entry") for v in value)
    if len(set(entries)) < len(entries):  # a repeat would run the same seeded cell twice
        raise ValueError(f"{key} repeats a value: {list(entries)}")
    return entries


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative sweep over (N, epsilon, trial seeds) for one manifold/function.

    tau alone picks the pass, exact dense at 0 or truncated sparse above; a given mode must agree."""

    manifold: str
    function: str
    n_list: tuple
    epsilon_list: tuple
    trials: int
    master_seed: int
    mode: str = _FROM_TAU
    tau: float = 0.0
    sampling: str = "random"

    def __post_init__(self):
        get_function(self.manifold, self.function)  # raises with the list of valid ids
        _check_choice("sampling", self.sampling, SAMPLINGS)
        def n_points(n, name):  # a grid spec's N is the size of the grid it names
            n = check_integer(n, name, 2)
            return get_manifold(self.manifold).grid_size(n) if self.sampling == "grid" else n
        for field, value in (
            ("n_list", _entries(self.n_list, "N_list", n_points)),
            ("epsilon_list", _entries(self.epsilon_list, "epsilon_list", check_real)),
            ("trials", check_integer(self.trials, "trials", 1)),
            ("master_seed", check_integer(self.master_seed, "master_seed")),
            ("tau", check_real(self.tau, "tau")),
        ):
            object.__setattr__(self, field, value)
        for e in self.epsilon_list:
            KernelConfig(epsilon=e, truncation_tau=self.tau)  # raises on a bad epsilon or tau
        mode = "sparse" if self.tau > 0.0 else "dense"  # KernelConfig has checked tau's range [0, 1)
        if self.mode is not _FROM_TAU and self.mode != mode:
            raise ValueError(
                f"mode {self.mode!r} disagrees with tau {self.tau!r}: tau picks the mode, "
                "dense (tau must be 0) or sparse (0 < tau < 1)"
            )
        object.__setattr__(self, "mode", mode)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        if not isinstance(payload, dict):
            raise ValueError("experiment spec must be a JSON object")
        known = {output_key(f.name): f for f in fields(cls)}
        unknown = set(payload) - set(known)
        if unknown:
            raise ValueError(f"unknown spec fields: {', '.join(sorted(unknown))}")
        missing = {key for key, f in known.items() if f.default is MISSING} - set(payload)
        if missing:
            raise ValueError(f"missing spec fields: {', '.join(sorted(missing))}")
        values = {f.name: payload[key] for key, f in known.items() if key in payload}
        if values.get("mode") == "sparse":
            values.setdefault("tau", DEFAULT_TAU)
        return cls(**values)

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        objects = []  # each JSON object's (key, value) pairs; the top-level object closes last
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh, object_pairs_hook=lambda pairs: objects.append(pairs) or dict(pairs))
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid JSON in {path}: {exc}") from exc
        seen = set()  # dict() keeps a repeated key's last value; a spec refuses a field given twice
        for key, _ in objects[-1] if isinstance(payload, dict) else ():
            if key in seen:
                raise ValueError(f"spec field {key} appears twice")
            seen.add(key)
        return cls.from_dict(payload)

    def to_dict(self) -> dict:
        return record_dict(self)


def derive_cell_seed(master_seed: int, n: int, epsilon: float, trial: int) -> int:
    """Per-cell seed from (master_seed, N value, epsilon bits, trial index).

    Value-based (not list-index-based) so permuting the sweep lists leaves
    every cell's numbers unchanged, and independent of execution order.
    """
    master_seed, trial = check_integer(master_seed, "master_seed"), check_integer(trial, "trial")
    eps_bits = int(np.float64(check_real(epsilon, "epsilon")).view(np.uint64))
    ss = np.random.SeedSequence([master_seed, check_integer(n, "N", 2), eps_bits, trial])
    return int(ss.generate_state(1, np.uint64)[0])


# ----------------------------------------------------------------------
# regime classification


def classify_regime(m_dim: int, volume: float, n: int, epsilon: float, sampling: str) -> str:
    """Order-of-magnitude label for which error source dominates a cell.

    Compares the kernel-bandwidth bias scale (epsilon / 4), the self-loop
    share vol / ((N-1) (2 pi eps)^{m/2}), and the sampling-fluctuation scale
    eps^{-(m+2)/4} / sqrt(N). Grid sampling has no fluctuation, and its
    self-term is an ordinary quadrature node, so the floor only bites once
    the kernel is too narrow to span neighboring grid nodes.
    """
    floor_share = volume / ((n - 1) * (2.0 * np.pi * epsilon) ** (m_dim / 2.0))
    bias_scale = epsilon / 4.0
    if sampling == "grid":
        return "self_loop_floor" if floor_share > 0.5 else "bias"
    noise_scale = epsilon ** (-(m_dim + 2) / 4.0) / math.sqrt(n)
    scales = {
        "bias": bias_scale,
        "self_loop_floor": floor_share,
        "sampling_noise": noise_scale,
    }
    return max(scales, key=scales.get)


# ----------------------------------------------------------------------
# single-cell checks


@dataclass(frozen=True)
class DegreeStats:
    """Vertexwise statistics of r(u) = d(u) vol / ((N-1) (2 pi eps)^{m/2})."""

    ratio_mean: float
    ratio_dev: float
    residual_mean: float  # mean of r(u) - (1 + eps S(u) / 6)
    residual_dev: float
    prediction_mean: float  # mean of 1 + eps S(u) / 6
    self_loop_share: float


@dataclass(frozen=True)
class DegreeCheckResult:
    manifold: str
    n: int  # actual cloud size (torus grids round up to a square)
    epsilon: float
    seed: int
    sampling: str
    stats: DegreeStats
    regime: str
    low_neighbor_warning: bool


@dataclass(frozen=True)
class LemmaCheckResult:
    """The estimate over one cloud; cell is degree_check's record of that cloud."""

    cell: DegreeCheckResult
    estimate: np.ndarray
    reference: np.ndarray
    degrees: np.ndarray
    err_abs_median: float
    err_abs_mean: float
    err_abs_max: float
    err_rel_median: float


def _degree_stats(d: np.ndarray, m: ManifoldDescriptor, points: np.ndarray, epsilon: float):
    n = d.size
    norm = (n - 1) * (2.0 * np.pi * epsilon) ** (m.intrinsic_dim / 2.0)
    ratio = d * (m.volume / norm)
    prediction = 1.0 + epsilon * m.scalar_curvature(points) / 6.0
    residual = ratio - prediction
    return DegreeStats(
        ratio_mean=float(ratio.mean()),
        ratio_dev=float(ratio.std()),
        residual_mean=float(residual.mean()),
        residual_dev=float(residual.std()),
        prediction_mean=float(prediction.mean()),
        self_loop_share=float(m.volume / norm),
    )


def _degree_cell(manifold, n: int, epsilon: float, seed: int, sampling: str, tau: float, pin_anchor: bool):
    """The first half of every cell: its kernel, cloud, degrees and DegreeCheckResult.

    Every step after the input checks computes with kernel.epsilon and the
    checked seed. Warns (pointing at the caller of the public check) when
    the kernel sees fewer than one neighbor on average.
    """
    kernel = KernelConfig(epsilon=epsilon, truncation_tau=tau)
    m = get_manifold(manifold)
    _check_choice("sampling", sampling, SAMPLINGS)
    seed = check_integer(seed, "seed")  # a grid cell draws nothing, yet degree_check reports its seed
    if sampling == "grid":
        cloud = grid_sample(m, n)
    else:
        cloud = sample(m, n, seed)
    if pin_anchor:
        pts = cloud.points.copy()
        pts[0] = m.anchor
        cloud = PointCloud(points=pts)
    n_points = cloud.n_points
    expected = (2.0 * np.pi * kernel.epsilon) ** (m.intrinsic_dim / 2.0) * n_points / m.volume
    warned = bool(expected < 1.0)
    if warned:
        warnings.warn(
            f"kernel sees too few neighbors on {m.name}: "
            f"(2 pi eps)^(m/2) N / vol = {expected:.3g} < 1",
            stacklevel=3,
        )
    d = _check_degrees(degrees_from_cloud(cloud, kernel), n_points)
    return kernel, cloud, d, DegreeCheckResult(
        manifold=m.name,
        n=n_points,
        epsilon=kernel.epsilon,
        seed=seed,
        sampling=sampling,
        stats=_degree_stats(d, m, cloud.points, kernel.epsilon),
        regime=classify_regime(m.intrinsic_dim, m.volume, n_points, kernel.epsilon, sampling),
        low_neighbor_warning=warned,
    )


def lemma_check(
    manifold,
    fn_id: str,
    n: int,
    epsilon: float,
    seed: int = 0,
    tau: float = 0.0,
    sampling: str = "random",
    pin_anchor: bool = False,
) -> LemmaCheckResult:
    """Compare the estimator (2/eps) Delta f against the closed-form target.

    Runs degree_check's cell, then one W g pass. The cell samples a cloud
    (random by seed, or the deterministic grid), and the pass applies the
    normalized Laplacian without storing W. tau alone selects the pass:
    tau == 0 keeps every kernel weight (exact), and 0 < tau < 1 drops the
    weights below tau (truncated), as in degree_check. One kernel pass
    gives the degrees d = W 1, a second W (f / sqrt d), so a cell holds one
    kernel block rather than W's nnz. Both passes run one pass plan, which the
    first builds and keeps on the cloud (order, tile classes and trimmed
    columns), so the second neither orders nor trims. Returns the per-vertex
    estimate and reference, error summary statistics, and, as cell,
    degree_check's record of the same cloud.
    pin_anchor replaces point 0 with the manifold's canonical anchor so
    across-seed spread can be measured at a fixed location.
    """
    get_function(manifold, fn_id)  # raises with the list of valid ids, before any sampling or pass
    kernel, cloud, d, cell = _degree_cell(manifold, n, epsilon, seed, sampling, tau, pin_anchor)
    f, reference = eval_pair(manifold, fn_id, cloud)
    estimate = (2.0 / kernel.epsilon) * laplacian_from_cloud(cloud, kernel, f, d)
    abs_err = np.abs(estimate - reference)
    median = float(np.median(abs_err))
    normalizer = float(np.abs(reference).max())
    if normalizer == 0.0:
        normalizer = 1.0  # relative error degrades to absolute for zero targets
    return LemmaCheckResult(
        cell=cell,
        estimate=estimate,
        reference=reference,
        degrees=d,
        err_abs_median=median,
        err_abs_mean=float(abs_err.mean()),
        err_abs_max=float(abs_err.max()),
        err_rel_median=median / normalizer,
    )


def degree_check(
    manifold,
    n: int,
    epsilon: float,
    seed: int = 0,
    sampling: str = "random",
    tau: float = 0.0,
) -> DegreeCheckResult:
    """Degree-asymptotics check, matrix-free (degrees only, no stored W).

    Computes r(u) = d(u) vol / ((N-1) (2 pi eps)^{m/2}) and its residual
    against the curvature prediction 1 + eps S(u) / 6, plus the self-loop
    share vol / ((N-1) (2 pi eps)^{m/2}) that dominates r when epsilon is
    too small for the given N. That regime is reported, not hidden.
    """
    return _degree_cell(manifold, n, epsilon, seed, sampling, tau, pin_anchor=False)[-1]


# ----------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class CellResult:
    manifold: str
    function: str
    n: int
    epsilon: float
    seed: int
    mode: str
    err_abs_median: float
    err_abs_mean: float
    err_abs_max: float
    err_rel_median: float
    degree_ratio_mean: float  # mean of r(u) - (1 + eps S(u) / 6)
    degree_ratio_dev: float
    wall_ms: float
    trial: int
    regime: str


@dataclass(frozen=True)
class CellFailure:
    n: int
    epsilon: float
    trial: int
    seed: int
    kind: str  # "resource" (out of memory) or "numerical"
    message: str


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    failures: tuple
    pool_width: int  # workers: the calling process and pool_width - 1 helper processes


def _cell_failure(n: int, epsilon: float, trial: int, seed: int, kind: str, message: str):
    log.warning("cell N=%d eps=%g trial=%d failed (%s): %s", n, epsilon, trial, kind, message)
    return CellFailure(n=n, epsilon=epsilon, trial=trial, seed=seed, kind=kind, message=message)


def _run_cell(spec: ExperimentSpec, n: int, epsilon: float, trial: int, seed: int):
    start = time.perf_counter()
    try:
        res = lemma_check(
            spec.manifold, spec.function, n, epsilon, seed=seed, tau=spec.tau, sampling=spec.sampling
        )
    except Exception as exc:  # recorded, remaining cells continue
        kind = "resource" if isinstance(exc, MemoryError) else "numerical"
        return _cell_failure(n, epsilon, trial, seed, kind, str(exc) or type(exc).__name__)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return CellResult(
        manifold=spec.manifold,
        function=spec.function,
        n=res.cell.n,
        epsilon=epsilon,
        seed=seed,
        mode=spec.mode,
        err_abs_median=res.err_abs_median,
        err_abs_mean=res.err_abs_mean,
        err_abs_max=res.err_abs_max,
        err_rel_median=res.err_rel_median,
        degree_ratio_mean=res.cell.stats.residual_mean,
        degree_ratio_dev=res.cell.stats.residual_dev,
        wall_ms=wall_ms,
        trial=trial,
        regime=res.cell.regime,
    )


def _usable_cpus() -> int | None:
    """CPUs this process may run on (its affinity mask where the OS has one).

    Like os.cpu_count, which is the fallback, None when unknown.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _pool_width(parallelism: int, n_jobs: int) -> int:
    """min(parallelism, n_jobs, usable CPUs) workers, and 1 without fork."""
    width = min(parallelism, n_jobs, _usable_cpus() or 1)
    return width if hasattr(os, "fork") else 1


def _helper(conn, inherited, spec: ExperimentSpec, cells: list) -> None:
    """Run the cells whose indices arrive on conn, in order, until the other end closes.

    spec and cells are this process's copies from the fork, so the caller
    sends only indices. inherited holds the copies of the caller's pipe
    ends, closed here so that each pipe ends when the caller closes its end.
    """
    for end in inherited:
        end.close()
    try:
        while True:
            conn.send(_run_cell(spec, *cells[conn.recv()]))
    except (EOFError, OSError):
        return


def _run_cells(spec: ExperimentSpec, cells: list, helpers: int) -> list:
    """Every cell's outcome, in cell order, from this process and `helpers` forked helpers.

    This process keeps each helper two cells ahead over its own pipe, then
    runs the next cell itself; with no helper it runs every cell in turn.
    A helper runs its cells in the order sent, so when one dies (say,
    killed for memory) the first cell it held is the one it died in: that
    cell is a "resource" failure, and the cells queued behind it go back to
    the other workers.
    """
    if helpers:
        # imported here, so that a serial run and the CLI's start-up never load them
        import multiprocessing
        from multiprocessing.connection import wait

        fork = multiprocessing.get_context("fork")
    outcomes = [None] * len(cells)
    todo = deque(range(len(cells)))
    live = {}  # our end of a helper's pipe -> (the helper, indices of the cells it holds)
    try:
        for _ in range(helpers):
            ours, theirs = fork.Pipe()
            inherited = [ours, *live]
            proc = fork.Process(target=_helper, args=(theirs, inherited, spec, cells), daemon=True)
            proc.start()
            theirs.close()
            live[ours] = (proc, deque())
        while todo or any(held for _, held in live.values()):
            for conn, (proc, held) in list(live.items()):
                try:
                    while held and conn.poll():
                        outcomes[held[0]] = conn.recv()  # held until received
                        held.popleft()
                    while todo and len(held) < 2:
                        conn.send(todo[0])
                        held.append(todo.popleft())
                except (EOFError, OSError):  # the helper is gone
                    del live[conn]
                    conn.close()
                    proc.join()
                    if held:
                        dead = held.popleft()
                        message = f"its helper process ended abruptly (exit code {proc.exitcode})"
                        outcomes[dead] = _cell_failure(*cells[dead], "resource", message)
                        todo.extendleft(reversed(held))
            waiting = [conn for conn, (_, held) in live.items() if held]
            if todo:
                i = todo.popleft()
                outcomes[i] = _run_cell(spec, *cells[i])
            elif waiting:
                wait(waiting)
    finally:
        for conn, (proc, held) in live.items():
            conn.close()
            if held:  # only an exception leaves a helper holding cells
                proc.terminate()
        for proc, _ in live.values():
            proc.join()
    return outcomes


def sweep(spec: ExperimentSpec, parallelism: int = 1) -> SweepResult:
    """Run every (N, epsilon, trial) cell of the spec.

    Cells are independent. They run on min(parallelism, cells, usable CPUs)
    workers, parallelism an integer >= 1: this process and one fewer forked
    helper processes, or this process alone when that width is 1 or the
    platform cannot fork. A cell's kernel products stay on the thread that
    runs it, so each worker keeps to one CPU. The result table is in spec
    order regardless of completion order, and cell seeds are derived from
    values, so the numbers are identical at any parallelism.
    """
    parallelism = check_integer(parallelism, "parallelism", 1)
    cells = [
        (n, eps, t, derive_cell_seed(spec.master_seed, n, eps, t))
        for n in spec.n_list
        for eps in spec.epsilon_list
        for t in range(spec.trials)
    ]
    log.info(
        "sweep: %s/%s, %d cells (%d N x %d eps x %d trials), mode=%s sampling=%s",
        spec.manifold, spec.function, len(cells), len(spec.n_list), len(spec.epsilon_list),
        spec.trials, spec.mode, spec.sampling,
    )
    width = _pool_width(parallelism, len(cells))
    outcomes = _run_cells(spec, cells, width - 1)
    rows = tuple(o for o in outcomes if isinstance(o, CellResult))
    failures = tuple(o for o in outcomes if isinstance(o, CellFailure))
    return SweepResult(rows=rows, failures=failures, pool_width=width)


# ----------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def fit_rate_xy(x: Sequence[float], y: Sequence[float]) -> RateFit:
    """OLS of log(y) against log(x); needs >= 3 distinct x and positive y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"x and y must be equal-length vectors, got {x.shape} and {y.shape}")
    if np.unique(x).size < 3:
        raise ValueError("rate fitting needs >= 3 distinct values on the swept axis")
    if not (x > 0).all():
        raise ValueError("swept-axis values must be positive")
    if not (y > 0).all():
        raise ValueError("responses must be positive for log-log fitting")
    lx, ly = np.log(x), np.log(y)
    # The same operations as SciPy's linregress, so the fit matches it bit
    # for bit; the checks above keep ssxm > 0.
    ssxm, ssxym, _, ssym = np.cov(lx, ly, bias=True).flat
    slope = ssxym / ssxm
    intercept = np.mean(ly) - slope * np.mean(lx)
    if ssym == 0.0:
        r = np.nan if ssxym == 0.0 else 0.0
    else:
        r = min(1.0, max(-1.0, ssxym / np.sqrt(ssxm * ssym)))
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=float(r**2))


def grouped_rate_fits(groups: Sequence, xs: Sequence[float], ys: Sequence[float]) -> list[tuple]:
    """The log-log rate fit of ys against xs within each group of rows.

    One (value, positions, fit) per distinct value of groups: numbers in
    value order, then any text; the positions of the group's rows, ordered
    by x with a stable sort; and fit_rate_xy's RateFit over those rows, or
    the ValueError it raised. Fitting in x order keeps a fit independent
    of the order the rows came in.
    """
    positions: dict = {}
    for i in sorted(range(len(groups)), key=lambda i: xs[i]):
        positions.setdefault(groups[i], []).append(i)
    out = []
    for value in sorted(positions, key=lambda v: (isinstance(v, str), v)):
        rows = positions[value]
        try:
            fit = fit_rate_xy([xs[i] for i in rows], [ys[i] for i in rows])
        except ValueError as exc:
            # without its traceback, which would tie this frame and out into a reference cycle
            fit = exc.with_traceback(None)
        out.append((value, rows, fit))
    return out
