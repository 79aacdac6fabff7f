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
import operator
import os
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph_core import KernelConfig, PointCloud, degrees_from_cloud, laplacian_from_cloud
from .manifolds import (
    ManifoldDescriptor,
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
    "sweep_rate_fits",
    "classify_regime",
]

log = logging.getLogger("graph_calculus.convergence")

_MODES = ("dense", "sparse")
_SAMPLINGS = ("random", "grid")
_STATISTICS = ("median", "mean", "max")

# Default truncation threshold for sparse sweeps. Weights this small are
# ~8 standard deviations out and contribute nothing at double precision.
DEFAULT_TAU = 1e-8


# ----------------------------------------------------------------------
# experiment specification


def _check_choice(name: str, value: str, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _check_mode(mode: str, tau: float) -> None:
    """Reject a mode and tau that do not pair: dense needs tau == 0, sparse tau > 0.

    Only the pairing is checked here; KernelConfig owns the range [0, 1) of
    tau, and every caller builds one before calling this.
    """
    _check_choice("mode", mode, _MODES)
    if mode == "dense":
        if tau != 0.0:
            raise ValueError("dense mode is exact: tau must be 0")
    elif not tau > 0.0:
        raise ValueError("sparse mode requires 0 < tau < 1")


def _number(convert, value):
    if isinstance(value, (bool, str)):  # float() would read true as 1.0, "0.5" as 0.5
        raise TypeError(f"{value!r} is not a number")
    return convert(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative sweep over (N, epsilon, trial seeds) for one manifold/function."""

    manifold: str
    function: str
    n_list: tuple
    epsilon_list: tuple
    trials: int
    master_seed: int
    mode: str = "dense"
    tau: float = 0.0
    sampling: str = "random"
    interior_statistic: str = "median"

    def __post_init__(self):
        get_function(self.manifold, self.function)  # raises with the list of valid ids
        for name, field, convert in (
            ("N_list", "n_list", lambda v: tuple(_number(operator.index, n) for n in v)),
            ("epsilon_list", "epsilon_list", lambda v: tuple(_number(float, e) for e in v)),
            ("trials", "trials", lambda v: _number(operator.index, v)),
            ("master_seed", "master_seed", lambda v: _number(operator.index, v)),
            ("tau", "tau", lambda v: _number(float, v)),
        ):
            value = getattr(self, field)
            try:
                object.__setattr__(self, field, convert(value))
            except (TypeError, ValueError):
                raise ValueError(f"{name} has the wrong type: {value!r}") from None
        if not self.n_list:
            raise ValueError("N_list must be non-empty")
        if not self.epsilon_list:
            raise ValueError("epsilon_list must be non-empty")
        if any(n < 2 for n in self.n_list):
            raise ValueError("all N in N_list must be >= 2")
        for e in self.epsilon_list:
            KernelConfig(epsilon=e, truncation_tau=self.tau)  # raises on a bad epsilon or tau
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a nonnegative 64-bit integer")
        _check_mode(self.mode, self.tau)
        _check_choice("sampling", self.sampling, _SAMPLINGS)
        _check_choice("interior_statistic", self.interior_statistic, _STATISTICS)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        if not isinstance(payload, dict):
            raise ValueError("experiment spec must be a JSON object")
        known = {
            "manifold",
            "function",
            "N_list",
            "epsilon_list",
            "trials",
            "master_seed",
            "mode",
            "tau",
            "sampling",
            "interior_statistic",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {', '.join(sorted(unknown))}")
        missing = {"manifold", "function", "N_list", "epsilon_list", "trials", "master_seed"} - set(
            payload
        )
        if missing:
            raise ValueError(f"missing spec fields: {', '.join(sorted(missing))}")
        mode = payload.get("mode", "dense")
        tau = payload.get("tau", DEFAULT_TAU if mode == "sparse" else 0.0)
        return cls(
            manifold=payload["manifold"],
            function=payload["function"],
            n_list=payload["N_list"],
            epsilon_list=payload["epsilon_list"],
            trials=payload["trials"],
            master_seed=payload["master_seed"],
            mode=mode,
            tau=tau,
            sampling=payload.get("sampling", "random"),
            interior_statistic=payload.get("interior_statistic", "median"),
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(payload)

    def to_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "function": self.function,
            "N_list": list(self.n_list),
            "epsilon_list": list(self.epsilon_list),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "mode": self.mode,
            "tau": self.tau,
            "sampling": self.sampling,
            "interior_statistic": self.interior_statistic,
        }

    def with_overrides(self, master_seed=None, mode=None, tau=None) -> "ExperimentSpec":
        """This spec with the given fields replaced, rebuilt through from_dict.

        A mode that differs from the spec's drops the spec's tau, so the new
        mode gets from_dict's default tau unless tau is given too.
        """
        payload = self.to_dict()
        if master_seed is not None:
            payload["master_seed"] = master_seed
        if mode is not None and mode != self.mode:
            payload["mode"] = mode
            del payload["tau"]
        if tau is not None:
            payload["tau"] = tau
        return ExperimentSpec.from_dict(payload)


def derive_cell_seed(master_seed: int, n: int, epsilon: float, trial: int) -> int:
    """Per-cell seed from (master_seed, N value, epsilon bits, trial index).

    Value-based (not list-index-based) so permuting the sweep lists leaves
    every cell's numbers unchanged, and independent of execution order.
    """
    eps_bits = int(np.float64(epsilon).view(np.uint64))
    ss = np.random.SeedSequence([int(master_seed), int(n), eps_bits, int(trial)])
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
class LemmaCheckResult:
    manifold: str
    function: str
    n: int  # actual cloud size (torus grids round up to a square)
    epsilon: float
    seed: int
    mode: str
    sampling: str
    estimate: np.ndarray
    reference: np.ndarray
    errors: np.ndarray
    degrees: np.ndarray
    err_abs_median: float
    err_abs_mean: float
    err_abs_max: float
    err_rel_median: float
    degree_stats: DegreeStats
    regime: str
    low_neighbor_warning: bool


@dataclass(frozen=True)
class DegreeCheckResult:
    manifold: str
    n: int
    epsilon: float
    seed: int
    sampling: str
    stats: DegreeStats
    regime: str
    low_neighbor_warning: bool


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


def _cell_setup(manifold, n: int, epsilon: float, seed: int, sampling: str, pin_anchor: bool):
    """Manifold, cloud, low-neighbor flag and regime label of one cell.

    Warns (pointing at the caller of the public check) when the kernel
    sees fewer than one neighbor on average.
    """
    m = get_manifold(manifold)
    _check_choice("sampling", sampling, _SAMPLINGS)
    if sampling == "grid":
        cloud = grid_sample(m, n)
    else:
        cloud = sample(m, n, seed)
    if pin_anchor:
        pts = cloud.points.copy()
        pts[0] = m.anchor
        cloud = PointCloud(points=pts)
    n_points = cloud.n_points
    expected = (2.0 * np.pi * epsilon) ** (m.intrinsic_dim / 2.0) * n_points / m.volume
    warned = bool(expected < 1.0)
    if warned:
        warnings.warn(
            f"kernel sees too few neighbors on {m.name}: "
            f"(2 pi eps)^(m/2) N / vol = {expected:.3g} < 1",
            stacklevel=3,
        )
    regime = classify_regime(m.intrinsic_dim, m.volume, n_points, epsilon, sampling)
    return m, cloud, warned, regime


def lemma_check(
    manifold,
    fn_id: str,
    n: int,
    epsilon: float,
    seed: int = 0,
    mode: str = "dense",
    tau: float = 0.0,
    sampling: str = "random",
    pin_anchor: bool = False,
) -> LemmaCheckResult:
    """Compare the estimator (2/eps) Delta f against the closed-form target.

    Samples a cloud (random by seed, or the deterministic grid) and applies
    the normalized Laplacian without storing W: one kernel pass for the
    degrees d = W 1, a second for W (f / sqrt d), so a cell holds one kernel
    block rather than W's nnz. Both passes run one pass plan, which the
    first builds and keeps on the cloud (order, tile classes and trimmed
    columns), so the second neither orders nor trims. Returns per-vertex
    errors plus summary statistics and the degree-asymptotics stats of the
    same cloud.
    pin_anchor replaces point 0 with the manifold's canonical anchor so
    across-seed spread can be measured at a fixed location.
    """
    kernel = KernelConfig(epsilon=epsilon, truncation_tau=tau)
    _check_mode(mode, tau)
    m, cloud, warned, regime = _cell_setup(manifold, n, epsilon, seed, sampling, pin_anchor)
    f, reference = eval_pair(m, fn_id, cloud)

    d = degrees_from_cloud(cloud, kernel)
    estimate = (2.0 / epsilon) * laplacian_from_cloud(cloud, kernel, f, d)
    errors = estimate - reference

    abs_err = np.abs(errors)
    median = float(np.median(abs_err))
    normalizer = float(np.abs(reference).max())
    if normalizer == 0.0:
        normalizer = 1.0  # relative error degrades to absolute for zero targets
    return LemmaCheckResult(
        manifold=m.name,
        function=fn_id,
        n=cloud.n_points,
        epsilon=float(epsilon),
        seed=int(seed),
        mode=mode,
        sampling=sampling,
        estimate=estimate,
        reference=reference,
        errors=errors,
        degrees=d,
        err_abs_median=median,
        err_abs_mean=float(abs_err.mean()),
        err_abs_max=float(abs_err.max()),
        err_rel_median=median / normalizer,
        degree_stats=_degree_stats(d, m, cloud.points, epsilon),
        regime=regime,
        low_neighbor_warning=warned,
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
    kernel = KernelConfig(epsilon=epsilon, truncation_tau=tau)
    m, cloud, warned, regime = _cell_setup(manifold, n, epsilon, seed, sampling, pin_anchor=False)
    d = degrees_from_cloud(cloud, kernel)
    return DegreeCheckResult(
        manifold=m.name,
        n=cloud.n_points,
        epsilon=float(epsilon),
        seed=int(seed),
        sampling=sampling,
        stats=_degree_stats(d, m, cloud.points, epsilon),
        regime=regime,
        low_neighbor_warning=warned,
    )


# ----------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class CellResult:
    manifold: str
    function: str
    n: int  # requested N (grid clouds may round up internally)
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
    sampling: str
    regime: str


@dataclass(frozen=True)
class CellFailure:
    n: int
    epsilon: float
    trial: int
    seed: int
    message: str
    kind: str  # "resource" (out of memory) or "numerical"


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    failures: tuple
    pool_width: int  # workers: the calling process and pool_width - 1 helper processes


def _cell_failure(n: int, epsilon: float, trial: int, seed: int, kind: str, message: str):
    log.warning("cell N=%d eps=%g trial=%d failed (%s): %s", n, epsilon, trial, kind, message)
    return CellFailure(n=n, epsilon=epsilon, trial=trial, seed=seed, message=message, kind=kind)


def _run_cell(spec: ExperimentSpec, n: int, epsilon: float, trial: int):
    seed = derive_cell_seed(spec.master_seed, n, epsilon, trial)
    start = time.perf_counter()
    try:
        res = lemma_check(
            spec.manifold,
            spec.function,
            n,
            epsilon,
            seed=seed,
            mode=spec.mode,
            tau=spec.tau,
            sampling=spec.sampling,
        )
    except Exception as exc:  # recorded, remaining cells continue
        kind = "resource" if isinstance(exc, MemoryError) else "numerical"
        return _cell_failure(n, epsilon, trial, seed, kind, str(exc) or type(exc).__name__)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return CellResult(
        manifold=spec.manifold,
        function=spec.function,
        n=n,
        epsilon=epsilon,
        seed=seed,
        mode=spec.mode,
        err_abs_median=res.err_abs_median,
        err_abs_mean=res.err_abs_mean,
        err_abs_max=res.err_abs_max,
        err_rel_median=res.err_rel_median,
        degree_ratio_mean=res.degree_stats.residual_mean,
        degree_ratio_dev=res.degree_stats.residual_dev,
        wall_ms=wall_ms,
        trial=trial,
        sampling=spec.sampling,
        regime=res.regime,
    )


def _usable_cpus() -> int | None:
    """CPUs this process may run on (its affinity mask where the OS has one).

    Like os.cpu_count, which is the fallback, None when unknown.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _pool_width(parallelism: int, n_jobs: int) -> int:
    """min(parallelism, n_jobs, usable CPUs) workers, at least 1, and 1 without fork."""
    width = max(1, min(int(parallelism), n_jobs, _usable_cpus() or 1))
    return width if hasattr(os, "fork") else 1


def _helper(conn, inherited) -> None:
    """Run the cells that arrive on conn, in order, until the other end closes.

    inherited holds this process's copies of the caller's pipe ends, closed
    here so that each pipe ends when the caller closes its end.
    """
    for end in inherited:
        end.close()
    try:
        while True:
            conn.send(_run_cell(*conn.recv()))
    except (EOFError, OSError):
        return


def _run_with_helpers(spec: ExperimentSpec, cells: list, helpers: int) -> list:
    """Every cell's outcome, in cell order, from this process and `helpers` forked helpers.

    This process keeps each helper two cells ahead over its own pipe, then
    runs the next cell itself. A helper runs its cells in the order sent,
    so when one dies (say, killed for memory) the first cell it held is the
    one it died in: that cell is a "resource" failure, and the cells queued
    behind it go back to the other workers.
    """
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
            proc = fork.Process(target=_helper, args=(theirs, [ours, *live]), daemon=True)
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
                        conn.send((spec, *cells[todo[0]]))
                        held.append(todo.popleft())
                except (EOFError, OSError):  # the helper is gone
                    del live[conn]
                    conn.close()
                    proc.join()
                    if held:
                        n, epsilon, trial = cells[held[0]]
                        seed = derive_cell_seed(spec.master_seed, n, epsilon, trial)
                        message = f"its helper process ended abruptly (exit code {proc.exitcode})"
                        outcomes[held.popleft()] = _cell_failure(n, epsilon, trial, seed, "resource", message)
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
    workers: this process and one fewer forked helper processes, or this
    process alone when that width is 1 or the platform cannot fork. A
    cell's kernel products stay on the thread that runs it, so each worker
    keeps to one CPU. The result table is in spec order regardless of
    completion order, and cell seeds are derived from values, so the
    numbers are identical at any parallelism.
    """
    cells = [
        (n, eps, t)
        for n in spec.n_list
        for eps in spec.epsilon_list
        for t in range(spec.trials)
    ]
    log.info(
        "sweep: %s/%s, %d cells (%d N x %d eps x %d trials), mode=%s sampling=%s",
        spec.manifold,
        spec.function,
        len(cells),
        len(spec.n_list),
        len(spec.epsilon_list),
        spec.trials,
        spec.mode,
        spec.sampling,
    )
    width = _pool_width(parallelism, len(cells))
    if width == 1:
        outcomes = [_run_cell(spec, *c) for c in cells]
    else:
        outcomes = _run_with_helpers(spec, cells, width - 1)
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


_AXIS_GETTERS = {
    "N": lambda row: row.n,
    "epsilon": lambda row: row.epsilon,
}

def sweep_rate_fits(rows: Sequence[CellResult], interior_statistic: str) -> list[dict]:
    """Every log-log rate fit a sweep's result table supports, as plain dicts.

    Fits err_rel_median and err_abs_<interior_statistic> along N within each
    epsilon, then along epsilon within each N. A group with fewer than 3
    distinct swept values or a nonpositive response has no fit.
    """
    fits = []
    responses = dict.fromkeys(("err_rel_median", f"err_abs_{interior_statistic}"))
    for swept, group in (("N", "epsilon"), ("epsilon", "N")):
        x, key = _AXIS_GETTERS[swept], _AXIS_GETTERS[group]
        for response in responses:
            for value in sorted({key(r) for r in rows}):
                cells = [r for r in rows if key(r) == value]
                xs = [x(r) for r in cells]
                ys = [getattr(r, response) for r in cells]
                try:
                    fit = fit_rate_xy(xs, ys)
                except ValueError:
                    continue
                fits.append(
                    {
                        "swept_axis": swept,
                        "group_by": group,
                        "group_value": value,
                        "response": response,
                        "slope": fit.slope,
                        "intercept": fit.intercept,
                        "r_squared": fit.r_squared,
                    }
                )
    return fits
