"""Exact-algebra invariant suite on random clouds.

Backs the `verify` CLI command: checks the operator identities that hold in
exact arithmetic (gradient antisymmetry, gradient/divergence adjointness,
div-grad factorization of the Laplacian, the sqrt-degree null vector, and
the [0, 2] spectral range of the positive Laplacian) and reports the worst
floating-point residual for each across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import (
    divergence,
    gradient,
    inner_edge,
    inner_vertex,
    laplacian_matrix,
    normalized_laplacian_matrix,
)
from .graph_core import (
    KernelConfig,
    PointCloud,
    build_weights,
    degrees,
    degrees_from_cloud,
    laplacian_from_cloud,
)
from .manifolds import check_integer

__all__ = ["InvariantReport", "run_invariant_suite", "VERIFY_MAX_N"]

# Largest N verify takes: it stores W and takes eigvalsh of N x N operator matrices.
VERIFY_MAX_N = 1000

# Kernel bandwidth of the random clouds, the one the tolerances below were set for.
_EPSILON = 1.0

# Largest floating-point residual each identity passes with (adjointness is
# relative to the larger of its two inner products, the others absolute).
_TOLERANCES = {
    "gradient_antisymmetry": 1e-14,
    "adjointness": 1e-10,
    "divgrad_factorization": 1e-12,
    "sqrt_degree_null_vector": 1e-12,
    "spectral_range": 1e-10,
}


@dataclass(frozen=True)
class InvariantReport:
    name: str
    worst_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_residual <= self.tolerance


def _divgrad_matrix(w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Matrix of divergence(gradient(.)) assembled column by column."""
    n = w.shape[0]
    out = np.empty((n, n))
    basis = np.zeros(n)
    for k in range(n):
        basis[k] = 1.0
        out[:, k] = divergence(gradient(basis, w, d), w, d)
        basis[k] = 0.0
    return out


def run_invariant_suite(n: int = 100, n_seeds: int = 5) -> list[InvariantReport]:
    """Worst residual per invariant over `n_seeds` random Gaussian clouds in R^3."""
    check_integer(n, "N", 2)
    if n > VERIFY_MAX_N:
        raise ValueError(f"verification stores W; N must be <= {VERIFY_MAX_N}, got {n}")
    check_integer(n_seeds, "n_seeds", 1)
    worst = dict.fromkeys(_TOLERANCES, 0.0)
    for s in range(n_seeds):
        rng = np.random.default_rng(s)
        cloud = PointCloud(points=rng.standard_normal((n, 3)))
        kernel = KernelConfig(epsilon=_EPSILON)
        w = build_weights(cloud, kernel)
        d = degrees(w)
        f = rng.standard_normal(n)
        field = rng.standard_normal((n, n))

        g = gradient(f, w, d)
        worst["gradient_antisymmetry"] = max(
            worst["gradient_antisymmetry"], float(np.abs(g + g.T).max())
        )

        a = inner_edge(g, field)
        b = inner_vertex(f, divergence(field, w, d))
        denom = max(abs(a), abs(b), np.finfo(float).tiny)
        worst["adjointness"] = max(worst["adjointness"], abs(a + b) / denom)

        lap = laplacian_matrix(w, d)
        worst["divgrad_factorization"] = max(
            worst["divgrad_factorization"], float(np.abs(_divgrad_matrix(w, d) - lap).max())
        )

        # matrix-free, like every vector output: d and W g from the same kernel blocks
        d_free = degrees_from_cloud(cloud, kernel)
        null = laplacian_from_cloud(cloud, kernel, np.sqrt(d_free), d_free)
        worst["sqrt_degree_null_vector"] = max(
            worst["sqrt_degree_null_vector"], float(np.abs(null).max())
        )

        eigs = np.linalg.eigvalsh(normalized_laplacian_matrix(w, d))
        overshoot = max(float(-eigs.min()), float(eigs.max() - 2.0), 0.0)
        worst["spectral_range"] = max(worst["spectral_range"], overshoot)

    return [InvariantReport(k, worst[k], _TOLERANCES[k]) for k in worst]
