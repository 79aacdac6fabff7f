"""Weighted graph construction: Gaussian kernel weights, vertex degrees, W g and
the normalized Laplacian applied to a vertex function."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DENSE_LIMIT",
    "PointCloud",
    "KernelConfig",
    "build_weights",
    "degrees",
    "degrees_from_cloud",
    "kernel_matvec",
    "laplacian_from_cloud",
]

# Largest N for which a stored N x N weight matrix is allowed (128 MB of
# float64 at 4096), whatever tau. Sweeps and degree passes never store W.
DENSE_LIMIT = 4096

# Sets the side r of the square kernel blocks: the largest r for which
# r * N * dim float64 values fit in this many bytes. Degrees and W g are
# summed block by block, so changing it moves them in the last bits.
_BLOCK_BYTES = 48_000_000


@dataclass(frozen=True)
class PointCloud:
    """N points embedded in R^n, one per row of ``points``."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, copy=True)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got shape {pts.shape}")
        if pts.shape[0] < 2:
            raise ValueError(f"a point cloud needs at least 2 points, got {pts.shape[0]}")
        if pts.shape[1] < 1:
            raise ValueError("ambient dimension must be >= 1")
        bad = np.where(~np.isfinite(pts).all(axis=1))[0]
        if bad.size:
            raise ValueError(f"non-finite coordinates at point index {int(bad[0])}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_csv(cls, path) -> "PointCloud":
        """Load a cloud from CSV: one row per point, rows starting with '#' skipped."""
        try:
            pts = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"could not parse point cloud CSV {path}: {exc}") from exc
        return cls(points=pts)


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel parameters.

    epsilon is the squared-length scale of exp(-dist^2 / (2*epsilon)).
    truncation_tau in [0, 1): weights below tau become exact zeros;
    tau == 0 means exact.
    """

    epsilon: float
    truncation_tau: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ValueError(f"epsilon must be a positive real, got {self.epsilon}")
        if not (0.0 <= self.truncation_tau < 1.0):
            raise ValueError(f"truncation_tau must lie in [0, 1), got {self.truncation_tau}")


def _check_vertex_function(f, n: int) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (n,):
        raise ValueError(f"vertex function has shape {f.shape}, expected ({n},)")
    if not np.isfinite(f).all():
        raise ValueError("vertex function contains non-finite values")
    return f


def _check_degrees(d, n: int) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (n,):
        raise ValueError(f"degree vector has shape {d.shape}, expected ({n},)")
    if not (d > 0).all():
        raise ValueError("degrees must be strictly positive (zero or negative degree found)")
    return d


def _block_rows(n: int, dim: int) -> int:
    return max(1, min(n, _BLOCK_BYTES // (8 * max(1, n * dim))))


def _kernel_blocks(cloud: PointCloud, kernel: KernelConfig):
    """Yield (rows, cols, block) for each block on or above the diagonal of W.

    rows and cols are index slices; block holds the kernel weights between
    them, entries below tau zeroed. Squared distances use the norm expansion
    |u|^2 + |v|^2 - 2 u.v (one BLAS product), whose roundoff is not symmetric
    in u and v, so a diagonal block is not exactly symmetric.
    """
    x = cloud.points
    n = cloud.n_points
    scale = -1.0 / (2.0 * kernel.epsilon)
    tau = kernel.truncation_tau
    sq_norms = np.einsum("ij,ij->i", x, x)
    step = _block_rows(n, cloud.ambient_dim)
    for i0 in range(0, n, step):
        rows = slice(i0, min(i0 + step, n))
        for j0 in range(i0, n, step):
            cols = slice(j0, min(j0 + step, n))
            block = x[rows] @ x[cols].T
            np.multiply(block, -2.0, out=block)
            block += sq_norms[rows, None]
            block += sq_norms[None, cols]
            np.maximum(block, 0.0, out=block)  # GEMM roundoff can dip below 0
            if j0 == i0:
                # self-distances are 0 by definition; roundoff here would be
                # amplified by 1/(2 eps) into the self-weight
                np.fill_diagonal(block, 0.0)
            np.multiply(block, scale, out=block)
            np.exp(block, out=block)
            if tau > 0.0:
                # exp output is >= 0, so the dropped entries become +0.0
                np.multiply(block, block >= tau, out=block)
            yield rows, cols, block


def build_weights(cloud: PointCloud, kernel: KernelConfig) -> np.ndarray:
    """Build W[u][v] = exp(-|u - v|^2 / (2 epsilon)), zeroed below truncation_tau.

    Returns the N x N float64 ndarray; a truncated W (tau > 0) holds its
    dropped weights as exact zeros. Refused above DENSE_LIMIT points.

    The kernel blocks come from the block loop shared with
    degrees_from_cloud, with squared distances from the norm expansion
    |u|^2 + |v|^2 - 2 u.v. Each unordered block is computed once and mirrored
    (a diagonal block keeps its upper triangle), so the result is symmetric
    bit-for-bit. The diagonal is exactly 1 (it survives any tau < 1).
    """
    n = cloud.n_points
    if n > DENSE_LIMIT:
        raise ValueError(
            f"stored weight matrix limited to N <= {DENSE_LIMIT} points (got {n})"
        )
    w = np.empty((n, n), dtype=np.float64)
    for rows, cols, block in _kernel_blocks(cloud, kernel):
        if rows != cols:
            w[rows, cols] = block
            w[cols, rows] = block.T
        else:
            w[rows, cols] = np.triu(block) + np.triu(block, 1).T
    return w


def degrees(w: np.ndarray) -> np.ndarray:
    """Vertex degrees d(u), the exact row sums of the weight matrix."""
    return w.sum(axis=1)


def degrees_from_cloud(cloud: PointCloud, kernel: KernelConfig) -> np.ndarray:
    """Degrees computed straight from the cloud, never materializing W.

    Same kernel blocks and truncation as build_weights followed by degrees;
    intended for large N, beyond the stored-W limit (degree sweeps at
    N ~ 2e4). Row sums of a diagonal block run over its full square, so
    they can differ from the stored-W degrees at ~1e-15 relative, far
    inside the 1e-12 N row-sum consistency budget.
    """
    d = np.zeros(cloud.n_points, dtype=np.float64)
    for rows, cols, block in _kernel_blocks(cloud, kernel):
        d[rows] += block.sum(axis=1)
        if rows != cols:
            # an off-diagonal block serves both its row and column vertices
            d[cols] += block.sum(axis=0)
    return d


def kernel_matvec(cloud: PointCloud, kernel: KernelConfig, g) -> np.ndarray:
    """The product W @ g computed straight from the cloud, never materializing W.

    Same kernel blocks and truncation as build_weights, so memory stays at
    one block instead of W's nnz. A diagonal block multiplies over its full
    square, so the result can differ from build_weights(...) @ g at
    ~1e-15 relative, as degrees_from_cloud does from degrees.
    """
    g = _check_vertex_function(g, cloud.n_points)
    out = np.zeros(cloud.n_points, dtype=np.float64)
    for rows, cols, block in _kernel_blocks(cloud, kernel):
        out[rows] += block @ g[cols]
        if rows != cols:
            # W is symmetric: the block's transpose is the mirrored block
            out[cols] += g[rows] @ block
    return out


def laplacian_from_cloud(cloud: PointCloud, kernel: KernelConfig, f, d) -> np.ndarray:
    """Normalized Laplacian D^{-1/2} W D^{-1/2} f - f, never materializing W.

    d is the degree vector (degrees_from_cloud of the same cloud and
    kernel). One kernel_matvec pass computes W (f / sqrt d), so memory stays
    at one kernel block. Agrees with calculus.laplacian_apply on the stored
    W to ~1e-15 relative, as kernel_matvec does with the stored product.
    """
    f = _check_vertex_function(f, cloud.n_points)
    root = np.sqrt(_check_degrees(d, cloud.n_points))
    return kernel_matvec(cloud, kernel, f / root) / root - f
