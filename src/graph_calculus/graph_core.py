"""Weighted graph construction: Gaussian kernel weights, vertex degrees, W g and
the normalized Laplacian applied to a vertex function."""

from __future__ import annotations

import logging
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

# Side of the square kernel tiles: a 224 x 224 float64 tile (392 KB) and its
# temporaries stay in one core's L2 cache (sides 192-320 timed alike, 512 was
# slower). W g is summed tile by tile, so changing it moves sums in the last bits.
# Products this small stay under BLAS's own threading thresholds, so a pass
# runs on its calling thread, unless the cloud has a high ambient dimension
# (OpenBLAS 0.3.31 on 2 cores threads a pass, whose left operands are
# column-major copies, from about 18 dimensions, at every tau).
_TILE = 224

# Relative roundoff margin of the tile-pair classes at tau > 0: a pair is
# skipped or left unmasked only when its boxes clear the cut radius by
# _ROUNDOFF * (r2 + max |ys|^2) in squared distance. The GEMM that gives
# ln W = ys_u.ys_v - |ys_u|^2 / 2 - |ys_v|^2 / 2 errs by a few ulps of
# max |ys|^2; this allows 4096 ulps.
_ROUNDOFF = 2.0**-40

# Column tiles whose columns the trim tests in one vectorized step: its
# temporaries, two arrays of _TRIM_TILES * _TILE * dim floats, stay below a tile
# (at dim <= 3) however many pairs a tile row trims.
_TRIM_TILES = 16

log = logging.getLogger("graph_calculus.graph_core")


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


def _tile_order(points: np.ndarray) -> np.ndarray:
    """A permutation of the points by recursive coordinate bisection into tiles.

    Each part is split on the widest axis of its bounding box, at a multiple
    of _TILE points from its start (the ragged remainder goes right), so
    every _TILE-point tile of the order is one compact leaf.
    """
    order = np.arange(len(points))
    parts = [(0, len(points))]
    while parts:
        lo, hi = parts.pop()
        tiles = -(-(hi - lo) // _TILE)
        if tiles < 2:
            continue
        part = order[lo:hi]
        pts = points[part]
        axis = np.argmax(pts.max(axis=0) - pts.min(axis=0))
        cut = tiles // 2 * _TILE
        order[lo:hi] = part[np.argpartition(pts[:, axis], cut)]
        parts += [(lo, lo + cut), (lo + cut, hi)]
    return order


def _cloud_order(cloud: PointCloud) -> np.ndarray:
    """The cloud's _tile_order, computed once per cloud and tile side.

    _kernel_blocks takes the points in this order at tau > 0, and
    kernel_matvec permutes g by it, so one pass reads one order and a sweep
    cell's degree pass and W g pass share it. It is kept on the cloud with
    the _TILE it was cut for, so a changed tile side orders anew.
    """
    tile, order = cloud.__dict__.get("_order", (None, None))
    if tile != _TILE:
        tile, order = _TILE, _tile_order(cloud.points)
        order.setflags(write=False)
        object.__setattr__(cloud, "_order", (tile, order))
    return order


def _kernel_blocks(cloud: PointCloud, kernel: KernelConfig):
    """Yield (rows, cols, block) for each computed tile on or above the diagonal of W.

    The points are taken in sample order at tau = 0 and in _cloud_order at
    tau > 0; rows is a slice of at most _TILE positions in that order, cols
    a slice or an index array of at most _TILE positions, and
    W[order[rows], order[cols]] = block off the diagonal; a diagonal tile
    comes with cols the same object as rows. The cloud is centred once,
    y = x - mean(x), and scaled, ys = y / sqrt(eps), so that
    ln W_uv = ys_u.ys_v - h_u - h_v with h_u = |ys_u|^2 / 2. One array
    aug = [ys, -h, 1] is kept per pass, and aug[rows] with its last two
    columns swapped, times aug[cols]^T, is ln W: each tile is one GEMM into
    a reused buffer and an in-place exp. ln W <= 0, up to roundoff, cannot
    overflow at any offset or eps.

    At tau > 0 a weight is dropped where |ys_u - ys_v|^2 > r2 = -2 ln tau,
    and each tile pair falls in one of three classes by the bounding boxes
    of its two tiles in ys. Where the squared gap between the boxes exceeds
    r2 plus a roundoff margin, the pair is skipped: every entry it would
    hold is one the mask zeroes. Where the squared farthest distance
    between the boxes is below r2 minus the margin, the pair is yielded
    unmasked, a plain exp: the mask would keep every entry. Every other
    pair is masked: the entries with ln W below ln tau are zeroed after the
    exp. The margin, _ROUNDOFF times r2 plus the pair's largest |ys|^2,
    bounds the GEMM's roundoff. Pairs skip only between compact tiles,
    hence the order. Each such pass logs its tile classes at debug, with
    the columns trimmed below.

    A masked pair off the diagonal is trimmed, not computed, when its
    column tile is full: a column whose squared gap to the row tile's box
    exceeds r2 plus the margin is dropped (the mask would zero its every
    entry), and the positions of the others are gathered, over the row's
    trimmed pairs in order, into masked tiles of up to _TILE columns. These
    come after the row's other tiles, with cols an increasing index array.
    The columns are tested in the full tiles of ys, so the ragged last
    column tile is never trimmed.

    A diagonal tile's own diagonal is 0: the self-weight W_uu = 1 is left to
    the consumer. GEMM roundoff is not symmetric in u and v, so a diagonal
    tile is not exactly symmetric. Every tile is written into one buffer,
    which the next tile overwrites, so a pass needs O(N + _TILE^2) memory
    at any N.
    """
    n = cloud.n_points
    tau = kernel.truncation_tau
    x = cloud.points
    starts = range(0, n, _TILE)
    # aug = [ys, -|ys|^2 / 2, 1] in the pass's order, ys a view of its first columns
    dim = cloud.ambient_dim
    aug = np.empty((n, dim + 2))
    ys = aug[:, :dim]
    np.subtract(x[_cloud_order(cloud)] if tau > 0.0 else x, x.mean(axis=0), out=ys)
    ys /= np.sqrt(kernel.epsilon)
    aug[:, dim] = -0.5 * np.einsum("ij,ij->i", ys, ys)
    aug[:, dim + 1] = 1.0
    swap = [*range(dim), dim + 1, dim]
    if tau > 0.0:
        top = -2.0 * np.minimum.reduceat(aug[:, dim], starts)  # largest |ys|^2 of each tile
        ln_tau = np.log(tau)
        r2 = -2.0 * ln_tau
        lo, hi = np.minimum.reduceat(ys, starts), np.maximum.reduceat(ys, starts)
        sizes = np.diff([*starts, n])
        whole = sizes == _TILE  # the column tiles a masked pair may trim
        ys3 = ys[: n // _TILE * _TILE].reshape(-1, _TILE, dim)  # the full tiles
        skipped = masked = dropped = kept_cols = trimmed_cols = chunks = 0
    tile = np.empty(_TILE * _TILE)
    keep = np.empty(_TILE * _TILE, dtype=bool)
    for bi, i0 in enumerate(starts):
        rows = slice(i0, min(i0 + _TILE, n))
        nr = rows.stop - i0
        lhs = aug[rows, swap]
        if tau > 0.0:
            # classes of the pairs (bi, bj) for bj >= bi, from the tiles' boxes
            gap = np.maximum(lo[bi:] - hi[bi], lo[bi] - hi[bi:]).clip(min=0.0)
            far = np.maximum(hi[bi:] - lo[bi], hi[bi] - lo[bi:])
            margin = _ROUNDOFF * (r2 + np.maximum(top[bi:], top[bi]))
            skip = np.einsum("ij,ij->i", gap, gap) > r2 + margin
            mask = ~skip & (np.einsum("ij,ij->i", far, far) >= r2 - margin)
            skipped += int(skip.sum())
            masked += int(mask.sum())
            dropped += 2 * nr * int(sizes[bi:][skip].sum())
            trim = mask & whole[bi:]
            trim[0] = False  # the diagonal tile is never trimmed
            near = _near_columns(ys3, bi + np.flatnonzero(trim), lo[bi], hi[bi], r2 + margin[trim])
            kept_cols += len(near)
            trimmed_cols += int(trim.sum()) * _TILE - len(near)
            done = skip | trim  # the pairs not computed as tiles below
        for bj, j0 in enumerate(starts[bi:], start=bi):
            if tau > 0.0 and done[bj - bi]:
                continue
            cols = slice(j0, min(j0 + _TILE, n)) if bj > bi else rows
            nc = cols.stop - j0
            block = tile[: nr * nc].reshape(nr, nc)
            np.matmul(lhs, aug[cols].T, out=block)
            if tau > 0.0 and mask[bj - bi]:
                _threshold_exp(block, ln_tau, keep)
            else:
                np.exp(block, out=block)
            if bj == bi:
                np.fill_diagonal(block, 0.0)
            yield rows, cols, block
        if tau > 0.0 and len(near):
            # the kept columns, gathered into masked tiles of up to _TILE columns
            for c0 in range(0, len(near), _TILE):
                cols = near[c0 : c0 + _TILE]
                block = tile[: nr * len(cols)].reshape(nr, len(cols))
                np.matmul(lhs, aug[cols].T, out=block)
                _threshold_exp(block, ln_tau, keep)
                chunks += 1
                yield rows, cols, block
    if tau > 0.0:
        unmasked = len(starts) * (len(starts) + 1) // 2 - skipped - masked
        log.debug(
            "kernel pass: N=%d, tile pairs skipped=%d unmasked=%d masked=%d, "
            "dropped mass of skipped pairs < tau x %d entries = %.3g, "
            "trimmed columns kept=%d dropped=%d in %d gathered chunks",
            n, skipped, unmasked, masked, dropped, tau * dropped,
            kept_cols, trimmed_cols, chunks,
        )


def _near_columns(ys3, tiles, lo, hi, limits):
    """The positions, in order, of the columns of the given full tiles whose
    squared gap to the box [lo, hi] is at most the tile's limit.

    ys3 holds the full tiles of ys as (tiles, _TILE, dim); the columns are
    tested _TRIM_TILES tiles at a time, so the temporaries stay below a tile.
    """
    near = [np.empty(0, dtype=np.intp)]
    for t0 in range(0, len(tiles), _TRIM_TILES):
        some = tiles[t0 : t0 + _TRIM_TILES]
        y = ys3[some]
        gap = lo - y
        np.maximum(gap, np.subtract(y, hi, out=y), out=gap)
        np.maximum(gap, 0.0, out=gap)
        reach = np.einsum("ijk,ijk->ij", gap, gap) <= limits[t0 : t0 + _TRIM_TILES, None]
        pair, col = np.nonzero(reach)
        near.append(some[pair] * _TILE + col)
    return np.concatenate(near)


def _threshold_exp(block, ln_tau, keep):
    """Turn a tile of ln W into W with its entries below exp(ln_tau) zeroed, in place."""
    kept = np.greater_equal(block, ln_tau, out=keep[: block.size].reshape(block.shape))
    np.exp(block, out=block)
    # the block is >= 0, so the dropped entries become +0.0
    np.multiply(block, kept, out=block)


def build_weights(cloud: PointCloud, kernel: KernelConfig) -> np.ndarray:
    """Build W[u][v] = exp(-|u - v|^2 / (2 epsilon)), zeroed below truncation_tau.

    Returns the N x N float64 ndarray; a truncated W (tau > 0) holds its
    dropped weights as exact zeros. Refused above DENSE_LIMIT points.

    The kernel tiles come from the tau = 0 pass of the block loop shared
    with kernel_matvec, in sample order, as exp(ln W) on the centred cloud.
    At tau > 0 each tile then has its weights below tau zeroed, so a stored
    weight is the tau = 0 weight, bit for bit, or +0.0. Each unordered tile
    is computed once and mirrored (a diagonal tile keeps its upper
    triangle), so the result is symmetric bit-for-bit. The diagonal is set
    to exactly 1 (it survives any tau < 1), and W is clamped at 1, which
    the weight of two coincident points can pass by a few ulps, because
    their ln W can round above 0.
    """
    n = cloud.n_points
    if n > DENSE_LIMIT:
        raise ValueError(
            f"stored weight matrix limited to N <= {DENSE_LIMIT} points (got {n})"
        )
    tau = kernel.truncation_tau
    w = np.zeros((n, n), dtype=np.float64)
    for rows, cols, block in _kernel_blocks(cloud, KernelConfig(kernel.epsilon)):
        if tau > 0.0:
            block *= block >= tau  # the block is >= 0, so the dropped weights become +0.0
        if cols is rows:
            w[rows, rows] = np.triu(block) + np.triu(block, 1).T
        else:
            w[rows, cols] = block
            w[cols, rows] = block.T
    np.fill_diagonal(w, 1.0)
    np.minimum(w, 1.0, out=w)
    return w


def degrees(w: np.ndarray) -> np.ndarray:
    """Vertex degrees d(u), the exact row sums of the weight matrix."""
    return w.sum(axis=1)


def degrees_from_cloud(cloud: PointCloud, kernel: KernelConfig) -> np.ndarray:
    """Degrees d = W 1 computed straight from the cloud, never materializing W.

    One kernel_matvec pass with g = 1, in O(N + tile^2) memory, for N beyond
    the stored-W limit (degree sweeps at N ~ 2e4). A diagonal tile is summed
    over its full square, so d can differ from degrees(build_weights(...)) at
    ~1e-15 relative, far inside the 1e-12 N row-sum consistency budget.
    """
    return kernel_matvec(cloud, kernel, np.ones(cloud.n_points))


def kernel_matvec(cloud: PointCloud, kernel: KernelConfig, g) -> np.ndarray:
    """The product W @ g computed straight from the cloud, never materializing W.

    The same weights as build_weights, but memory stays at one tile instead
    of W's nnz. Each tile is exp(ln W), with its weights below tau zeroed at
    tau > 0, and adds block @ g[cols] to out[rows] and, off the diagonal,
    g[rows] @ block to out[cols].
    The self-weight W_uu = 1 adds g exactly. At tau > 0 the tiles come in
    _cloud_order, so far tile pairs are skipped and masked ones trimmed: g
    is permuted in and the result permuted back, and a gathered tile reads
    g[cols] and adds into out[cols] (its positions are unique). At tau = 0
    no pair can be skipped, and the pass keeps the sample order rather than
    pay for ordering. The ordered tiles at tau > 0, and a diagonal tile's
    full square at every tau, round apart from build_weights' own, so the
    result can differ from build_weights(...) @ g at ~1e-15 relative, as
    degrees_from_cloud does from degrees, and a weight within roundoff of
    tau may be kept by one and dropped by the other.
    """
    g = _check_vertex_function(g, cloud.n_points)
    order = _cloud_order(cloud) if kernel.truncation_tau > 0.0 else None
    if order is not None:
        g = g[order]
    out = g.copy()
    for rows, cols, block in _kernel_blocks(cloud, kernel):
        out[rows] += block @ g[cols]
        if cols is not rows:
            # W is symmetric: the block's transpose is the mirrored block
            out[cols] += g[rows] @ block
    if order is not None:
        out[order] = out.copy()
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
