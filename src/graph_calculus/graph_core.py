"""Weighted graph construction: Gaussian kernel weights, vertex degrees, W g and
the normalized Laplacian applied to a vertex function."""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .csvio import read_matrix_csv

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
# column-major copies and right operands row-major, from about 18
# dimensions, at every tau).
_TILE = 224

# Relative roundoff margin of the tile-pair classes at tau > 0: a pair is
# skipped or left unmasked only when its boxes clear the cut radius by
# _ROUNDOFF * (r2 + max |ys|^2) in squared distance. The GEMM that gives
# ln W = ys_u.ys_v - |ys_u|^2 / 2 - |ys_v|^2 / 2 errs by a few ulps of
# max |ys|^2; this allows 4096 ulps.
_ROUNDOFF = 2.0**-40

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
        return cls(points=read_matrix_csv(path))


def check_real(value, name: str) -> float:
    """value as a float: a real number, numpy's included, but no bool (True would run at eps 1.0)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the largest float
        raise ValueError(f"{name} is too large for a float") from None


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
        object.__setattr__(self, "epsilon", check_real(self.epsilon, "epsilon"))
        object.__setattr__(self, "truncation_tau", check_real(self.truncation_tau, "truncation_tau"))
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be a positive real, got {self.epsilon}")
        if not 0.0 <= self.truncation_tau < 1.0:
            raise ValueError(f"truncation_tau must lie in [0, 1), got {self.truncation_tau}")


def _check_vertex_function(f, n: int) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (n,):
        raise ValueError(f"vertex function has shape {f.shape}, expected ({n},)")
    if not np.isfinite(f).all():
        raise ValueError("vertex function contains non-finite values")
    return f


def _check_stored(n: int) -> int:
    if n > DENSE_LIMIT:
        raise ValueError(f"stored weight matrix limited to N <= {DENSE_LIMIT} points (got {n})")
    return n


def _check_degrees(d, n: int) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (n,):
        raise ValueError(f"degree vector has shape {d.shape}, expected ({n},)")
    if not np.isfinite(d).all():
        raise ValueError("degrees must be finite (an infinite or NaN degree found)")
    if not (d > 0).all():
        raise ValueError("degrees must be strictly positive (zero or negative degree found)")
    return d


def _tile_order(points: np.ndarray) -> np.ndarray:
    """A permutation of the points by recursive coordinate bisection into tiles.

    Each part is split on the widest axis of its bounding box, at a multiple
    of _TILE points from its start (the ragged remainder goes right), so
    every _TILE-point tile of the order is one compact leaf. The coordinates
    are held axis-major, so each box and partition runs along a row of the
    part's points rather than across its 2-3 axes.
    """
    order = np.arange(len(points))
    coords = np.ascontiguousarray(points.T)
    parts = [(0, len(points))]
    while parts:
        lo, hi = parts.pop()
        tiles = -(-(hi - lo) // _TILE)
        if tiles < 2:
            continue
        part = order[lo:hi]
        pts = np.take(coords, part, axis=1)
        axis = np.argmax(pts.max(axis=1) - pts.min(axis=1))
        cut = tiles // 2 * _TILE
        order[lo:hi] = part[np.argpartition(pts[axis], cut)]
        parts += [(lo, lo + cut), (lo + cut, hi)]
    return order


@dataclass(frozen=True)
class _PassPlan:
    order: np.ndarray  # the pass's positions: its (u, v) is W[order[u], order[v]]
    aug_t: np.ndarray  # row-major rows ys, -|ys|^2 / 2 and 1, one column per position
    # per tile row: (rows, [cols of each computed tile], [its masked flag],
    # the full column tiles it trims, their kept-column bits)
    layout: list


def _pass_plan(cloud: PointCloud, kernel: KernelConfig) -> _PassPlan:
    """The layout of a kernel pass, built once per (cloud, eps, tau, _TILE).

    It is kept on the cloud under that key, so a cell's degree pass and W g
    pass share it, and a changed kernel or tile side plans anew. It holds
    aug^T and one 224-bit mask of kept columns per trimmed pair. At tau = 0
    no pair can be skipped, so the sample order is kept rather than paid
    for, and every tile pair is unmasked; at tau > 0 see _tile_order,
    _tile_classes.
    """
    key = (kernel.epsilon, kernel.truncation_tau, _TILE)
    held, plan = cloud.__dict__.get("_plan", (None, None))
    if held == key:
        return plan
    n, tau = cloud.n_points, kernel.truncation_tau
    tiles = [slice(i0, min(i0 + _TILE, n)) for i0 in range(0, n, _TILE)]
    order = _tile_order(cloud.points) if tau > 0.0 else np.arange(n)
    aug_t = _augmented(cloud.points, order, kernel.epsilon)
    if tau > 0.0:
        layout = _tile_classes(aug_t, tiles, tau)
    else:
        untrimmed = np.empty(0, dtype=np.intp), np.empty((0, 0), dtype=np.uint8)
        layout = [
            (rows, tiles[bi:], [False] * (len(tiles) - bi), *untrimmed) for bi, rows in enumerate(tiles)
        ]
    order.setflags(write=False)
    plan = _PassPlan(order, aug_t, layout)
    object.__setattr__(cloud, "_plan", (key, plan))
    return plan


def _augmented(x, order, epsilon):
    """aug^T, the row-major transpose of aug = [ys, -h, 1] of the points x in the
    given order, centred once and scaled, ys = (x - mean(x)) / sqrt(eps), and
    h = |ys|^2 / 2: ln W_uv = ys_u.ys_v - h_u - h_v.

    An epsilon at which twice the largest |ys|^2 overflows is refused here,
    once per plan and before any tile: a tile's product sums terms of that
    size and would come out inf or NaN. The test is on a Python float, whose
    overflow to inf, like einsum's, raises no RuntimeWarning.
    """
    ys = x[order] - x.mean(axis=0)
    ys /= np.sqrt(epsilon)
    aug_t = np.empty((x.shape[1] + 2, len(x)))
    aug_t[:-2] = ys.T
    # summed on the C-order ys: einsum sums a strided layout in another order
    aug_t[-2] = -0.5 * np.einsum("ij,ij->i", ys, ys)
    if not math.isfinite(-4.0 * float(aug_t[-2].min())):
        raise ValueError(f"epsilon {epsilon} is too small for this cloud: 2 max |y|^2 / epsilon overflows")
    aug_t[-1] = 1.0
    return aug_t


def _tile_classes(aug_t, tiles, tau):
    """Per tile row, the _PassPlan layout of the tiles a pass at tau > 0 computes.

    A weight is dropped where |ys_u - ys_v|^2 > r2 = -2 ln tau. Each tile
    pair falls in one of three classes by its two tiles' bounding boxes in
    ys. It is skipped where the squared gap between the boxes exceeds r2
    plus a roundoff margin: the mask would zero its every entry. It is
    unmasked, a plain exp, where their squared farthest distance is below
    r2 minus the margin: the mask would keep every entry. Otherwise it is
    masked: its weights below tau are zeroed after the exp (see _truncate).
    The margin, _ROUNDOFF times r2 plus the pair's largest |ys|^2, bounds
    the GEMM's roundoff. Pairs skip only between compact tiles, hence the
    order. Each plan logs its tile classes and trimmed columns at debug.

    A masked pair off the diagonal is trimmed, not computed, when its
    column tile is full: a column whose squared gap to the row tile's box
    exceeds r2 plus the margin is dropped (the mask would zero its every
    entry), and the others are kept. The plan holds a bit per column of
    each trimmed pair; the tile loop gathers the kept columns, over the
    row's trimmed pairs in order, into masked tiles of up to _TILE columns,
    after the row's other tiles (see _gathered). The columns are tested in
    the full tiles of ys, so the ragged last column tile is never trimmed.
    The boxes are reduced along aug^T's rows (min and max are exact) and
    held C-order, as (tiles, dim), for the einsums: einsum sums another
    layout in another order.
    """
    n, dim, starts = aug_t.shape[1], len(aug_t) - 2, range(0, aug_t.shape[1], _TILE)
    top = -2.0 * np.minimum.reduceat(aug_t[-2], starts)  # largest |ys|^2 of each tile
    r2 = -2.0 * np.log(tau)
    lo = np.minimum.reduceat(aug_t[:-2], starts, axis=1).T.copy()
    hi = np.maximum.reduceat(aug_t[:-2], starts, axis=1).T.copy()
    sizes = np.diff([*starts, n])
    whole = sizes == _TILE  # the column tiles a masked pair may trim
    ys3 = aug_t[:-2, : n // _TILE * _TILE].reshape(dim, -1, _TILE)  # the full tiles, a view
    skipped = masked = dropped = kept_cols = trimmed_cols = chunks = 0
    layout = []
    for bi, rows in enumerate(tiles):
        # classes of the pairs (bi, bj) for bj >= bi, from the tiles' boxes
        gap = np.maximum(lo[bi:] - hi[bi], lo[bi] - hi[bi:]).clip(min=0.0)
        far = np.maximum(hi[bi:] - lo[bi], hi[bi] - lo[bi:])
        margin = _ROUNDOFF * (r2 + np.maximum(top[bi:], top[bi]))
        skip = np.einsum("ij,ij->i", gap, gap) > r2 + margin
        mask = ~skip & (np.einsum("ij,ij->i", far, far) >= r2 - margin)
        skipped += int(skip.sum())
        masked += int(mask.sum())
        dropped += 2 * sizes[bi] * int(sizes[bi:][skip].sum())
        trim = mask & whole[bi:]
        trim[0] = False  # the diagonal tile is never trimmed
        trimmed = bi + np.flatnonzero(trim)
        near = _near_columns(ys3, trimmed, lo[bi], hi[bi], r2 + margin[trim])
        kept = int(near.sum())
        kept_cols += kept
        trimmed_cols += near.size - kept
        chunks += -(-kept // _TILE)
        computed = np.flatnonzero(~(skip | trim))  # the diagonal tile comes first
        cols = [tiles[bi + k] for k in computed]
        layout.append((rows, cols, mask[computed].tolist(), trimmed, np.packbits(near, axis=1)))
    unmasked = len(tiles) * (len(tiles) + 1) // 2 - skipped - masked
    log.debug(
        "kernel pass: N=%d, tile pairs skipped=%d unmasked=%d masked=%d, "
        "dropped mass of skipped pairs < tau x %d entries = %.3g, "
        "trimmed columns kept=%d dropped=%d in %d gathered chunks",
        n, skipped, unmasked, masked, dropped, tau * dropped, kept_cols, trimmed_cols, chunks,
    )
    return layout


def _kernel_blocks(cloud: PointCloud, kernel: KernelConfig):
    """Yield (rows, cols, block) for each tile of the cloud's _pass_plan.

    rows is a slice of at most _TILE positions in the plan's order, cols a
    slice or an increasing index array of at most _TILE positions, and
    W[order[rows], order[cols]] = block off the diagonal; a diagonal tile
    comes with cols the same object as rows, and with its diagonal 0: the
    self-weight W_uu = 1 is left to the consumer. aug[rows] with its last
    two columns swapped, a column-major copy, times aug^T[:, cols], a
    row-major view or gathered copy, is ln W: a tile is one GEMM into a
    reused buffer, then an in-place exp and, if masked, _truncate at the
    kernel's tau. ln W <= 0 up to roundoff of a few ulps of max |ys|^2, which
    passes exp's overflow point 709 only at eps below about 1e-19 times the
    cloud's squared radius, and only where ln W is 0 within it: a diagonal
    tile's diagonal, written -inf before the exp so that it comes out +0.0,
    and pairs of points that all but coincide. GEMM roundoff is not
    symmetric in u and v, so a diagonal tile is not exactly symmetric. The
    next tile overwrites the buffer, so a pass needs O(N + _TILE^2) memory
    at any N.
    """
    plan = _pass_plan(cloud, kernel)
    aug_t, tau = plan.aug_t, kernel.truncation_tau
    swap = [*range(len(aug_t) - 2), -1, -2]
    tile, keep = np.empty(_TILE * _TILE), np.empty(_TILE * _TILE, dtype=bool)
    chunk = np.empty(len(aug_t) * _TILE)
    for rows, row_cols, masks, trimmed, bits in plan.layout:
        lhs = aug_t[swap, rows].T
        gathered = _gathered(trimmed, bits)
        for cols, masked in zip(row_cols + gathered, masks + [True] * len(gathered)):
            if isinstance(cols, slice):
                rhs = aug_t[:, cols]
            else:  # a gathered chunk: aug_t[:, cols] would come out column-major
                rhs = chunk[: len(aug_t) * len(cols)].reshape(-1, len(cols))
                np.take(aug_t, cols, axis=1, out=rhs)
            block = tile[: len(lhs) * rhs.shape[1]].reshape(len(lhs), -1)
            np.matmul(lhs, rhs, out=block)
            if cols is rows:
                tile[: block.size : len(block) + 1] = -np.inf  # the square block's diagonal, +0.0 after exp
            np.exp(block, out=block)
            if masked:
                _truncate(block, tau, keep)
            yield rows, cols, block


def _near_columns(ys3, tiles, lo, hi, limits):
    """A (len(tiles), _TILE) bool array: which columns of the given full tiles
    have a squared gap to the box [lo, hi] of at most the tile's limit.

    ys3 holds the full tiles of ys axis-major, as (dim, tiles, _TILE). The
    tiles a row trims are tested in one step along _TILE-long rows, in two
    (dim, T, _TILE) temporaries for T tiles: at most 16 dim N bytes, the order
    of the plan's aug^T. The squared gap is summed over the axes in axis
    order, where an einsum over the axes pairs them as (0 + 2) + 1 at dim 3:
    a column's sum can round a last bit apart from that order, which the
    _ROUNDOFF margin in each limit covers.
    """
    y = np.take(ys3, tiles, axis=1)
    # y minus its clip into the box is the gap to it, negated below the box, which the square drops
    gap = np.subtract(y, np.clip(y, lo[:, None, None], hi[:, None, None]), out=y)
    return np.square(gap, out=gap).sum(axis=0) <= limits[:, None]


def _gathered(tiles, bits):
    """The kept columns of a tile row's trimmed pairs, as increasing index arrays of
    up to _TILE positions: the set bits of each full column tile's mask, in order.
    """
    if not len(tiles):  # a row that trims no pair, as every row at tau = 0
        return []
    at = np.flatnonzero(np.unpackbits(bits, axis=1, count=_TILE))
    near = tiles[at // _TILE] * _TILE + at % _TILE
    return [near[c0 : c0 + _TILE] for c0 in range(0, len(near), _TILE)]


def _truncate(block, tau, keep):
    """Zero the weights below tau of a tile of W in place; keep is a reused bool buffer."""
    kept = np.greater_equal(block, tau, out=keep[: block.size].reshape(block.shape))
    # the block is >= 0, so the dropped weights become +0.0
    np.multiply(block, kept, out=block)


def build_weights(cloud: PointCloud, kernel: KernelConfig) -> np.ndarray:
    """Build W[u][v] = exp(-|u - v|^2 / (2 epsilon)), zeroed below truncation_tau.

    Returns the N x N float64 ndarray; a truncated W (tau > 0) holds its
    dropped weights as exact zeros. Refused above DENSE_LIMIT points.

    The kernel tiles come from the tau = 0 pass of the tile loop shared
    with kernel_matvec, in sample order, as exp(ln W) on the centred cloud.
    At tau > 0 each tile then has its weights below tau zeroed by _truncate,
    the test every masked tile of a pass takes, so a stored weight is the
    tau = 0 weight, bit for bit, or +0.0. Each unordered tile is computed
    once and mirrored (a diagonal tile keeps its upper triangle), so the
    result is symmetric bit-for-bit. The diagonal is set to exactly 1 (it
    survives any tau < 1), and W is clamped at 1, which the weight of two
    coincident points can pass by a few ulps, because their ln W can round
    above 0.
    """
    n = _check_stored(cloud.n_points)
    tau, keep = kernel.truncation_tau, np.empty(_TILE * _TILE, dtype=bool)
    w = np.zeros((n, n), dtype=np.float64)
    for rows, cols, block in _kernel_blocks(cloud, KernelConfig(kernel.epsilon)):
        if tau > 0.0:
            _truncate(block, tau, keep)
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
    of W's nnz. g is permuted into the order of the cloud's _pass_plan and
    the result back. Each tile, exp(ln W) cut by _truncate at tau > 0, adds
    block @ g[cols] to out[rows] and, off the diagonal, g[rows] @ block to
    out[cols] (a gathered tile's positions are unique).
    The self-weight W_uu = 1 adds g exactly. The ordered tiles at tau > 0,
    and a diagonal tile's full square at every tau, round apart from
    build_weights' own, so the result can differ from build_weights(...) @ g
    at ~1e-15 relative, as degrees_from_cloud does from degrees. Both drop a
    weight by the same W >= tau test, but a weight within roundoff of tau
    may come out on either side of it in one and not the other.
    """
    order = _pass_plan(cloud, kernel).order
    g = _check_vertex_function(g, cloud.n_points)[order]
    out = g.copy()
    for rows, cols, block in _kernel_blocks(cloud, kernel):
        # np.dot releases the GIL in these vector products, where @ holds it
        out[rows] += np.dot(block, g[cols])
        if cols is not rows:
            # W is symmetric: the block's transpose is the mirrored block
            out[cols] += np.dot(g[rows], block)
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
