"""Built-in manifolds: uniform samplers, parameter grids, analytic ground truth.

Three closed manifolds are registered, each with its m-dimensional volume,
scalar curvature field S, and a registry of test functions. Each test
function is a Laplace-Beltrami eigenfunction stored with its eigenvalue, so
its closed-form image is eigenvalue * f (div-grad convention, so the
spectrum is nonpositive: on the circle sin(k t) maps to -k^2 sin(k t), and
on the sphere a degree-l harmonic has eigenvalue -l(l+1)):

    circle  S^1 in R^2          m=1  vol=2*pi      S = 0
    sphere  unit S^2 in R^3     m=2  vol=4*pi      S = 2
    torus   flat T^2 in R^4     m=2  vol=(2*pi)^2  S = 0
            embedded as (cos t, sin t, cos p, sin p)

The scalar curvature of the circle is 0: the 1-d curvature tensor vanishes,
which is not the (extrinsic) curvature of the circle as a plane curve.

Sampling uses numpy's PCG64 generator seeded from the given 64-bit integer;
identical (manifold, n, seed) triples reproduce clouds bit-for-bit on any
platform. The sphere sampler normalizes 3-d standard Gaussian vectors;
circle and torus draw uniform angles. These are exactly uniform and
rejection-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .csvio import record_dict
from .graph_core import PointCloud

__all__ = [
    "TestFunction",
    "ManifoldDescriptor",
    "MANIFOLDS",
    "get_manifold",
    "get_function",
    "manifold_names",
    "sample",
    "grid_sample",
    "eval_pair",
    "registry_payload",
]


@dataclass(frozen=True)
class TestFunction:
    """A Laplace-Beltrami eigenfunction of a manifold, with its eigenvalue.

    eval acts on (N, n) ambient coordinate arrays and returns an (N,) array.
    The registry is closed: adding functions is a code change, there is no
    runtime expression parser.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    eigenvalue: float


@dataclass(frozen=True)
class ManifoldDescriptor:
    name: str
    intrinsic_dim: int
    ambient_dim: int
    volume: float
    scalar_curvature: Callable[[np.ndarray], np.ndarray]
    anchor: np.ndarray  # canonical base point, used to pin a vertex across seeds
    functions: Mapping[str, TestFunction] = field(default_factory=dict)
    _sampler: Callable = None
    _grid: Callable = None  # the grid of grid_size(N) points
    grid_size: Callable[[int], int] = lambda n: n  # points in the grid for a requested N


def _circle_points(theta: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def _torus_points(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)], axis=1)


def _sample_circle(rng: np.random.Generator, n: int) -> np.ndarray:
    return _circle_points(rng.random(n) * (2.0 * np.pi))


def _sample_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, 3))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    if not (norms > 0).all():
        raise RuntimeError("degenerate zero-norm Gaussian draw")
    return g / norms


def _sample_torus(rng: np.random.Generator, n: int) -> np.ndarray:
    theta = rng.random(n) * (2.0 * np.pi)
    phi = rng.random(n) * (2.0 * np.pi)
    return _torus_points(theta, phi)


def _grid_circle(n: int) -> np.ndarray:
    return _circle_points(2.0 * np.pi * np.arange(n) / n)


def _grid_sphere(n: int) -> np.ndarray:
    # Fibonacci lattice: the sphere has no exactly-uniform parameter grid,
    # so the deterministic quasi-uniform standard construction is used.
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden_angle = np.pi * (3.0 - np.sqrt(5.0))
    theta = golden_angle * i
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def _grid_torus(n: int) -> np.ndarray:
    k = math.isqrt(n)  # n is a square, as the torus's grid_size makes it
    angles = 2.0 * np.pi * np.arange(k) / k
    theta = np.repeat(angles, k)
    phi = np.tile(angles, k)
    return _torus_points(theta, phi)


def _const(value: float):
    return lambda pts: np.full(pts.shape[0], value, dtype=np.float64)


_SIN_THETA = TestFunction(eval=lambda p: p[:, 1], eigenvalue=-1.0)
_CONST_ONE = TestFunction(eval=_const(1.0), eigenvalue=0.0)

_CIRCLE_FUNCTIONS = {
    "sin_theta": _SIN_THETA,
    "cos_theta": TestFunction(eval=lambda p: p[:, 0], eigenvalue=-1.0),
    # sin(3t) = 3 sin t - 4 sin^3 t, written in ambient coordinates
    "sin_3theta": TestFunction(
        eval=lambda p: 3.0 * p[:, 1] - 4.0 * p[:, 1] ** 3, eigenvalue=-9.0
    ),
    "const_one": _CONST_ONE,
}

_SPHERE_FUNCTIONS = {
    # degree-1 spherical harmonics: eigenvalue -l(l+1) = -2
    "coord_z": TestFunction(eval=lambda p: p[:, 2], eigenvalue=-2.0),
    "coord_x": TestFunction(eval=lambda p: p[:, 0], eigenvalue=-2.0),
    # x*y is a degree-2 harmonic: eigenvalue -6
    "harmonic_xy": TestFunction(eval=lambda p: p[:, 0] * p[:, 1], eigenvalue=-6.0),
    "const_one": _CONST_ONE,
}

_TORUS_FUNCTIONS = {
    "sin_theta": _SIN_THETA,
    "sin_phi": TestFunction(eval=lambda p: p[:, 3], eigenvalue=-1.0),
    # a product of modes on the flat torus: eigenvalue -1 - 1 = -2
    "sin_theta_cos_phi": TestFunction(eval=lambda p: p[:, 1] * p[:, 2], eigenvalue=-2.0),
    "const_one": _CONST_ONE,
}

MANIFOLDS: dict[str, ManifoldDescriptor] = {
    "circle": ManifoldDescriptor(
        name="circle",
        intrinsic_dim=1,
        ambient_dim=2,
        volume=2.0 * np.pi,
        scalar_curvature=_const(0.0),
        anchor=np.array([1.0, 0.0]),
        functions=_CIRCLE_FUNCTIONS,
        _sampler=_sample_circle,
        _grid=_grid_circle,
    ),
    "sphere": ManifoldDescriptor(
        name="sphere",
        intrinsic_dim=2,
        ambient_dim=3,
        volume=4.0 * np.pi,
        scalar_curvature=_const(2.0),
        anchor=np.array([0.0, 0.0, 1.0]),
        functions=_SPHERE_FUNCTIONS,
        _sampler=_sample_sphere,
        _grid=_grid_sphere,
    ),
    "torus": ManifoldDescriptor(
        name="torus",
        intrinsic_dim=2,
        ambient_dim=4,
        volume=(2.0 * np.pi) ** 2,
        scalar_curvature=_const(0.0),
        anchor=np.array([1.0, 0.0, 1.0, 0.0]),
        functions=_TORUS_FUNCTIONS,
        _sampler=_sample_torus,
        _grid=_grid_torus,
        grid_size=lambda n: (math.isqrt(n - 1) + 1) ** 2,  # n rounded up to a square, k x k points
    ),
}


def manifold_names() -> list[str]:
    return sorted(MANIFOLDS)


def get_manifold(manifold: ManifoldDescriptor | str) -> ManifoldDescriptor:
    """The descriptor for a manifold id; a descriptor is returned as is."""
    if isinstance(manifold, ManifoldDescriptor):
        return manifold
    try:
        return MANIFOLDS[manifold]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise ValueError(
            f"unknown manifold id {manifold!r}; valid ids: {', '.join(manifold_names())}"
        ) from None


def get_function(manifold: ManifoldDescriptor | str, fn_id: str) -> TestFunction:
    """The registered test function fn_id of a manifold (id or descriptor)."""
    m = get_manifold(manifold)
    try:
        return m.functions[fn_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise ValueError(
            f"unknown function id {fn_id!r} for manifold {m.name!r}; "
            f"valid ids: {', '.join(sorted(m.functions))}"
        ) from None


# The seed range of numpy's generators, which bounds any count too.
_INTEGER_LIMIT = 2**64


def check_integer(value, name: str, low: int = 0) -> int:
    """value as an int, refused unless an int or numpy integer, not a bool, in [low, 2**64).

    The one rule for every count, seed and worker width: int() would take
    2.5 as 2, True as 1 and "2" as 2.
    """
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integral and low <= value < _INTEGER_LIMIT):
        rule = "a nonnegative integer" if low == 0 else f"an integer >= {low}"
        bound = " below 2**64" if integral and value >= _INTEGER_LIMIT else ""
        raise ValueError(f"{name} must be {rule}{bound}, got {value!r}")
    return int(value)


# How a cell's cloud is drawn: i.i.d. uniform by sample(), or grid_sample()'s grid.
SAMPLINGS = ("random", "grid")


def sample(manifold: ManifoldDescriptor | str, n: int, seed: int) -> PointCloud:
    """Draw n i.i.d. uniform points on the manifold (PCG64, deterministic in seed)."""
    m = get_manifold(manifold)
    n = check_integer(n, "N", 2)
    rng = np.random.default_rng(check_integer(seed, "seed"))
    return PointCloud(points=m._sampler(rng, n))


def grid_sample(manifold: ManifoldDescriptor | str, n: int) -> PointCloud:
    """Deterministic equispaced points in the intrinsic parameters.

    Noise-free stand-in for sample() when isolating kernel-bandwidth bias
    from sampling fluctuation, in grid_size(n) points: the torus rounds n up
    to the next perfect square; the sphere uses a Fibonacci lattice.
    """
    m = get_manifold(manifold)
    return PointCloud(points=m._grid(m.grid_size(check_integer(n, "N", 2))))


def eval_pair(manifold: ManifoldDescriptor | str, fn_id: str, cloud: PointCloud):
    """Evaluate a registered test function and its Laplace-Beltrami image.

    Returns (f, lap) as two length-N arrays over the cloud's points; f is
    evaluated once and lap is eigenvalue * f.
    """
    fn = get_function(manifold, fn_id)
    f = np.asarray(fn.eval(cloud.points), dtype=np.float64)
    return f, fn.eigenvalue * f


def registry_payload() -> list[dict]:
    """JSON-ready registry listing (id, dims, volume, function ids)."""
    return [
        {
            **record_dict(m, ("name", "intrinsic_dim", "ambient_dim", "volume")),
            "functions": sorted(m.functions),
        }
        for m in map(MANIFOLDS.get, manifold_names())
    ]
