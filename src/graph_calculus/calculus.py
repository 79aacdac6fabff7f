"""Discrete differential operators on a stored weight matrix.

W is the N x N ndarray from graph_core.build_weights. Vertex functions are
length-N float arrays; edge fields are N x N float arrays, like W.
Edges are all ordered pairs, so every unordered edge appears twice in edge
sums; the gradient is antisymmetric under edge reversal, general edge
fields need not be.

Sign convention: laplacian_matrix returns D^{-1/2} W D^{-1/2} - Id, which is
negative semidefinite. Its negation, Id - D^{-1/2} W D^{-1/2}, is available
as normalized_laplacian_matrix and has spectrum in [0, 2].

A Laplacian applied to one vector needs no stored W:
graph_core.laplacian_from_cloud computes it from the cloud. laplacian_apply
here is its stored-W reference.

Beware: the gradient of a constant function is NOT zero in general, because
vertex degrees differ. This is a property of the operator, not a bug.
"""

from __future__ import annotations

import numpy as np

from .graph_core import _check_degrees, _check_vertex_function

__all__ = [
    "gradient",
    "gradient_norm_at",
    "divergence",
    "laplacian_apply",
    "laplacian_matrix",
    "normalized_laplacian_matrix",
    "inner_vertex",
    "inner_edge",
]


def _check_edge_field(field, n: int) -> np.ndarray:
    field = np.asarray(field, dtype=np.float64)
    if field.shape != (n, n):
        raise ValueError(f"edge field has shape {field.shape}, expected ({n}, {n})")
    return field


def gradient(f, w: np.ndarray, d):
    """Edge derivative field of f.

    G(u, v) = sqrt(w(u,v) / (2 d(v))) f(v) - sqrt(w(u,v) / (2 d(u))) f(u)
    for every ordered edge; G(u, u) = 0 since both terms coincide. An edge
    with w(u, v) = 0 gets 0 or -0 (sqrt(0) times a negative difference).
    """
    n = w.shape[0]
    f = _check_vertex_function(f, n)
    d = _check_degrees(d, n)
    b = f / np.sqrt(d)
    return np.sqrt(w / 2.0) * (b[None, :] - b[:, None])


def gradient_norm_at(g, u: int) -> float:
    """Euclidean norm of the gradient row at vertex u: sqrt(sum_v G(u,v)^2)."""
    n = g.shape[0]
    if not 0 <= u < n:
        raise ValueError(f"vertex index {u} out of range [0, {n})")
    return float(np.sqrt(np.sum(np.asarray(g)[u] ** 2)))


def divergence(field, w: np.ndarray, d):
    """Graph divergence of an edge field.

    [div F](u) = sum_v sqrt(w(u,v) / (2 d(u))) * (F(u,v) - F(v,u)).
    Adjoint to the gradient: <grad g, F>_E = <g, -div F>_V. Symmetric fields
    (F(u,v) = F(v,u)) map to the zero vertex function.
    """
    n = w.shape[0]
    d = _check_degrees(d, n)
    field = _check_edge_field(field, n)
    coeff = np.sqrt(w / (2.0 * d[:, None]))
    return (coeff * (field - field.T)).sum(axis=1)


def laplacian_apply(f, w: np.ndarray, d):
    """Normalized graph Laplacian applied to f, by the closed-form sum on a stored W.

    Delta f(u) = sum_v w(u,v) / sqrt(d(u) d(v)) f(v) - f(u), the v = u term
    included. Equal to divergence(gradient(f)) (an identity the test suite
    checks). Kept as the stored-W reference: the tests compare
    graph_core.laplacian_from_cloud, which the library and CLI use, with it.
    """
    n = w.shape[0]
    f = _check_vertex_function(f, n)
    d = _check_degrees(d, n)
    root = np.sqrt(d)
    return (w @ (f / root)) / root - f


def laplacian_matrix(w: np.ndarray, d):
    """Matrix form D^{-1/2} W D^{-1/2} - Id."""
    n = w.shape[0]
    d = _check_degrees(d, n)
    return w / np.sqrt(np.outer(d, d)) - np.eye(n)


def normalized_laplacian_matrix(w: np.ndarray, d):
    """Positive-semidefinite alias Id - D^{-1/2} W D^{-1/2}, spectrum in [0, 2]."""
    lap = laplacian_matrix(w, d)
    return -lap


def inner_vertex(f, g) -> float:
    """Vertex-space scalar product sum_u f(u) g(u)."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != g.shape or f.ndim != 1:
        raise ValueError(f"length mismatch: {f.shape} vs {g.shape}")
    return float(np.dot(f, g))


def inner_edge(field_a, field_b) -> float:
    """Edge-space scalar product over all ordered edges, sum_e F(e) G(e)."""
    a = np.asarray(field_a, dtype=np.float64)
    b = np.asarray(field_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))
