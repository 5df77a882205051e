"""Stereographic projection, reflections, hyperbolic distance and the
light-cone action of the Lorentz group on the unit sphere.

The sphere S^{n-1} sits in R^n with pole N = (1, 0, ..., 0); stereographic
projection sends (x1, xbar) to xbar/(1 - x1) in the hyperplane orthogonal
to e1, with N itself going to the point at infinity.  An SO0(n,1) matrix A
acts on the sphere through the projectivized forward light cone:
z maps to w.x/w.t where w = A (1, z).

The batched action stores the light-cone points of K nodes as columns,
W = A (1, z)^T of shape (..., n+1, K), so every elementwise pass runs over
rows of K contiguous nodes, and turns W's spatial rows into the images in
place, as (..., K, n) views of node-major (..., n, K) arrays.
"""

from __future__ import annotations

import numpy as np

from .lorentz import Membership, _axis_index, _plane_indices, classify
from .rotations import _plane_generator, planar_rotation

__all__ = [
    "INFINITY",
    "sphere_point",
    "tangent_at",
    "stereographic",
    "stereographic_inv",
    "reflect_sphere",
    "reflect_plane",
    "hyperbolic_distance",
    "lorentz_to_hyperbolic",
    "mobius_sphere_action_many",
    "xi_field",
    "xi_bracket",
    "bracket_rotation_flow",
    "NotOrthochronous",
]

POLE_THRESHOLD = 1e-14


class _Infinity:
    """The point at infinity of the extended hyperplane."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


class NotOrthochronous(ValueError):
    """Image ray left the forward light cone: input was not orthochronous."""


def sphere_point(z: np.ndarray) -> np.ndarray:
    """Renormalize a point, or every row of a stack (..., n), onto the unit
    sphere; rejects near-zero vectors."""
    z = np.asarray(z, dtype=float)
    r = np.linalg.norm(z, axis=-1)
    if np.any(r < 1e-12):
        raise ValueError("cannot normalize a (near) zero vector onto the sphere")
    return z / r[..., None]


def tangent_at(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project v onto the tangent space at z, v - <v, z> z: the sphere gradient
    of z -> <v, z>, and on a snake's nodes the horizontal field of v.  z and v
    may be stacks (..., n), and v broadcasts against z."""
    return v - np.einsum("...i,...i->...", v, z)[..., None] * z


def stereographic(z: np.ndarray):
    """(x1, xbar) -> xbar/(1 - x1); the pole N = (1, 0bar) maps to INFINITY."""
    z = sphere_point(z)
    denom = 1.0 - z[0]
    if denom < POLE_THRESHOLD:
        return INFINITY
    return z[1:] / denom


def stereographic_inv(p, dim: int | None = None) -> np.ndarray:
    """xbar -> ((|xbar|^2 - 1)/(|xbar|^2 + 1), 2 xbar/(|xbar|^2 + 1)); INFINITY -> N.

    dim is the sphere's ambient dimension, needed only for the INFINITY branch.
    """
    if p is INFINITY:
        if dim is None:
            raise ValueError("stereographic_inv(INFINITY) needs the ambient dimension")
        out = np.zeros(dim)
        out[0] = 1.0
        return out
    p = np.atleast_1d(np.asarray(p, dtype=float))
    r2 = float(p @ p)
    out = np.empty(p.shape[0] + 1)
    out[0] = (r2 - 1.0) / (r2 + 1.0)
    out[1:] = 2.0 * p / (r2 + 1.0)
    return out


def reflect_sphere(a: np.ndarray, r: float, x):
    """Inversion in the sphere S(a, r): x -> a + r^2 (x-a)/|x-a|^2, swapping a and INFINITY."""
    if r <= 0.0:
        raise ValueError("sphere radius must be positive")
    a = np.asarray(a, dtype=float)
    if x is INFINITY:
        return a.copy()
    x = np.asarray(x, dtype=float)
    d = x - a
    d2 = float(d @ d)
    if d2 < POLE_THRESHOLD**2:
        return INFINITY
    return a + (r * r / d2) * d


def reflect_plane(a: np.ndarray, t: float, x):
    """Reflection in the hyperplane <a, .> = t; fixes INFINITY."""
    a = np.asarray(a, dtype=float)
    a2 = float(a @ a)
    if a2 == 0.0:
        raise ValueError("plane normal must be nonzero")
    if x is INFINITY:
        return INFINITY
    x = np.asarray(x, dtype=float)
    return x + (2.0 * (t - a @ x) / a2) * a


def hyperbolic_distance(x: np.ndarray, y: np.ndarray) -> float:
    """arccosh( sqrt(1+|x|^2) sqrt(1+|y|^2) - <x,y> )."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    arg = np.sqrt(1.0 + x @ x) * np.sqrt(1.0 + y @ y) - x @ y
    return float(np.arccosh(max(arg, 1.0)))


def _require_so0(A: np.ndarray):
    if classify(A) is not Membership.SO0:
        raise NotOrthochronous("matrix is not in SO0(n,1)")


def lorentz_to_hyperbolic(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Action on the hyperboloid model pulled back to R^n: g^{-1}(A g(x)),
    g(x) = (sqrt(1+|x|^2), x); A must lie in SO0(n,1)."""
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    _require_so0(A)
    gx = np.concatenate([[np.sqrt(1.0 + x @ x)], x])
    y = A @ gx
    if y[0] <= 0.0:
        raise NotOrthochronous("image left the positive sheet")
    return y[1:]


def mobius_sphere_action_many(A: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Sphere action on the rows of Z (shape (k, n)).

    A is one matrix or a stack (..., n+1, n+1), every one in SO0(n,1); the
    images have shape (..., k, n) and are a view of a node-major (..., n, k)
    array.
    """
    A = np.asarray(A, dtype=float)
    Z = np.asarray(Z, dtype=float)
    for G in A.reshape((-1,) + A.shape[-2:]):
        _require_so0(G)
    # the images W_x / W_t of the columns W = A (1, z)^T, normalized in place
    W = A @ np.concatenate([np.ones((1, Z.shape[0])), Z.T])
    Wt, out = W[..., :1, :], W[..., 1:, :]
    if np.any(Wt <= 0.0):
        raise NotOrthochronous("some image ray left the forward light cone")
    out /= Wt
    out /= np.sqrt(np.einsum("...ik,...ik->...k", out, out))[..., None, :]
    return out.swapaxes(-1, -2)


def xi_field(i: int, z: np.ndarray) -> np.ndarray:
    """xi_i(z) = e_i - z_i z (1-indexed) at z or a stack (..., n), the gradient of z -> z_i."""
    z = sphere_point(z)
    n = z.shape[-1]
    _axis_index(i, n)
    return tangent_at(z, np.eye(n)[i - 1])


def xi_bracket(i: int, j: int, z: np.ndarray) -> np.ndarray:
    """[xi_i, xi_j](z) = z_i e_j - z_j e_i."""
    z = sphere_point(z)
    n = z.shape[0]
    _plane_indices(i, j, n)
    out = np.zeros(n)
    out[j - 1] = z[i - 1]
    out[i - 1] = -z[j - 1]
    return out


def bracket_rotation_flow(v: np.ndarray, w: np.ndarray, t: float, z: np.ndarray) -> np.ndarray:
    """Rotation of z by angle -t in the plane span(v, w), oriented by
    Gram-Schmidt on (v, w) in that order; identity on the complement."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    p = v / np.linalg.norm(v)
    q = tangent_at(p, w)
    nq = np.linalg.norm(q)
    if nq < 1e-12 * max(1.0, np.linalg.norm(w)):
        raise ValueError("bracket_rotation_flow needs linearly independent v, w")
    return planar_rotation(_plane_generator(p, q / nq), -t) @ sphere_point(z)
