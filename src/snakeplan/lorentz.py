"""Lorentz form, group membership and decompositions on R^{1,n}.

Vectors are (n+1,) arrays with index 0 the time coordinate; matrices are
(n+1, n+1) arrays acting on them.  The bilinear form is
<(s,x),(t,y)>_L = <x,y> - s t, so J = diag(-1, Id_n) and the pseudo-adjoint
is A^# = J A^T J.  Boosts have the closed form

    exp_h(u) = Id + sinh(w)/w * U + (cosh(w)-1)/w^2 * U^2,   w = |u|,

with U the symmetric off-diagonal embedding of u.  Every Lorentz matrix
factors as A = diag(eps, Q) * T with Q orthogonal and T the unique boost
whose first row matches A's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "Membership",
    "LieElement",
    "BoostData",
    "BoostFactors",
    "lorentz_product",
    "pseudo_adjoint",
    "lorentz_residual",
    "classify",
    "exp_h",
    "log_boost",
    "boost_decompose",
    "kak_decompose",
    "bracket",
    "basis_U",
    "basis_Omega",
    "factorize",
    "block_l1_norm",
    "embed",
    "embed_lie",
    "spatial_block",
    "NotABoost",
    "NotLorentz",
]

DEFAULT_MEMBERSHIP_TOL = 1e-9
DEFAULT_FACTOR_TOL = 1e-8

# switch to Taylor forms of sinh(w)/w and (cosh(w)-1)/w^2 below this
_SMALL_OMEGA = 1e-4


class NotLorentz(ValueError):
    """Input matrix fails the Lorentz-membership residual test."""


class NotABoost(ValueError):
    """Input matrix is not a boost (asymmetry or spectral mismatch)."""


class Membership(enum.Enum):
    NOT_LORENTZ = "not_lorentz"
    O = "O"
    SO = "SO"
    SO0 = "SO0"


def lorentz_product(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(a[1:] @ b[1:] - a[0] * b[0])


def _minkowski_J(m: int) -> np.ndarray:
    J = np.eye(m)
    J[0, 0] = -1.0
    return J


def pseudo_adjoint(A: np.ndarray) -> np.ndarray:
    """J A^T J with J = diag(-1, Id); the adjoint for the Lorentz form."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("pseudo_adjoint needs a square matrix")
    out = A.T.copy()
    out[0, 1:] *= -1.0
    out[1:, 0] *= -1.0
    return out


def lorentz_residual(A: np.ndarray) -> float:
    """Frobenius norm of A^# A - Id."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    return float(np.linalg.norm(pseudo_adjoint(A) @ A - np.eye(m)))


def classify(A: np.ndarray, tol: float = DEFAULT_MEMBERSHIP_TOL) -> Membership:
    """Membership grade: O(n,1), then c>0 for SO, then det(Q)=+1 for SO0."""
    A = np.asarray(A, dtype=float)
    if lorentz_residual(A) > tol:
        return Membership.NOT_LORENTZ
    if A[0, 0] <= 0.0:
        return Membership.O
    _, Q, _ = _boost_factor(A)
    if np.linalg.det(Q) > 0.0:
        return Membership.SO0
    return Membership.SO


def _sinhc(w: float) -> float:
    if w < _SMALL_OMEGA:
        w2 = w * w
        return 1.0 + w2 / 6.0 + w2 * w2 / 120.0
    return np.sinh(w) / w


def _coshc2(w: float) -> float:
    if w < _SMALL_OMEGA:
        w2 = w * w
        return 0.5 + w2 / 24.0 + w2 * w2 / 720.0
    return (np.cosh(w) - 1.0) / (w * w)


def exp_h(u: np.ndarray) -> np.ndarray:
    """Closed-form boost exp of the symmetric embedding of u; u = 0 gives Id."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    n = u.shape[0]
    w = float(np.linalg.norm(u))
    A = np.eye(n + 1)
    s, c2 = _sinhc(w), _coshc2(w)
    A[0, 0] = np.cosh(w)
    A[0, 1:] = s * u
    A[1:, 0] = s * u
    A[1:, 1:] += c2 * np.outer(u, u)
    return A


def log_boost(T: np.ndarray, tol: float = DEFAULT_FACTOR_TOL) -> np.ndarray:
    """Recover u with exp_h(u) = T; rejects non-boosts.

    u = (w / sinh w) * v where v is the spatial part of T's first column and
    w = arccosh(T00).
    """
    T = np.asarray(T, dtype=float)
    if np.linalg.norm(T - T.T) > tol:
        raise NotABoost(f"asymmetry {np.linalg.norm(T - T.T):.3e} above tol")
    c = T[0, 0]
    if c < 1.0 - tol:
        raise NotABoost(f"T00 = {c} < 1")
    w = float(np.arccosh(max(c, 1.0)))
    v = T[1:, 0]
    if w < _SMALL_OMEGA:
        w2 = w * w
        u = (1.0 - w2 / 6.0 + 7.0 * w2 * w2 / 360.0) * v
    else:
        u = (w / np.sinh(w)) * v
    if np.linalg.norm(exp_h(u) - T) > tol * max(1.0, c):
        raise NotABoost("spectral mismatch: exp_h(log_boost(T)) != T")
    return u


@dataclass(frozen=True)
class BoostData:
    """Boost parameters: direction*magnitude v, c = sqrt(1+|v|^2), rapidity."""

    v: np.ndarray
    c: float
    alpha: float

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "BoostData":
        v = np.asarray(v, dtype=float)
        c = float(np.sqrt(1.0 + v @ v))
        return cls(v=v, c=c, alpha=float(np.arccosh(c)))

    def matrix(self) -> np.ndarray:
        """The boost T = [[c, v^T], [v, sqrt(Id + v v^T)]] in closed form."""
        n = self.v.shape[0]
        T = np.eye(n + 1)
        T[0, 0] = self.c
        T[0, 1:] = self.v
        T[1:, 0] = self.v
        vv = float(self.v @ self.v)
        if vv > 0.0:
            # rank-one square root: sqrt(Id + vv^T) = Id + ((c-1)/|v|^2) vv^T
            T[1:, 1:] += ((self.c - 1.0) / vv) * np.outer(self.v, self.v)
        return T


class BoostFactors(NamedTuple):
    epsilon: float
    Q: np.ndarray
    T: np.ndarray


def _boost_factor(A: np.ndarray) -> BoostFactors:
    A = np.asarray(A, dtype=float)
    eps = 1.0 if A[0, 0] >= 0.0 else -1.0
    v = eps * A[0, 1:]
    T = BoostData.from_vector(v).matrix()
    # T^{-1} is the boost of -v
    Tinv = BoostData.from_vector(-v).matrix()
    P = A @ Tinv
    return BoostFactors(eps, P[1:, 1:].copy(), T)


def boost_decompose(A: np.ndarray, tol: float = DEFAULT_FACTOR_TOL) -> BoostFactors:
    """Polar-type factorization A = diag(eps, Q) @ T, T the boost from A's first row."""
    A = np.asarray(A, dtype=float)
    eps, Q, T = _boost_factor(A)
    if np.linalg.norm(spatial_block(Q, eps) @ T - A) > tol * max(1.0, abs(A[0, 0])):
        raise NotLorentz(f"reconstruction residual above {tol}; input not Lorentz?")
    return BoostFactors(eps, Q, T)


def _axis_boost(alpha: float, m: int) -> np.ndarray:
    B = np.eye(m)
    B[0, 0] = B[1, 1] = np.cosh(alpha)
    B[0, 1] = B[1, 0] = np.sinh(alpha)
    return B


def kak_decompose(A: np.ndarray, tol: float = DEFAULT_FACTOR_TOL):
    """A = diag(1,Q') @ axis_boost(alpha, e1) @ diag(1, Q^T), Q special orthogonal.

    Requires classify(A) in {SO, SO0} (so eps = +1).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0] - 1
    eps, Q0, T = boost_decompose(A, tol=tol)
    if eps < 0:
        raise NotLorentz("kak_decompose needs an SO-grade input (c > 0)")
    data = BoostData.from_vector(T[0, 1:])
    alpha = data.alpha
    v = data.v
    if alpha == 0.0 or np.linalg.norm(v) == 0.0:
        Qv = np.eye(n)
    else:
        Qv = _completion_to_frame(v / np.linalg.norm(v))
    if n >= 2 and np.linalg.det(Qv) < 0.0:
        Qv[:, -1] *= -1.0  # fix det; flipped column is in the e1-stabilizer
    Qp = Q0 @ Qv
    recon = spatial_block(Qp) @ _axis_boost(alpha, n + 1) @ spatial_block(Qv).T
    if np.linalg.norm(recon - A) > tol * max(1.0, abs(A[0, 0])):
        raise NotLorentz("kak reconstruction residual above tol")
    return Qp, float(alpha), Qv


def _completion_to_frame(e: np.ndarray) -> np.ndarray:
    """Orthogonal Q with Q e1 = e (Householder reflection based, deterministic)."""
    n = e.shape[0]
    e1 = np.zeros(n)
    e1[0] = 1.0
    w = e - e1
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(n)
    w /= nw
    H = np.eye(n) - 2.0 * np.outer(w, w)  # H e1 = e, H orthogonal
    return H


def spatial_block(Q: np.ndarray, eps: float = 1.0) -> np.ndarray:
    """diag(eps, Q): Q on the spatial coordinates, eps on time; Q may be a stack."""
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[-1]
    out = np.zeros(Q.shape[:-2] + (n + 1, n + 1))
    out[..., 0, 0] = eps
    out[..., 1:, 1:] = Q
    return out


# ---------------------------------------------------------------------------
# Lie algebra so(n,1) = h + s
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieElement:
    """Element of so(n,1) split as (h-part u, s-part skew B).

    B is antisymmetrized at construction so skewness holds exactly.
    """

    u: np.ndarray
    skew: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        n = u.shape[0]
        B = self.skew
        B = np.zeros((n, n)) if B is None else np.asarray(B, dtype=float)
        if B.shape != (n, n):
            raise ValueError(f"skew part shape {B.shape} incompatible with u of dim {n}")
        B = 0.5 * (B - B.T)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(B))):
            raise ValueError("non-finite entries in LieElement")
        u.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "skew", B)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def matrix(self) -> np.ndarray:
        n = self.dim
        M = np.zeros((n + 1, n + 1))
        M[0, 1:] = self.u
        M[1:, 0] = self.u
        M[1:, 1:] = self.skew
        return M

    @classmethod
    def from_matrix(cls, M: np.ndarray) -> "LieElement":
        M = np.asarray(M, dtype=float)
        return cls(u=0.5 * (M[0, 1:] + M[1:, 0]), skew=M[1:, 1:])

    def __add__(self, other: "LieElement") -> "LieElement":
        return LieElement(self.u + other.u, self.skew + other.skew)

    def __rmul__(self, t: float) -> "LieElement":
        return LieElement(t * self.u, t * self.skew)

    def h_norm(self) -> float:
        return float(np.linalg.norm(self.u))

    def s_norm(self) -> float:
        return float(np.linalg.norm(self.skew))


def basis_U(i: int, n: int) -> LieElement:
    """U_i, 1-indexed boost generator."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    u = np.zeros(n)
    u[i - 1] = 1.0
    return LieElement(u=u)


def basis_Omega(i: int, j: int, n: int) -> LieElement:
    """Omega_ij, 1-indexed rotation generator: entry (i,j) = 1, (j,i) = -1."""
    if i == j:
        raise ValueError("Omega_ij needs i != j")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices ({i},{j}) out of range 1..{n}")
    B = np.zeros((n, n))
    B[i - 1, j - 1] = 1.0
    B[j - 1, i - 1] = -1.0
    return LieElement(u=np.zeros(n), skew=B)


def bracket(X: LieElement, Y: LieElement) -> LieElement:
    """Commutator of the embedded matrices, re-split into (h, s) parts.

    Split form keeps the grading exact: [h,h] lands in s, [h,s] in h, [s,s] in s.
    """
    if X.dim != Y.dim:
        raise ValueError("dimension mismatch in bracket")
    h = X.skew @ Y.u - Y.skew @ X.u
    s = np.outer(X.u, Y.u) - np.outer(Y.u, X.u) + X.skew @ Y.skew - Y.skew @ X.skew
    return LieElement(u=h, skew=s)


def embed(A: np.ndarray, m: int) -> np.ndarray:
    """Block-diagonal extension of a Lorentz matrix to spatial dimension m."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0] - 1
    if m < n:
        raise ValueError(f"cannot embed dimension {n} into smaller dimension {m}")
    out = np.eye(m + 1)
    out[: n + 1, : n + 1] = A
    return out


def embed_lie(X: LieElement, m: int) -> LieElement:
    n = X.dim
    if m < n:
        raise ValueError(f"cannot embed dimension {n} into smaller dimension {m}")
    u = np.zeros(m)
    u[:n] = X.u
    B = np.zeros((m, m))
    B[:n, :n] = X.skew
    return LieElement(u=u, skew=B)


def factorize(A: np.ndarray, tol: float = DEFAULT_FACTOR_TOL):
    """Global factorization A = prod_j Exp(theta_j B_j) * exp_h(u) for SO0 inputs.

    Returns (RotationBlocks of the orthogonal factor, boost vector u).
    """
    from .rotations import so_log

    A = np.asarray(A, dtype=float)
    if classify(A, tol=max(tol, DEFAULT_MEMBERSHIP_TOL)) is not Membership.SO0:
        raise NotLorentz("factorize needs an SO0 input")
    _, Q, T = boost_decompose(A, tol=tol)
    _, blocks = so_log(Q, tol=tol)
    u = log_boost(T, tol=tol)
    return blocks, u


def block_l1_norm(X: LieElement, tol: float = 1e-10) -> float:
    """|u| + 2 * sum_j (#2x2 planes in E_j) * theta_j from the s-part spectrum."""
    from .rotations import skew_spectral

    blocks = skew_spectral(X.skew, tol=tol)
    rot = sum(len(b.planes) * b.theta for b in blocks.blocks)
    return X.h_norm() + 2.0 * rot
