"""Lorentz form, group membership and decompositions on R^{1,n}.

Vectors are (n+1,) arrays with index 0 the time coordinate; matrices are
(n+1, n+1) arrays acting on them.  The bilinear form is
<(s,x),(t,y)>_L = <x,y> - s t, so J = diag(-1, Id_n) and the pseudo-adjoint
is A^# = J A^T J.  Boosts have the closed form

    exp_h(u) = Id + sinh(w)/w * U + (cosh(w)-1)/w^2 * U^2,   w = |u|,

with U the symmetric off-diagonal embedding of u.  Every Lorentz matrix
factors as A = diag(eps, Q) * T with Q orthogonal and T = exp_h(u) the
unique boost whose first row is eps times A's.  One pass reads both from
A's first row and column: with v = eps * A[0, 1:], u = arcsinh|v| / |v| * v
and Q = A[1:, 1:] - A[1:, 0] v^T / (1 + |A00|), as Q v = A[1:, 0] and T
fixes the spatial directions orthogonal to v.  Membership tests
|A^# A - Id|_F against tol * |A|_2^2, |A|_2 = |A00| + |A[0, 1:]| = e^{|u|}.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "Membership",
    "LieElement",
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


def _positive(name: str, value: float) -> None:
    """Reject a length, step or tolerance that is not positive and finite."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _norm2(A: np.ndarray) -> float:
    """|A|_2 = |A00| + |A[0, 1:]| = e^{|u|} of a Lorentz matrix, from its first row."""
    return float(abs(A[0, 0]) + np.linalg.norm(A[0, 1:]))


def _grade(A: np.ndarray, tol: float):
    """Membership grade of A and its factor pass (None when A is not Lorentz)."""
    if lorentz_residual(A) > tol * _norm2(A) ** 2:
        return Membership.NOT_LORENTZ, None
    factor = _boost_factor(A)
    eps, Q, _ = factor
    if eps < 0.0:
        return Membership.O, factor
    return (Membership.SO0 if np.linalg.det(Q) > 0.0 else Membership.SO), factor


def classify(A: np.ndarray) -> Membership:
    """Membership grade: O(n,1), then c>0 for SO, then det(Q)=+1 for SO0."""
    return _grade(np.asarray(A, dtype=float), DEFAULT_MEMBERSHIP_TOL)[0]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of x (..., n); row-wise dot products round
    like np.linalg.norm of one vector."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def exp_h(u: np.ndarray) -> np.ndarray:
    """Closed-form boost exp of the symmetric embedding of u; u = 0 gives Id.

    A stack u (..., n) gives a stack (..., n+1, n+1), one boost per row.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    n = u.shape[-1]
    w = _row_norms(u)
    small = w < _SMALL_OMEGA
    w2 = w * w
    safe = np.where(small, 1.0, w)
    ch = np.cosh(w)
    s = np.where(small, 1.0 + w2 / 6.0 + w2 * w2 / 120.0, np.sinh(w) / safe)
    c2 = np.where(small, 0.5 + w2 / 24.0 + w2 * w2 / 720.0, (ch - 1.0) / (safe * safe))
    A = np.zeros(u.shape[:-1] + (n + 1, n + 1))
    A[..., 0, 0] = ch
    A[..., 0, 1:] = A[..., 1:, 0] = s[..., None] * u
    A[..., 1:, 1:] = np.eye(n) + c2[..., None, None] * (u[..., :, None] * u[..., None, :])
    return A


def log_boost(T: np.ndarray) -> np.ndarray:
    """Recover u with exp_h(u) = T, read from T's first row; rejects non-boosts."""
    T = np.asarray(T, dtype=float)
    if np.linalg.norm(T - T.T) > DEFAULT_FACTOR_TOL * _norm2(T):
        raise NotABoost(f"asymmetry {np.linalg.norm(T - T.T):.3e} above tol |T|_2")
    if T[0, 0] < 1.0 - DEFAULT_FACTOR_TOL:
        raise NotABoost(f"T00 = {T[0, 0]} < 1")
    u = _boost_factor(T)[2]
    if np.linalg.norm(exp_h(u) - T) > DEFAULT_FACTOR_TOL * max(1.0, T[0, 0]):
        raise NotABoost("spectral mismatch: exp_h(log_boost(T)) != T")
    return u


class BoostFactors(NamedTuple):
    epsilon: float
    Q: np.ndarray
    T: np.ndarray


def _boost_factor(A: np.ndarray) -> tuple:
    """(eps, Q, u) with A = diag(eps, Q) @ exp_h(u), in closed form (module docstring)."""
    eps = 1.0 if A[0, 0] >= 0.0 else -1.0
    v = eps * A[0, 1:]
    w = float(np.linalg.norm(v))
    Q = A[1:, 1:] - A[1:, 0, None] * v / (1.0 + abs(A[0, 0]))
    return eps, Q, np.arcsinh(w) / w * v if w > 0.0 else v


def boost_decompose(A: np.ndarray) -> BoostFactors:
    """Polar-type factorization A = diag(eps, Q) @ T, T the boost from A's
    first row; A is admitted by classify's membership test."""
    _, factor = _grade(np.asarray(A, dtype=float), DEFAULT_MEMBERSHIP_TOL)
    if factor is None:
        raise NotLorentz("boost_decompose needs a Lorentz input")
    eps, Q, u = factor
    return BoostFactors(eps, Q, exp_h(u))


def kak_decompose(A: np.ndarray):
    """A = diag(1,Q') @ exp_h(alpha * e1) @ diag(1, Q^T), Q special orthogonal.

    Requires classify(A) in {SO, SO0} (so eps = +1); alpha = |u| and the
    axis u/|u| come from the factor pass.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0] - 1
    grade, factor = _grade(A, DEFAULT_MEMBERSHIP_TOL)
    if grade not in (Membership.SO, Membership.SO0):
        raise NotLorentz(f"kak_decompose needs an SO-grade input, got {grade.value}")
    _, Q0, u = factor
    alpha = float(np.linalg.norm(u))
    Qv = _completion_to_frame(u / alpha) if alpha > 0.0 else np.eye(n)
    if n >= 2 and np.linalg.det(Qv) < 0.0:
        Qv[:, -1] *= -1.0  # fix det; flipped column is in the e1-stabilizer
    return Q0 @ Qv, alpha, Qv


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
    """diag(eps, Q): Q on the spatial coordinates, eps on time; Q may be a
    stack, and an (n, d) frame gives the (n+1, d+1) diag(1, frame)."""
    Q = np.asarray(Q, dtype=float)
    out = np.zeros(Q.shape[:-2] + (Q.shape[-2] + 1, Q.shape[-1] + 1))
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

    def __rmul__(self, t: float) -> "LieElement":
        return LieElement(t * self.u, t * self.skew)

    def h_norm(self) -> float:
        return float(np.linalg.norm(self.u))

    def s_norm(self) -> float:
        return float(np.linalg.norm(self.skew))


def _axis_index(i: int, n: int) -> None:
    """Reject an axis index i of R^n outside 1..n."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")


def _plane_indices(i: int, j: int, n: int) -> None:
    """Reject a coordinate plane (i, j) of R^n unless i != j, both in 1..n."""
    if i == j:
        raise ValueError(f"plane indices ({i},{j}) must differ")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"plane indices ({i},{j}) out of range 1..{n}")


def basis_Omega(i: int, j: int, n: int) -> LieElement:
    """Omega_ij, 1-indexed rotation generator: entry (i,j) = 1, (j,i) = -1."""
    _plane_indices(i, j, n)
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


def factorize(A: np.ndarray):
    """Global factorization A = prod_j Exp(theta_j B_j) * exp_h(u) for SO0 inputs.

    A is admitted by classify's membership test.  Q's rounding defect grows
    like eps |A|_2, so its orthogonality test is DEFAULT_FACTOR_TOL * |A|_2.
    Returns (RotationBlocks of the orthogonal factor, boost vector u).
    """
    from .rotations import _so_log_within

    A = np.asarray(A, dtype=float)
    grade, factor = _grade(A, DEFAULT_MEMBERSHIP_TOL)
    if grade is not Membership.SO0:
        raise NotLorentz(f"factorize needs an SO0 input, got {grade.value}")
    _, Q, u = factor
    return _so_log_within(Q, DEFAULT_FACTOR_TOL * _norm2(A)), u


def block_l1_norm(X: LieElement) -> float:
    """|u| + 2 * sum_j (#2x2 planes in E_j) * theta_j from the s-part spectrum."""
    from .rotations import skew_spectral

    blocks = skew_spectral(X.skew)
    rot = sum(len(b.planes) * b.theta for b in blocks.blocks)
    return X.h_norm() + 2.0 * rot
