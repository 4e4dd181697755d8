"""Catalog of maximally monotone operators on R^d with closed-form resolvents.

Every operator here is separable or affine, so set values are interval
products, resolvents are exact formulas, and all the set computations a
certificate needs (distances, one-sided Hausdorff excess, minimal-norm
selections) reduce to per-coordinate interval arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    InvariantViolation,
    NonPositiveParameter,
    SingularSystem,
)

_SYM_TOL = 1e-9
_PSD_TOL = 1e-9


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate and convert to a finite 1-D float64 vector."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatch(f"points are 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError("points must have finite coordinates")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.shape[0]}")
    return v


@dataclass(frozen=True, eq=False)
class ValueSet:
    """A per-coordinate interval product [lo_1, hi_1] x ... x [lo_d, hi_d].

    Endpoints may be -inf/+inf (normal cones); lo <= hi coordinatewise and a
    lower endpoint is never +inf, an upper never -inf.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch("interval product needs matching 1-D bounds")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise InvariantViolation("interval bounds cannot be NaN")
        if np.any(lo > hi):
            raise InvariantViolation("interval product needs lo <= hi")
        if np.any(lo == np.inf) or np.any(hi == -np.inf):
            raise InvariantViolation("degenerate infinite endpoints")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @classmethod
    def singleton(cls, v) -> "ValueSet":
        v = as_point(v)
        return cls(v.copy(), v.copy())

    def contains(self, p, tol: float = 0.0) -> bool:
        p = as_point(p, self.dim)
        return bool(np.all(p >= self.lo - tol) and np.all(p <= self.hi + tol))

    def dist_point(self, p) -> float:
        """Euclidean distance from point p to the set (exact per coordinate)."""
        p = as_point(p, self.dim)
        total = 0.0
        for i in range(self.dim):
            below = self.lo[i] - p[i]
            above = p[i] - self.hi[i]
            gap = max(below, above, 0.0)
            total += gap * gap
        return math.sqrt(total)

    def project(self, p) -> np.ndarray:
        """Nearest point of the set to p (per-coordinate clamp)."""
        p = as_point(p, self.dim)
        return np.minimum(np.maximum(p, self.lo), self.hi)

    def minkowski_diff(self, other: "ValueSet") -> "ValueSet":
        """The interval product {u - v : u in self, v in other}."""
        if other.dim != self.dim:
            raise DimensionMismatch("dimension mismatch in set difference")
        return ValueSet(self.lo - other.hi, self.hi - other.lo)


def sup_dist_sq(p_set: ValueSet, q_set: ValueSet) -> float:
    """sup over p in P of dist(p, Q)^2, exact for interval products.

    Per coordinate the farthest p sits at an endpoint of P's interval, so the
    worst-case excess is max(Q.lo - P.lo, P.hi - Q.hi, 0).
    """
    if p_set.dim != q_set.dim:
        raise DimensionMismatch("dimension mismatch in excess computation")
    total = 0.0
    for i in range(p_set.dim):
        plo, phi = p_set.lo[i], p_set.hi[i]
        qlo, qhi = q_set.lo[i], q_set.hi[i]
        below = 0.0 if (plo == -np.inf and qlo == -np.inf) else qlo - plo
        above = 0.0 if (phi == np.inf and qhi == np.inf) else phi - qhi
        gap = max(below, above, 0.0)
        if gap == np.inf:
            return float("inf")
        total += gap * gap
    return total


# --------------------------------------------------------------------------
# the operator catalog
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AffinePSD:
    """x -> {A x + b} with A symmetric positive semidefinite."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        b = np.asarray(self.offset, dtype=float)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "offset", b)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch("matrix must be square")
        if b.ndim != 1 or b.shape[0] != a.shape[0]:
            raise DimensionMismatch("offset dimension must match matrix")
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
            raise InvariantViolation("affine operator data must be finite")
        if np.max(np.abs(a - a.T), initial=0.0) > _SYM_TOL:
            raise InvariantViolation("matrix must be symmetric within 1e-9")
        if a.size and np.min(np.linalg.eigvalsh(a)) < -_PSD_TOL:
            raise InvariantViolation("matrix must be positive semidefinite within 1e-9")
        # the d = 1 forms read (a, b) as floats
        ab = (float(a[0, 0]), float(b[0])) if b.shape == (1,) else None
        object.__setattr__(self, "_ab", ab)

    @property
    def dim(self) -> int:
        return self.offset.shape[0]

    def resolvent1(self, lam: float, x: float) -> float:
        """The d = 1 resolvent on floats, bit-identical to the 1x1 solve."""
        a, b = self._ab
        den = 1.0 + lam * a
        if den == 0.0:
            raise SingularSystem("Singular matrix")
        return (x - lam * b) / den

    def yosida1(self, lam: float, x: float) -> float:
        return (x - self.resolvent1(lam, x)) / lam

    @property
    def is_diagonal(self) -> bool:
        return bool(np.all(self.matrix == np.diag(np.diagonal(self.matrix))))


@dataclass(frozen=True)
class SubdiffAbsSum:
    """Subdifferential of x -> sum_i |x_i| (coordinatewise sign intervals)."""

    dim: int

    # The d = 1 forms reproduce np.sign(x) * (...) with its signed zeros:
    # np.sign(-0.0) is +0.0, and a negative x clipped to 0 gives -0.0.

    def resolvent1(self, lam: float, x: float) -> float:
        m = abs(x) - lam
        if not m > 0.0:
            m = 0.0
        if x > 0.0:
            return m
        return -m if x < 0.0 else 0.0

    def yosida1(self, lam: float, x: float) -> float:
        q = abs(x) / lam
        if not q < 1.0:
            q = 1.0
        if x > 0.0:
            return q
        return -q if x < 0.0 else 0.0


@dataclass(frozen=True, eq=False)
class NormalConeBox:
    """Normal cone of the box [lo, hi]; domain is the box itself."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch("box needs matching 1-D bounds")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InvariantViolation("box bounds must be finite")
        if np.any(lo > hi):
            raise InvariantViolation("box needs lo <= hi")
        lohi = (float(lo[0]), float(hi[0])) if lo.shape == (1,) else None
        object.__setattr__(self, "_lohi", lohi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def resolvent1(self, lam: float, x: float) -> float:
        """The d = 1 clamp; like np.maximum/np.minimum it returns the bound on
        a tie, which decides the sign of a zero at an endpoint."""
        lo, hi = self._lohi
        v = x if x > lo else lo
        return v if v < hi else hi

    def yosida1(self, lam: float, x: float) -> float:
        return (x - self.resolvent1(lam, x)) / lam


@dataclass(frozen=True)
class ZeroOperator:
    """x -> {0}."""

    dim: int

    def resolvent1(self, lam: float, x: float) -> float:
        return x

    def yosida1(self, lam: float, x: float) -> float:
        return (x - x) / lam


def domain_contains(op, x, tol: float = 0.0) -> bool:
    """Membership in the (closed) domain; only the normal cone restricts it."""
    x = as_point(x, op.dim)
    if isinstance(op, NormalConeBox):
        return bool(np.all(x >= op.lo - tol) and np.all(x <= op.hi + tol))
    return True


def evaluate(op, x) -> ValueSet:
    """The set value at x as an interval product."""
    x = as_point(x, op.dim)
    if isinstance(op, AffinePSD):
        return ValueSet.singleton(op.matrix @ x + op.offset)
    if isinstance(op, SubdiffAbsSum):
        lo = np.where(x > 0, 1.0, np.where(x < 0, -1.0, -1.0))
        hi = np.where(x > 0, 1.0, np.where(x < 0, -1.0, 1.0))
        return ValueSet(lo, hi)
    if isinstance(op, NormalConeBox):
        if not domain_contains(op, x):
            raise DomainError("point outside the box domain of the normal cone")
        lo = np.where(x == op.lo, -np.inf, 0.0)
        hi = np.where(x == op.hi, np.inf, 0.0)
        return ValueSet(lo, hi)
    if isinstance(op, ZeroOperator):
        return ValueSet.singleton(np.zeros(op.dim))
    raise TypeError(f"unknown operator {op!r}")


def resolvent(op, lam: float, x) -> np.ndarray:
    """(Id + lam * op)^(-1) at x, exact closed forms."""
    if not lam > 0:
        raise NonPositiveParameter(f"resolvent parameter must be > 0, got {lam}")
    x = as_point(x, op.dim)
    if isinstance(op, AffinePSD):
        sys = np.eye(op.dim) + lam * op.matrix
        try:
            return np.linalg.solve(sys, x - lam * op.offset)
        except np.linalg.LinAlgError as exc:  # PSD keeps this invertible
            raise SingularSystem(str(exc)) from exc
    if isinstance(op, SubdiffAbsSum):
        return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
    if isinstance(op, NormalConeBox):
        return np.minimum(np.maximum(x, op.lo), op.hi)
    if isinstance(op, ZeroOperator):
        return x.copy()
    raise TypeError(f"unknown operator {op!r}")


def resolvent_batch(op, lams: np.ndarray, x) -> np.ndarray:
    """Resolvents of one point at many parameters, shape (len(lams), d)."""
    lams = np.asarray(lams, dtype=float)
    if np.any(lams <= 0):
        raise NonPositiveParameter("resolvent parameters must be > 0")
    x = as_point(x, op.dim)
    if isinstance(op, SubdiffAbsSum):
        return np.sign(x)[None, :] * np.maximum(np.abs(x)[None, :] - lams[:, None], 0.0)
    if isinstance(op, NormalConeBox):
        return np.broadcast_to(
            np.minimum(np.maximum(x, op.lo), op.hi), (lams.shape[0], op.dim)
        ).copy()
    if isinstance(op, ZeroOperator):
        return np.broadcast_to(x, (lams.shape[0], op.dim)).copy()
    return np.stack([resolvent(op, float(l), x) for l in lams])


def yosida(op, lam: float, x) -> np.ndarray:
    """(x - resolvent(op, lam, x)) / lam: the single-valued approximant."""
    x = as_point(x, op.dim)
    if isinstance(op, SubdiffAbsSum):
        if not lam > 0:
            raise NonPositiveParameter(f"resolvent parameter must be > 0, got {lam}")
        # saturated coordinates give exactly +-1; the generic difference
        # quotient would round x - soft(x, lam) and magnify that by 1/lam
        return np.sign(x) * np.minimum(np.abs(x) / lam, 1.0)
    return (x - resolvent(op, lam, x)) / lam


def minimal_selection(op, x) -> np.ndarray:
    """The least-norm element of the value set (projection of the origin)."""
    vs = evaluate(op, x)
    return vs.project(np.zeros(vs.dim))


def hstar_check(p_set: ValueSet, q_set: ValueSet, eps: float) -> bool:
    """One-sided Hausdorff excess test: every p in P within eps of Q.

    Decided exactly for interval products via per-coordinate worst cases.
    """
    if eps < 0:
        raise ValueError("excess threshold must be >= 0")
    return sup_dist_sq(p_set, q_set) <= eps * eps


def resolvent_identity_residual(op, gamma: float, lam: float, x) -> float:
    """Residual of the two-parameter resolvent identity
    J_gamma x = J_{lam*gamma}(lam*x + (1-lam)*J_gamma x)."""
    if not gamma > 0:
        raise NonPositiveParameter(f"gamma must be > 0, got {gamma}")
    if not lam > 0:
        raise NonPositiveParameter(f"lambda must be > 0, got {lam}")
    x = as_point(x, op.dim)
    j = resolvent(op, gamma, x)
    rhs = resolvent(op, lam * gamma, lam * x + (1.0 - lam) * j)
    return float(np.linalg.norm(j - rhs))


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def operator_to_json(op) -> dict:
    if isinstance(op, AffinePSD):
        return {
            "kind": "affine_psd",
            "matrix": [[float(v) for v in row] for row in op.matrix],
            "offset": [float(v) for v in op.offset],
        }
    if isinstance(op, SubdiffAbsSum):
        return {"kind": "subdiff_abs", "dim": op.dim}
    if isinstance(op, NormalConeBox):
        return {
            "kind": "normal_cone_box",
            "lo": [float(v) for v in op.lo],
            "hi": [float(v) for v in op.hi],
        }
    if isinstance(op, ZeroOperator):
        return {"kind": "zero", "dim": op.dim}
    raise TypeError(f"unknown operator {op!r}")


def operator_from_json(obj: dict):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"not a serialized operator: {obj!r}")
    kind = obj["kind"]
    fields_by_kind = {
        "affine_psd": {"matrix", "offset"},
        "subdiff_abs": {"dim"},
        "normal_cone_box": {"lo", "hi"},
        "zero": {"dim"},
    }
    if kind not in fields_by_kind:
        raise ValueError(f"unknown operator kind {kind!r}")
    extra = set(obj) - {"kind"} - fields_by_kind[kind]
    if extra:
        raise ValueError(f"unknown operator fields {sorted(extra)}")
    if kind == "affine_psd":
        return AffinePSD(np.array(obj["matrix"], dtype=float), np.array(obj["offset"], dtype=float))
    if kind == "subdiff_abs":
        return SubdiffAbsSum(int(obj["dim"]))
    if kind == "normal_cone_box":
        return NormalConeBox(np.array(obj["lo"], dtype=float), np.array(obj["hi"], dtype=float))
    return ZeroOperator(int(obj["dim"]))
