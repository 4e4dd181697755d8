"""Catalog of maximally monotone operators on R^d with closed-form resolvents.

Every operator here is separable or affine, so set values are interval
products, resolvents are exact formulas, and all the set computations a
certificate needs (membership, distances, least-norm elements) reduce to
per-coordinate interval arithmetic.

A value set is a pair of bound arrays ``(lo, hi)``: the product of the
intervals [lo_i, hi_i], with -inf/+inf endpoints for rays (normal cones).
``value_rows(op, xs)`` gives one bound row per point, checked by
``check_bounds``; ``evaluate(op, x)`` is its one-row case. ``in_box`` decides
membership, ``least_norm`` the least-norm element and ``dist_sq_rows`` the
squared distance from a point, each in one place.

Each catalog class owns its forms over an (N, d) array of points: its value
sets as bound rows (``value_rows``), its domain as a box (``domain()``) and
a row mask (``domain_rows``), its resolvent and Yosida approximant with one
parameter per row (``resolvent_rows``, ``yosida_rows``), the scalar forms
the d = 1 stepper runs on floats (``resolvent1``, ``yosida1``) and its JSON
form (``kind`` and ``json_fields``). The per-point ``evaluate``,
``domain_contains``, ``resolvent`` and ``yosida`` are one-row cases of the
row forms, so each of these is decided in one place.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    InvariantViolation,
    NonPositiveParameter,
    SingularSystem,
)
from .fields import FLOATS, INTEGER, Record, field, read_form, string, write_form

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


def as_rows(xs, dim: int) -> np.ndarray:
    """Validate and convert to an (N, dim) float64 array of finite points."""
    v = np.asarray(xs, dtype=float)
    if v.ndim != 2:
        raise DimensionMismatch(f"point rows are 2-D, got shape {v.shape}")
    # count_nonzero is the cheapest full check on the one-row calls of the
    # d > 1 stepper, two per step
    if np.count_nonzero(np.isfinite(v)) != v.size:
        raise DomainError("points must have finite coordinates")
    if v.shape[1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.shape[1]}")
    return v


def check_bounds(lo: np.ndarray, hi: np.ndarray) -> None:
    """The interval-product invariants, on bound arrays of any matching shape.

    One reduction decides the good case (a NaN fails ``lo <= hi``); only a
    failure runs the checks below, which name the first broken invariant."""
    if lo.shape == hi.shape and ((lo <= hi) & (lo < np.inf) & (hi > -np.inf)).all():
        return
    if lo.shape != hi.shape:
        raise DimensionMismatch("interval product needs matching bounds")
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
        raise InvariantViolation("interval bounds cannot be NaN")
    if np.any(lo > hi):
        raise InvariantViolation("interval product needs lo <= hi")
    if np.any(lo == np.inf) or np.any(hi == -np.inf):
        raise InvariantViolation("degenerate infinite endpoints")


def in_box(lo: np.ndarray, hi: np.ndarray, p, tol: float = 0.0) -> bool:
    """Whether the point p lies in the product of [lo_i - tol, hi_i + tol]."""
    p = as_point(p, lo.shape[0])
    return bool(np.all(p >= lo - tol) and np.all(p <= hi + tol))


def least_norm(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The least-norm point of each box: the origin clamped into [lo, hi]."""
    return np.minimum(np.maximum(0.0, lo), hi)


def dist_sq_rows(lo: np.ndarray, hi: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Row i: the squared Euclidean distance from ps[i] to the product of
    [lo[i], hi[i]].

    Exact per coordinate, summed from 0.0 in coordinate order like a
    per-point loop; a ray endpoint gives a gap of 0 on its side.
    """
    total = np.zeros(ps.shape[0])
    for i in range(ps.shape[1]):
        gap = np.maximum(np.maximum(lo[:, i] - ps[:, i], ps[:, i] - hi[:, i]), 0.0)
        total = total + gap * gap
    return total


def dist_rows(lo: np.ndarray, hi: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Row i: the Euclidean distance from ps[i] to the product of [lo[i], hi[i]]."""
    return np.sqrt(dist_sq_rows(lo, hi, ps))


def row_norms(r: np.ndarray) -> np.ndarray:
    """Row i: np.linalg.norm(r[i]), bit for bit.

    A stacked (1, d) @ (d, 1) product takes the same dot kernel as the
    single-vector norm; np.linalg.norm(r, axis=1) rounds differently.
    """
    squares = (r[:, None, :] @ r[:, :, None])[:, 0, 0]
    return np.sqrt(squares, out=squares)


# --------------------------------------------------------------------------
# the operator catalog
# --------------------------------------------------------------------------


class _Operator(Record):
    """The forms most catalog classes share.

    A subclass names its JSON ``kind`` and declares its JSON form
    (``json_fields``: each record field to its ``fields.Field``), and defines
    ``resolvent_rows``, ``value_rows`` and the scalar ``resolvent1``, which
    serves d = 1 only and equals row 0 of a one-row ``resolvent_rows`` bit
    for bit. A subclass with a smaller domain than R^d overrides
    ``domain()``.
    """

    def yosida1(self, lam: float, x: float) -> float:
        return (x - self.resolvent1(lam, x)) / lam

    def yosida_rows(self, lams: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return (xs - self.resolvent_rows(lams, xs)) / lams[:, None]

    def domain(self) -> tuple:
        """The domain as the bound pair (lo, hi) of a box: all of R^d."""
        return np.full(self.dim, -np.inf), np.full(self.dim, np.inf)

    def domain_rows(self, xs: np.ndarray, tol: float = 0.0) -> np.ndarray:
        lo, hi = self.domain()
        return np.all(xs >= lo - tol, axis=1) & np.all(xs <= hi + tol, axis=1)


class AffinePSD(_Operator):
    """x -> {A x + b} with A symmetric positive semidefinite."""

    kind = "affine_psd"
    json_fields = {"matrix": FLOATS, "offset": FLOATS}

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
        # the d = 1 forms read (a, b) as floats; the row forms reuse one identity
        ab = (float(a[0, 0]), float(b[0])) if b.shape == (1,) else None
        object.__setattr__(self, "_ab", ab)
        object.__setattr__(self, "_eye", np.eye(a.shape[0]))

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

    # stacked products and solves take the per-point kernels row by row;
    # xs @ A.T or one solve with many right-hand sides round differently

    def value_rows(self, xs: np.ndarray):
        v = np.matmul(self.matrix, xs[:, :, None])[..., 0] + self.offset
        if not np.all(np.isfinite(v)):
            raise DomainError("points must have finite coordinates")
        return v, v

    def resolvent_rows(self, lams: np.ndarray, xs: np.ndarray) -> np.ndarray:
        if self._ab is not None:  # d = 1: resolvent1 row by row, no LAPACK call
            a, b = self._ab
            den = 1.0 + lams * a
            if np.any(den == 0.0):
                raise SingularSystem("Singular matrix")
            return (xs - lams[:, None] * b) / den[:, None]
        sys = self._eye + lams[:, None, None] * self.matrix
        rhs = (xs - lams[:, None] * self.offset)[..., None]
        try:
            return np.linalg.solve(sys, rhs)[..., 0]
        except np.linalg.LinAlgError as exc:  # PSD keeps this invertible
            raise SingularSystem(str(exc)) from exc

    @property
    def is_diagonal(self) -> bool:
        return bool(np.all(self.matrix == np.diag(np.diagonal(self.matrix))))


class SubdiffAbsSum(_Operator, eq=True):
    """Subdifferential of x -> sum_i |x_i| (coordinatewise sign intervals)."""

    kind = "subdiff_abs"
    json_fields = {"dim": INTEGER}

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

    def value_rows(self, xs: np.ndarray):
        return np.where(xs > 0, 1.0, -1.0), np.where(xs < 0, -1.0, 1.0)

    def resolvent_rows(self, lams: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return np.sign(xs) * np.maximum(np.abs(xs) - lams[:, None], 0.0)

    def yosida_rows(self, lams: np.ndarray, xs: np.ndarray) -> np.ndarray:
        # saturated coordinates give exactly +-1; the generic difference
        # quotient would round x - soft(x, lam) and magnify that by 1/lam
        return np.sign(xs) * np.minimum(np.abs(xs) / lams[:, None], 1.0)


class NormalConeBox(_Operator):
    """Normal cone of the box [lo, hi]; domain is the box itself."""

    kind = "normal_cone_box"
    json_fields = {"lo": FLOATS, "hi": FLOATS}

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

    def value_rows(self, xs: np.ndarray):
        if not np.all(self.domain_rows(xs)):
            raise DomainError("point outside the box domain of the normal cone")
        return np.where(xs == self.lo, -np.inf, 0.0), np.where(xs == self.hi, np.inf, 0.0)

    def domain(self) -> tuple:
        return self.lo, self.hi

    def resolvent_rows(self, lams: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(xs, self.lo), self.hi)


class ZeroOperator(_Operator, eq=True):
    """x -> {0}."""

    kind = "zero"
    json_fields = {"dim": INTEGER}

    dim: int

    def resolvent1(self, lam: float, x: float) -> float:
        return x

    def value_rows(self, xs: np.ndarray):
        zero = np.zeros_like(xs)
        return zero, zero

    def resolvent_rows(self, lams: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return xs.copy()


def domain_contains(op, x, tol: float = 0.0) -> bool:
    """Membership in the (closed) domain; only the normal cone restricts it."""
    x = as_point(x, op.dim)
    return bool(op.domain_rows(x[None], tol)[0])


def value_rows(op, xs) -> tuple:
    """Row i of (lo, hi) bounds the value set of op at xs[i]; shape (N, d) each."""
    lo, hi = op.value_rows(as_rows(xs, op.dim))
    check_bounds(lo, hi)
    return lo, hi


def evaluate(op, x) -> tuple:
    """The value set at x as its bounds (lo, hi): the one-row case of value_rows."""
    lo, hi = value_rows(op, as_point(x, op.dim)[None])
    return lo[0], hi[0]


def _row_args(op, lams, xs) -> tuple:
    """The checked (lams, xs) of a row form: every parameter > 0, finite rows
    of op's dimension, one parameter per row."""
    lams = np.asarray(lams, dtype=float)
    if np.count_nonzero(lams > 0) != lams.size:  # NaN counts as not > 0
        raise NonPositiveParameter("resolvent parameters must be > 0")
    xs = as_rows(xs, op.dim)
    if lams.shape != (xs.shape[0],):
        raise DimensionMismatch(
            f"need one parameter per row: {lams.shape} for {xs.shape[0]} rows"
        )
    return lams, xs


def resolvent_rows(op, lams, xs) -> np.ndarray:
    """Row i is (Id + lams[i] * op)^(-1) at xs[i], exact closed forms; shape (N, d)."""
    return op.resolvent_rows(*_row_args(op, lams, xs))


def yosida_rows(op, lams, xs) -> np.ndarray:
    """Row i is the Yosida approximant (xs[i] - J_{lams[i]} xs[i]) / lams[i]."""
    return op.yosida_rows(*_row_args(op, lams, xs))


def resolvent(op, lam: float, x) -> np.ndarray:
    """(Id + lam * op)^(-1) at x: the one-row case of resolvent_rows."""
    return resolvent_rows(op, (lam,), (np.atleast_1d(x),))[0]


def yosida(op, lam: float, x) -> np.ndarray:
    """The Yosida approximant (x - J_lam x) / lam: the one-row case of yosida_rows."""
    return yosida_rows(op, (lam,), (np.atleast_1d(x),))[0]


def minimal_selection(op, x) -> np.ndarray:
    """The least-norm element of the value set at x."""
    return least_norm(*evaluate(op, x))


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


_CATALOG = {cls.kind: cls for cls in (AffinePSD, SubdiffAbsSum, NormalConeBox, ZeroOperator)}


def operator_to_json(op) -> dict:
    return {"kind": op.kind, **write_form(op, op.json_fields)}


def operator_from_json(obj: dict):
    kind = field(obj, "kind", string)
    if kind not in _CATALOG:
        raise ConfigError(f"unknown operator kind {kind!r}")
    cls = _CATALOG[kind]
    return cls(**read_form(obj, cls.json_fields, "operator fields", "kind"))
