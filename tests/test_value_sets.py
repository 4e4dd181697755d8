"""Value sets as bound pairs against the per-point ``ValueSet`` object.

A value set is a pair of bound arrays ``(lo, hi)``. Before that, a per-point
``ValueSet`` object decided membership, the least-norm element and the
distance from a witness, and ``sup_dist_sq``/``hstar_check`` decided clause
(ii) of the approximate-solution strata. They are kept here verbatim as
references, with ``gamma_k_check`` as it was written on them:
``operators.in_box``, ``least_norm``, ``dist_sq_rows``, ``check_bounds``
and ``iteration.gamma_k_check`` must decide exactly as they did, on boxes
with infinite, signed-zero, subnormal and near-overflow endpoints.
"""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_stepper import PAIRS, problems

from fejerquant.errors import (
    DimensionMismatch,
    DomainError,
    FejerQuantError,
    HorizonExceeded,
    InvariantViolation,
)
from fejerquant.iteration import _CLAUSE_TOL, gamma_k_check, gamma_witness, preset
from fejerquant.operators import (
    as_point,
    check_bounds,
    dist_sq_rows,
    in_box,
    least_norm,
    resolvent_rows,
    value_rows,
)

# --------------------------------------------------------------------------
# the per-point references
# --------------------------------------------------------------------------


def reference_check_bounds(lo: np.ndarray, hi: np.ndarray) -> None:
    """The interval-product invariants, on bound arrays of any matching shape."""
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
        raise InvariantViolation("interval bounds cannot be NaN")
    if np.any(lo > hi):
        raise InvariantViolation("interval product needs lo <= hi")
    if np.any(lo == np.inf) or np.any(hi == -np.inf):
        raise InvariantViolation("degenerate infinite endpoints")


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
        reference_check_bounds(lo, hi)

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

    def project(self, p) -> np.ndarray:
        """Nearest point of the set to p (per-coordinate clamp)."""
        p = as_point(p, self.dim)
        return np.minimum(np.maximum(p, self.lo), self.hi)


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


def hstar_check(p_set: ValueSet, q_set: ValueSet, eps: float) -> bool:
    """One-sided Hausdorff excess test: every p in P within eps of Q.

    Decided exactly for interval products via per-coordinate worst cases.
    """
    if eps < 0:
        raise ValueError("excess threshold must be >= 0")
    return sup_dist_sq(p_set, q_set) <= eps * eps


# the per-point evaluate and minimal_selection that gamma_k_check called


def evaluate(op, x) -> ValueSet:
    """The set value at x as an interval product."""
    x = as_point(x, op.dim)
    lo, hi = op.value_rows(x[None])
    return ValueSet(lo[0], hi[0])


def minimal_selection(op, x) -> np.ndarray:
    """The least-norm element of the value set (projection of the origin)."""
    vs = evaluate(op, x)
    return vs.project(np.zeros(vs.dim))


def reference_gamma_k_check(inst, x, k: int, y, tol: float = _CLAUSE_TOL) -> bool:
    """Membership of x in the k-th approximate solution stratum with witness y.

    Three clauses, each with additive tolerance ``tol``:
    (i)  the witness norm matches the minimal selection norm of T to 1/(k+1);
    (ii) the witness lies within 1/(k+1) of the value set T(x) (one-sided
         Hausdorff excess of the singleton);
    (iii) for every stage i <= k, x moves by at most 1/(k+1) under the stage-i
          resolvent step driven by y.
    """
    x = as_point(x, inst.dim)
    y = as_point(y, inst.dim)
    if k < 0:
        raise ValueError("stratum index is a natural")
    if not inst.in_search_region(x):
        raise DomainError("point outside the search region (L-ball and domain of S)")
    if k > inst.schedule.horizon:
        raise HorizonExceeded(f"stratum {k} needs stages beyond the horizon")
    bound = 1.0 / (k + 1)
    t_min = minimal_selection(inst.T, x)
    if abs(float(np.linalg.norm(y)) - float(np.linalg.norm(t_min))) > bound + tol:
        return False
    if not hstar_check(ValueSet.singleton(y), evaluate(inst.T, x), bound + tol):
        return False
    mus = inst.schedule.mus(0, k + 1)
    shifted = x[None, :] + mus[:, None] * y[None, :]
    moved = resolvent_rows(inst.S, mus, shifted)
    dists = np.linalg.norm(moved - x[None, :], axis=1)
    return bool(np.all(dists <= bound + tol))


def outcome(fn, *args, **kwargs):
    """What a call gives: its value, or the type of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (FejerQuantError, ValueError) as exc:
        return type(exc)


# --------------------------------------------------------------------------
# strategies
# --------------------------------------------------------------------------

TINY = 5e-324  # the smallest subnormal
NORMAL_MIN = 2.2250738585072014e-308
HUGE = 1.7976931348623157e308  # the largest float: differences overflow
# signed zeros, subnormals, squares that underflow or overflow, plain values
EDGE = (0.0, -0.0, TINY, -TINY, NORMAL_MIN, -NORMAL_MIN, 1e-160, -1e-160,
        1e154, -1e154, 1e200, -1e200, HUGE, -HUGE, 1.0, -1.0, 0.5)
finite = st.one_of(st.sampled_from(EDGE), st.floats(allow_nan=False, allow_infinity=False))
# thresholds and tolerances: zero, subnormal, squares near the float range, inf
THRESHOLDS = (0.0, TINY, 1e-160, 1e-12, 0.25, 1.0, 1e154, 1.3407807929942596e154, HUGE, math.inf)
thresholds = st.one_of(st.sampled_from(THRESHOLDS), st.floats(0.0, allow_nan=False))


@st.composite
def boxes(draw):
    """Valid bound pairs: lo <= hi, rays at either end, singletons, d in 1..3."""
    lo, hi = [], []
    for _ in range(draw(st.integers(1, 3))):
        a, b = sorted((draw(finite), draw(finite)))
        if draw(st.booleans()):
            b = a
        lo.append(-math.inf if draw(st.integers(0, 3)) == 0 else a)
        hi.append(math.inf if draw(st.integers(0, 3)) == 0 else b)
    return np.array(lo), np.array(hi)


@st.composite
def points_near(draw, lo, hi):
    """Points whose coordinates sit on, next to or away from the box ends."""
    p = []
    for a, b in zip(lo.tolist(), hi.tolist()):
        ends = [v for v in (a, b) if math.isfinite(v)]
        ends += [math.nextafter(v, s) for v in ends for s in (-math.inf, math.inf)]
        ends = [v for v in ends if math.isfinite(v)]
        p.append(draw(st.one_of(finite, st.sampled_from(ends)) if ends else finite))
    return np.array(p)


# --------------------------------------------------------------------------
# bound pairs decide as the ValueSet reference did
# --------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(boxes(), st.data())
@np.errstate(over="ignore")  # near-overflow endpoints are drawn on purpose
def test_bound_pairs_decide_as_the_value_set_did(box, data):
    lo, hi = box
    p = data.draw(points_near(lo, hi))
    tol, eps = data.draw(thresholds), data.draw(thresholds)
    ref = ValueSet(lo, hi)
    # membership
    assert in_box(lo, hi, p, tol) is ref.contains(p, tol)
    assert in_box(lo, hi, p) is ref.contains(p)
    # the least-norm element, alone and in a stack with the mirrored box
    want = ref.project(np.zeros(lo.shape[0]))
    assert least_norm(lo, hi).tobytes() == want.tobytes()
    rows = least_norm(np.stack([lo, -hi]), np.stack([hi, -lo]))
    assert rows[0].tobytes() == want.tobytes()
    assert rows[1].tobytes() == ValueSet(-hi, -lo).project(np.zeros(lo.shape[0])).tobytes()
    # the squared distance of a witness, and clause (ii) of gamma_k_check
    point = ValueSet.singleton(p)
    got = dist_sq_rows(np.stack([lo, -hi]), np.stack([hi, -lo]), np.stack([p, -p]))
    assert got[0] == sup_dist_sq(point, ref)
    assert got[1] == sup_dist_sq(ValueSet.singleton(-p), ValueSet(-hi, -lo))
    assert bool(got[0] <= eps * eps) == hstar_check(point, ref, eps)


bad_endpoint = st.one_of(finite, st.sampled_from([math.nan, math.inf, -math.inf]))


class Fixed:
    """An operator stub whose value set is the same bounds at every point."""

    def __init__(self, lo, hi):
        self.lo, self.hi, self.dim = lo, hi, lo.shape[0]

    def value_rows(self, xs):
        return np.tile(self.lo, (xs.shape[0], 1)), np.tile(self.hi, (xs.shape[0], 1))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(0, 1), st.data())
def test_value_rows_enforce_the_value_set_invariants(d, extra, data):
    lo = np.array(data.draw(st.lists(bad_endpoint, min_size=d, max_size=d)))
    hi = np.array(data.draw(st.lists(bad_endpoint, min_size=d + extra, max_size=d + extra)))
    want = outcome(ValueSet, lo, hi)
    want = want if isinstance(want, type) else None  # the error type, if any
    assert outcome(check_bounds, lo, hi) is want
    if extra == 0:
        got = outcome(value_rows, Fixed(lo, hi), np.zeros((2, d)))
        assert (got if isinstance(got, type) else None) is want


# --------------------------------------------------------------------------
# gamma_k_check against the reference
# --------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PAIRS), st.integers(1, 2), st.data())
@np.errstate(over="ignore")  # near-overflow endpoints are drawn on purpose
def test_gamma_k_check_equals_the_value_set_reference(pair, d, data):
    inst = data.draw(problems(*pair, d))
    x = inst.x0  # box ends, signed zeros and points between them
    k = data.draw(st.integers(0, 4))
    lo, hi = value_rows(inst.T, x[None])
    t_min = least_norm(lo, hi)[0]
    # a turn keeps the norm, so clause (i) holds and clause (ii) decides
    c, s = math.cos(turn := data.draw(st.floats(0.0, math.pi))), math.sin(turn)
    witnesses = [
        gamma_witness(inst, x, data.draw(st.sampled_from([1e-3, 0.1, 1.0, 4.0]))),
        t_min,
        -t_min,
        t_min + data.draw(st.sampled_from([0.5, -0.5, 0.25, 1e-12, 2.0])),
        np.array([c * t_min[0] - s * t_min[-1], s * t_min[0] + c * t_min[-1]])[:d],
        data.draw(points_near(lo[0], hi[0])),
    ]
    for y in witnesses:
        for tol in (_CLAUSE_TOL, 0.0, -0.25):
            want = outcome(reference_gamma_k_check, inst, x, k, y, tol)
            assert outcome(gamma_k_check, inst, x, k, y, tol) == want


def test_clause_ii_decides_a_reflected_witness():
    # y = -T°x keeps the norm of T°x = 0.3, so clause (i) holds, and the
    # stage steps of clause (iii) stay within 1/2; clause (ii) compares the
    # squared gap 0.6 * 0.6 with the squared bound, equal at tol = 0.1
    inst = preset("dc-abs-1d")
    for tol, member in ((_CLAUSE_TOL, False), (0.1, True), (0.09, False)):
        assert reference_gamma_k_check(inst, [0.3], 1, [-0.3], tol) is member
        assert gamma_k_check(inst, [0.3], 1, [-0.3], tol) is member
