"""Operator catalog: closed-form resolvents, set values, selections.

Set values are bound pairs ``(lo, hi)``; ``test_value_sets.py`` checks their
membership, least-norm and distance helpers against the older ``ValueSet``
object, kept there as the reference.

Closed-form cases are asserted exactly or to 1e-12; sampled operator
properties (firm nonexpansiveness, graph membership, minimal-norm
optimality) use a fixed-seed generator so failures are reproducible.
"""

import itertools
import json
import math
import re

import numpy as np
import pytest

from fejerquant.errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    InvariantViolation,
    NonPositiveParameter,
)
from fejerquant.operators import (
    AffinePSD,
    NormalConeBox,
    SubdiffAbsSum,
    ZeroOperator,
    as_point,
    check_bounds,
    dist_rows,
    dist_sq_rows,
    domain_contains,
    evaluate,
    in_box,
    least_norm,
    minimal_selection,
    operator_from_json,
    operator_to_json,
    resolvent,
    resolvent_rows,
    value_rows,
    yosida,
)

EXACT = 1e-12
MEMB = 1e-9


def catalog():
    """One instance of every operator variant, mixed dimensions."""
    return [
        AffinePSD(np.array([[1.0]]), np.array([0.0])),
        AffinePSD(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0])),
        SubdiffAbsSum(1),
        SubdiffAbsSum(3),
        NormalConeBox(np.array([0.0, -1.0]), np.array([1.0, 2.0])),
        ZeroOperator(2),
    ]


def sample_domain_point(op, rng):
    x = rng.uniform(-3.0, 3.0, size=op.dim)
    if isinstance(op, NormalConeBox):
        x = np.minimum(np.maximum(x, op.lo), op.hi)
    return x


def sample_value(box, rng):
    """A random member of an interval product (infinite rays truncated)."""
    lo, hi = box
    lo = np.where(np.isinf(lo), -5.0, lo)
    hi = np.where(np.isinf(hi), 5.0, hi)
    return rng.uniform(lo, hi)


# --------------------------------------------------------------------------
# value sets
# --------------------------------------------------------------------------


def test_value_set_basics():
    lo, hi = np.array([-1.0]), np.array([1.0])
    assert in_box(lo, hi, [0.5])
    assert not in_box(lo, hi, [1.5])
    assert in_box(lo, hi, [1.0 + 1e-10], tol=1e-9)
    assert dist_rows(lo[None], hi[None], np.array([[2.0]]))[0] == pytest.approx(1.0, abs=EXACT)
    assert least_norm(lo, hi)[0] == 0.0
    assert least_norm(np.array([0.5]), np.array([2.0]))[0] == 0.5
    pt = np.array([[2.0, 3.0]])
    assert dist_rows(pt, pt, pt)[0] == 0.0
    with pytest.raises(DimensionMismatch):
        in_box(lo, hi, [0.0, 0.0])
    with pytest.raises(DomainError):
        in_box(lo, hi, [np.nan])


# each invariant check_bounds enforces, in the order it reports them: the
# coordinate a fault breaks (None for the shape) and its bounds there
BOUND_FAULTS = [
    ("shape", None, None, DimensionMismatch, "interval product needs matching bounds"),
    ("nan lo", 0, (np.nan, 1.0), InvariantViolation, "interval bounds cannot be NaN"),
    ("nan hi", 1, (0.0, np.nan), InvariantViolation, "interval bounds cannot be NaN"),
    ("lo > hi", 2, (2.0, 1.0), InvariantViolation, "interval product needs lo <= hi"),
    ("lo = inf", 3, (np.inf, np.inf), InvariantViolation, "degenerate infinite endpoints"),
    ("hi = -inf", 4, (-np.inf, -np.inf), InvariantViolation, "degenerate infinite endpoints"),
]


@pytest.mark.parametrize("rows", [False, True])
@pytest.mark.parametrize(
    "faults",
    [()] + [(i,) for i in range(len(BOUND_FAULTS))]
    + list(itertools.combinations(range(len(BOUND_FAULTS)), 2)),
    ids=lambda faults: "+".join(BOUND_FAULTS[i][0] for i in faults) or "none",
)
def test_check_bounds_raises_the_first_broken_invariant(faults, rows):
    # the last coordinate is a whole line, which every fault leaves alone
    lo = np.array([-1.0, -1.0, -1.0, -1.0, -1.0, -np.inf])
    hi = np.array([1.0, 1.0, 1.0, 1.0, 1.0, np.inf])
    for i in faults:
        _, coord, bounds, _, _ = BOUND_FAULTS[i]
        if coord is None:
            hi = np.append(hi, 1.0)
        else:
            lo[coord], hi[coord] = bounds
    if rows:
        lo, hi = lo[None], hi[None]
    if not faults:
        check_bounds(lo, hi)
        return
    _, _, _, error, message = BOUND_FAULTS[min(faults)]
    with pytest.raises(error, match=re.escape(message)) as raised:
        check_bounds(lo, hi)
    assert type(raised.value) is error


def test_value_set_rejects_bad_bounds():
    with pytest.raises(InvariantViolation):
        check_bounds(np.array([1.0]), np.array([0.0]))
    with pytest.raises(InvariantViolation):
        check_bounds(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(InvariantViolation):
        check_bounds(np.array([np.inf]), np.array([np.inf]))
    with pytest.raises(DimensionMismatch):
        check_bounds(np.array([0.0]), np.array([0.0, 1.0]))
    # value_rows checks its rows as resolvent_rows does
    with pytest.raises(DomainError):
        value_rows(SubdiffAbsSum(1), [[np.nan]])
    with pytest.raises(DimensionMismatch):
        value_rows(SubdiffAbsSum(2), [[0.0]])
    with pytest.raises(DimensionMismatch):
        value_rows(SubdiffAbsSum(1), [0.0])


@np.errstate(over="ignore")
def test_dist_sq_handles_infinite_rays():
    ray_lo, ray_hi = np.array([[-np.inf]]), np.array([[0.0]])
    assert dist_sq_rows(ray_lo, ray_hi, np.array([[0.0]]))[0] == 0.0
    assert dist_sq_rows(ray_lo, ray_hi, np.array([[-1e308]]))[0] == 0.0
    assert dist_sq_rows(ray_lo, ray_hi, np.array([[3.0]]))[0] == 9.0
    assert dist_sq_rows(ray_lo, ray_hi, np.array([[1e308]]))[0] == np.inf


def test_witness_distance_examples():
    # clause (ii) of the strata: a witness y within eps of the box, squared
    lo, hi = np.array([[-1.0, 0.0]]), np.array([[1.0, 0.0]])
    assert dist_sq_rows(lo, hi, np.array([[0.5, 0.0]]))[0] == 0.0
    assert dist_sq_rows(lo, hi, np.array([[1.5, 0.0]]))[0] == 0.25
    assert dist_sq_rows(lo, hi, np.array([[4.0, -4.0]]))[0] == 25.0


def test_as_point_validation():
    assert as_point(2.0).shape == (1,)
    with pytest.raises(DomainError):
        as_point([np.nan])
    with pytest.raises(DimensionMismatch):
        as_point([1.0, 2.0], dim=3)
    with pytest.raises(DimensionMismatch):
        as_point([[1.0, 2.0]])


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


def test_evaluate_subdifferential():
    op = SubdiffAbsSum(1)
    assert evaluate(op, [0.0]) == (-1.0, 1.0)
    assert evaluate(op, [0.3]) == (1.0, 1.0)
    assert evaluate(op, [-0.3]) == (-1.0, -1.0)


def test_evaluate_affine_identity():
    op = AffinePSD(np.eye(2), np.zeros(2))
    lo, hi = evaluate(op, [2.0, 3.0])
    assert in_box(lo, hi, [2.0, 3.0]) and lo[0] == hi[0]


def test_evaluate_normal_cone():
    op = NormalConeBox(np.array([0.0]), np.array([1.0]))
    assert evaluate(op, [0.5]) == (0.0, 0.0)
    assert evaluate(op, [0.0]) == (-np.inf, 0.0)
    assert evaluate(op, [1.0]) == (0.0, np.inf)
    with pytest.raises(DomainError):
        evaluate(op, [1.5])
    assert not domain_contains(op, [1.5])
    assert domain_contains(op, [1.5], tol=1.0)


def test_evaluate_zero_operator():
    lo, hi = evaluate(ZeroOperator(2), [4.0, -2.0])
    assert in_box(lo, hi, [0.0, 0.0]) and lo[1] == hi[1] == 0.0


def test_monotonicity_spot_check():
    rng = np.random.default_rng(7)
    for op in catalog():
        for _ in range(50):
            x = sample_domain_point(op, rng)
            y = sample_domain_point(op, rng)
            u = sample_value(evaluate(op, x), rng)
            v = sample_value(evaluate(op, y), rng)
            assert float(np.dot(x - y, u - v)) >= -MEMB


# --------------------------------------------------------------------------
# resolvents
# --------------------------------------------------------------------------


def test_resolvent_closed_forms():
    assert resolvent(SubdiffAbsSum(1), 1.0, [3.0])[0] == pytest.approx(2.0, abs=EXACT)
    assert resolvent(AffinePSD(np.array([[1.0]]), np.array([0.0])), 1.0, [2.0])[0] == (
        pytest.approx(1.0, abs=EXACT)
    )
    box = NormalConeBox(np.array([0.0]), np.array([1.0]))
    assert resolvent(box, 5.0, [-3.0])[0] == 0.0
    assert resolvent(box, 0.01, [-3.0])[0] == 0.0  # projection, scale-free
    assert resolvent(ZeroOperator(1), 2.0, [4.0])[0] == 4.0


def test_resolvent_rejects_nonpositive_parameter():
    for op in catalog():
        with pytest.raises(NonPositiveParameter):
            resolvent(op, 0.0, np.zeros(op.dim))
        with pytest.raises(NonPositiveParameter):
            resolvent(op, -1.0, np.zeros(op.dim))


def test_resolvent_graph_membership():
    rng = np.random.default_rng(11)
    for op in catalog():
        for _ in range(50):
            x = sample_domain_point(op, rng)
            lam = float(rng.uniform(0.05, 10.0))
            j = resolvent(op, lam, x)
            assert in_box(*evaluate(op, j), (x - j) / lam, tol=MEMB)


def test_firm_nonexpansiveness_sampled():
    rng = np.random.default_rng(3)
    for op in catalog():
        for _ in range(100):
            x = sample_domain_point(op, rng)
            y = sample_domain_point(op, rng)
            lam = float(rng.uniform(0.05, 10.0))
            jx = resolvent(op, lam, x)
            jy = resolvent(op, lam, y)
            lhs = float(np.dot(jx - jy, jx - jy))
            rhs = float(np.dot(x - y, jx - jy))
            assert lhs <= rhs + MEMB


def test_yosida_closed_forms():
    assert yosida(AffinePSD(np.array([[1.0]]), np.array([0.0])), 1.0, [2.0])[0] == (
        pytest.approx(1.0, abs=EXACT)
    )
    assert yosida(SubdiffAbsSum(1), 1.0, [3.0])[0] == pytest.approx(1.0, abs=EXACT)
    assert yosida(AffinePSD(np.array([[1.0]]), np.array([0.0])), 1.0, [0.0])[0] == 0.0


def test_yosida_lipschitz_bound():
    rng = np.random.default_rng(19)
    for op in catalog():
        for _ in range(60):
            x = sample_domain_point(op, rng)
            y = sample_domain_point(op, rng)
            lam = float(rng.uniform(0.05, 5.0))
            tx = yosida(op, lam, x)
            ty = yosida(op, lam, y)
            assert np.linalg.norm(tx - ty) <= np.linalg.norm(x - y) / lam + MEMB


def test_yosida_lies_in_graph_at_resolvent():
    rng = np.random.default_rng(23)
    for op in catalog():
        for _ in range(60):
            x = sample_domain_point(op, rng)
            lam = float(rng.uniform(0.05, 5.0))
            assert in_box(*evaluate(op, resolvent(op, lam, x)), yosida(op, lam, x), tol=MEMB)


def test_resolvent_batch_matches_single():
    rng = np.random.default_rng(31)
    lams = np.array([0.1, 0.5, 1.0, 2.0, 7.5])
    for op in catalog():
        x = sample_domain_point(op, rng)
        batch = resolvent_rows(op, lams, np.tile(x, (lams.shape[0], 1)))
        for i, lam in enumerate(lams):
            assert batch[i].tobytes() == resolvent(op, float(lam), x).tobytes()
    with pytest.raises(NonPositiveParameter):
        resolvent_rows(SubdiffAbsSum(1), np.array([1.0, 0.0]), [[1.0], [1.0]])


# --------------------------------------------------------------------------
# minimal selections
# --------------------------------------------------------------------------


def test_minimal_selection_examples():
    assert minimal_selection(SubdiffAbsSum(1), [0.0])[0] == 0.0
    assert minimal_selection(SubdiffAbsSum(1), [0.3])[0] == 1.0
    box = NormalConeBox(np.array([0.0]), np.array([1.0]))
    assert minimal_selection(box, [0.0])[0] == 0.0


def test_minimal_selection_is_least_norm():
    rng = np.random.default_rng(43)
    for op in catalog():
        for _ in range(60):
            x = sample_domain_point(op, rng)
            box = evaluate(op, x)
            sel = minimal_selection(op, x)
            assert in_box(*box, sel, tol=EXACT)
            z = sample_value(box, rng)
            assert np.linalg.norm(sel) <= np.linalg.norm(z) + EXACT
            # projection anchor: the selection sees every member at an
            # obtuse angle from the origin
            assert float(np.dot(z - sel, -sel)) <= MEMB


def test_near_minimal_members_are_near_the_selection():
    # if <T°x - z, -z> <= 1/(k+1)^2 for a member z, then z is 1/(k+1)-close
    rng = np.random.default_rng(47)
    for op in catalog():
        for _ in range(80):
            x = sample_domain_point(op, rng)
            sel = minimal_selection(op, x)
            z = sample_value(evaluate(op, x), rng)
            for k in (0, 1, 4):
                bound = 1.0 / (k + 1)
                if float(np.dot(sel - z, -z)) <= bound * bound:
                    assert np.linalg.norm(sel - z) <= bound + MEMB


# --------------------------------------------------------------------------
# the two-parameter resolvent identity
# --------------------------------------------------------------------------


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


def test_resolvent_identity_lambda_one_is_exact():
    rng = np.random.default_rng(53)
    for op in catalog():
        x = sample_domain_point(op, rng)
        assert resolvent_identity_residual(op, 2.7, 1.0, x) == 0.0


def test_resolvent_identity_closed_form_cases():
    op = AffinePSD(np.array([[1.0]]), np.array([0.0]))
    assert resolvent_identity_residual(op, 2.0, 0.5, [4.0]) <= EXACT
    assert resolvent_identity_residual(SubdiffAbsSum(1), 1.0, 3.0, [5.0]) <= EXACT


def test_resolvent_identity_random_parameters():
    rng = np.random.default_rng(59)
    for op in catalog():
        for _ in range(100):
            x = sample_domain_point(op, rng)
            gamma = float(rng.uniform(0.1, 10.0))
            lam = float(rng.uniform(0.1, 10.0))
            assert resolvent_identity_residual(op, gamma, lam, x) <= 1e-10


# --------------------------------------------------------------------------
# construction and serialization
# --------------------------------------------------------------------------


def test_affine_psd_construction_guards():
    with pytest.raises(InvariantViolation):
        AffinePSD(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))  # asymmetric
    with pytest.raises(InvariantViolation):
        AffinePSD(np.array([[-1.0]]), np.zeros(1))  # negative eigenvalue
    with pytest.raises(DimensionMismatch):
        AffinePSD(np.eye(2), np.zeros(3))
    diag = AffinePSD(np.diag([1.0, 2.0]), np.zeros(2))
    assert diag.is_diagonal
    assert not AffinePSD(np.array([[2.0, 0.5], [0.5, 1.0]]), np.zeros(2)).is_diagonal


def test_normal_cone_box_construction_guards():
    with pytest.raises(InvariantViolation):
        NormalConeBox(np.array([1.0]), np.array([0.0]))
    with pytest.raises(InvariantViolation):
        NormalConeBox(np.array([-np.inf]), np.array([0.0]))


def test_operator_json_round_trip():
    rng = np.random.default_rng(61)
    for op in catalog():
        again = operator_from_json(operator_to_json(op))
        assert type(again) is type(op)
        x = sample_domain_point(op, rng)
        assert np.allclose(resolvent(again, 0.7, x), resolvent(op, 0.7, x), atol=0)


def test_operator_json_golden_forms():
    # the JSON forms the per-kind serializer wrote, signed zeros included
    cases = [
        (
            AffinePSD(np.array([[2.0, -0.0], [-0.0, 1.5]]), np.array([-0.0, 0.25])),
            {"kind": "affine_psd", "matrix": [[2.0, -0.0], [-0.0, 1.5]], "offset": [-0.0, 0.25]},
        ),
        (SubdiffAbsSum(3), {"kind": "subdiff_abs", "dim": 3}),
        (
            NormalConeBox(np.array([-0.0, -1.0]), np.array([0.0, 2.5])),
            {"kind": "normal_cone_box", "lo": [-0.0, -1.0], "hi": [0.0, 2.5]},
        ),
        (ZeroOperator(2), {"kind": "zero", "dim": 2}),
    ]
    for op, want in cases:
        got = operator_to_json(op)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        assert list(got) == list(want)
        assert operator_to_json(operator_from_json(want)) == want


def test_operator_json_rejects_unknown():
    with pytest.raises(ConfigError):
        operator_from_json({"kind": "mystery"})
    with pytest.raises(ConfigError):
        operator_from_json({"kind": "zero", "dim": 1, "extra": 2})
    with pytest.raises(ConfigError):
        operator_from_json({"dim": 1})


def test_norm_conventions():
    # euclidean throughout: distances of 2-d sets agree with math.hypot
    pt = np.array([[1.0, 2.0]])
    assert dist_rows(pt, pt, np.zeros((1, 2)))[0] == pytest.approx(math.hypot(1.0, 2.0), abs=EXACT)
