"""The stepper against a reference loop, and the schedule arrays it steps on.

``reference_run`` is the per-step loop through ``reference_resolvent`` and
``reference_yosida``, the per-point closed forms as they were written before
the row forms, with per-index schedule lookups. ``run`` must reproduce it
byte for byte for every admissible operator pair, and raise the same error
type where it raises: a separable instance steps one coordinate at a time
on floats through the operators' scalar forms, any other through the
one-row cases of the row forms.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fejerquant as fq
from fejerquant.errors import (
    ConfigError,
    DomainError,
    FejerQuantError,
    HorizonExceeded,
    NonPositiveParameter,
    SingularSystem,
)
from fejerquant.iteration import (
    ParameterSchedule,
    PowerRule,
    ProblemInstance,
    QuantitativeData,
    TableRule,
    Trace,
    run,
)
from fejerquant.moduli import ModulusFn
from fejerquant.operators import (
    AffinePSD,
    NormalConeBox,
    SignedZeroSolve,
    SubdiffAbsSum,
    ZeroOperator,
    as_point,
)


def reference_resolvent(op, lam, x):
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


def reference_yosida(op, lam, x):
    x = as_point(x, op.dim)
    if isinstance(op, SubdiffAbsSum):
        if not lam > 0:
            raise NonPositiveParameter(f"resolvent parameter must be > 0, got {lam}")
        # saturated coordinates give exactly +-1; the generic difference
        # quotient would round x - soft(x, lam) and magnify that by 1/lam
        return np.sign(x) * np.minimum(np.abs(x) / lam, 1.0)
    return (x - reference_resolvent(op, lam, x)) / lam


def reference_run(inst, n_steps):
    d = inst.dim
    pts = np.empty((n_steps + 1, d))
    lams = np.empty(n_steps)
    mus = np.empty(n_steps)
    res = np.empty(n_steps)
    x = inst.x0.copy()
    pts[0] = x
    for n in range(n_steps):
        lam = inst.schedule.lam(n)
        mu = inst.schedule.mu(n)
        nxt = reference_resolvent(inst.S, mu, x + mu * reference_yosida(inst.T, lam, x))
        lams[n] = lam
        mus[n] = mu
        res[n] = float(np.linalg.norm(x - nxt)) / mu
        pts[n + 1] = nxt
        x = nxt
    return Trace(pts, lams, mus, res)


def assert_same_trace(a, b):
    for name in ("points", "lambdas", "mus", "residuals"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.to_jsonl() == b.to_jsonl()


def quant(d, L=Fraction(10**9)):
    return QuantitativeData(
        A=Fraction(2),
        B=1,
        Bprime=0,
        C=Fraction(1),
        M=2,
        L=L,
        d=d,
        theta=ModulusFn.power_rate(1, 1),
        xi=ModulusFn.power_sum_rate(1, 3),
        varpi=ModulusFn.identity(),
    )


def instance(T, S, x0, schedule, L=Fraction(10**9)):
    x0 = np.asarray(x0, dtype=float)
    return ProblemInstance(T=T, S=S, x0=x0, schedule=schedule, quant=quant(x0.shape[0], L))


# --------------------------------------------------------------------------
# hypothesis strategies
# --------------------------------------------------------------------------

KINDS = ("affine", "subdiff", "zero", "box")
# a normal cone T needs S to be a box inside its own
PAIRS = [(t, s) for t in KINDS for s in KINDS if t != "box" or s == "box"]
# pairs with a diagonal affine operator, which the stepper splits by coordinate
SEPARABLE = ("diag", "subdiff", "zero", "box")
DIAG_PAIRS = [
    (t, s) for t in SEPARABLE for s in SEPARABLE
    if "diag" in (t, s) and (t != "box" or s == "box")
]
STEPS = 20

# signed zeros and dyadic values that land on clip points and box ends
SPECIAL = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 0.25)
special = st.sampled_from(SPECIAL)
coord = st.one_of(special, st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))


def coords(rng, shape):
    """Floats in [-4, 4], about half of them from SPECIAL."""
    out = rng.uniform(-4.0, 4.0, shape)
    pick = rng.random(shape) < 0.5
    out[pick] = rng.choice(SPECIAL, np.count_nonzero(pick))
    return out


# Each example draws a seed and builds its arrays from it: drawing every
# float through hypothesis cost more than the runs under test.
seeds = st.integers(0, 2**32 - 1)


@st.composite
def schedules(draw):
    def rule():
        if draw(st.booleans()):
            c = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2)]))
            return PowerRule(c, draw(st.integers(0, 4)))
        rng = np.random.default_rng(draw(seeds))
        values = rng.uniform(1e-3, 2.0, STEPS + 1)
        ends = rng.random(STEPS + 1) < 0.1
        values[ends] = rng.choice([1e-3, 2.0], np.count_nonzero(ends))
        return TableRule(tuple(values))

    return ParameterSchedule(rule(), rule(), STEPS)


@st.composite
def problems(draw, t_kind, s_kind, d):
    rng = np.random.default_rng(draw(seeds))

    def affine():
        m = coords(rng, (d, d))
        return AffinePSD(m @ m.T / 4.0, coords(rng, d))

    def diag():
        # signed zeros on and off the diagonal and in the offset
        m = np.where(rng.random((d, d)) < 0.5, -0.0, 0.0)
        entries = coords(rng, d)
        entries[entries < 0] *= -1.0
        np.fill_diagonal(m, entries)
        return AffinePSD(m, coords(rng, d))

    # per coordinate t_lo <= s_lo <= s_hi <= t_hi; -0.0 and 0.0 sort as equals
    bounds = np.sort(coords(rng, (d, 4)), axis=1)
    s_box = NormalConeBox(bounds[:, 1], bounds[:, 2])
    make = {
        "affine": affine,
        "diag": diag,
        "subdiff": lambda: SubdiffAbsSum(d),
        "zero": lambda: ZeroOperator(d),
    }
    T = NormalConeBox(bounds[:, 0], bounds[:, 3]) if t_kind == "box" else make[t_kind]()
    S = s_box if s_kind == "box" else make[s_kind]()
    if s_kind == "box":
        # a box end, a point between the ends, or a zero of either sign in the box
        x0 = []
        for lo, hi in zip(s_box.lo.tolist(), s_box.hi.tolist()):
            choices = [lo, hi, lo + (hi - lo) / 3.0] + [z for z in (0.0, -0.0) if lo <= z <= hi]
            x0.append(choices[rng.integers(len(choices))])
    else:
        x0 = coords(rng, d)
    return instance(T, S, x0, draw(schedules()))


def outcome(step, *args):
    """What a run gives: its trace, or the type of the error it raised."""
    try:
        return step(*args)
    except FejerQuantError as exc:
        return type(exc)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("t_kind,s_kind", PAIRS)
def test_run_matches_reference_loop(t_kind, s_kind, d):
    @settings(max_examples=30, deadline=None)
    @given(problems(t_kind, s_kind, d), st.integers(0, STEPS))
    def check(inst, n_steps):
        assert_same_trace(run(inst, n_steps, validate_l=False), reference_run(inst, n_steps))

    check()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("t_kind,s_kind", DIAG_PAIRS)
def test_separable_run_matches_reference_loop(t_kind, s_kind, d):
    @settings(max_examples=30, deadline=None)
    @given(problems(t_kind, s_kind, d), st.integers(0, STEPS))
    def check(inst, n_steps):
        want = outcome(reference_run, inst, n_steps)
        got = outcome(run, inst, n_steps, False)
        if isinstance(want, type):
            assert got is want
        else:
            assert_same_trace(got, want)

    check()


def test_a_negative_zero_numerator_leaves_the_coordinate_loop():
    # LAPACK's elimination may turn the -0.0 numerator of coordinate 1 into
    # +0.0, depending on the other coordinates; the row forms decide it
    T = AffinePSD(np.eye(2), np.array([0.0, -0.0]))
    with pytest.raises(SignedZeroSolve):
        T.coordinate(0).resolvent1(0.5, -0.0)  # -0.0 - 0.5 * 0.0
    assert not np.signbit(T.coordinate(1).resolvent1(0.5, -0.0))  # -0.0 - 0.5 * -0.0
    one = AffinePSD(np.eye(1), np.zeros(1))
    assert one.coordinate(0) is one and np.signbit(one.resolvent1(0.5, -0.0))
    schedule = ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(1), 3), STEPS)
    inst = instance(T, AffinePSD(np.diag([1.0, 2.0]), np.zeros(2)), [-1.0, -0.0], schedule)
    assert_same_trace(run(inst, 5, validate_l=False), reference_run(inst, 5))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_the_first_error_of_a_separable_run_is_the_reference_loops():
    # the coordinate loops would meet coordinate 0's overflow at stage 1
    # first; the reference loop stops at stage 0 on coordinate 1's
    # singular solve, 1 + 2^30 * -2^-30 = 0
    S = AffinePSD(np.diag([0.0, -(2.0**-30)]), np.array([-1e308, 0.0]))
    mu = TableRule((2.0**30,) * (STEPS + 1))
    inst = instance(ZeroOperator(2), S, [1e308, 0.0], ParameterSchedule(mu, mu, STEPS))
    with pytest.raises(SingularSystem):
        reference_run(inst, 2)
    with pytest.raises(SingularSystem):
        run(inst, 2, validate_l=False)


def test_signed_zero_iterates_match():
    # x0 = -0.5 is soft-thresholded to -0.0 at stage 0, and sign(-0.0) is +0.0
    inst = fq.preset("dc-abs-1d")
    for x0 in (-0.5, -0.0, 0.0, -2.0):
        one = dataclasses.replace(inst, x0=np.array([x0]))
        assert_same_trace(run(one, 200), reference_run(one, 200))
    neg = run(dataclasses.replace(inst, x0=np.array([-0.5])), 1)
    assert np.signbit(neg.points[1, 0])


def test_trace_matches_past_the_int64_powers():
    # (n+1)^5 leaves int64 at stage 6208; the trace covers both sides
    inst = dataclasses.replace(
        fq.preset("dc-abs-1d"),
        schedule=ParameterSchedule(PowerRule(Fraction(1), 2), PowerRule(Fraction(1), 5), 7000),
        x0=np.array([0.75]),
    )
    assert_same_trace(run(inst, 7000), reference_run(inst, 7000))


# --------------------------------------------------------------------------
# schedule arrays
# --------------------------------------------------------------------------


def values_of(rule, n0, n1):
    return np.array([rule.value(n) for n in range(n0, n1)])


@pytest.mark.parametrize(
    "n0,n1",
    [
        (0, 10),
        (9000, 10000),  # (n+1)^4 crosses 2^53
        (55000, 55200),  # (n+1)^4 crosses 2^63
        (60000, 60100),  # only Python-int powers
        (0, 60000),
    ],
)
def test_power_rule_arrays_match_values(n0, n1):
    rule = PowerRule(Fraction(1), 4)
    assert rule.value_array(n0, n1).tobytes() == values_of(rule, n0, n1).tobytes()


def test_float_powers_would_round_differently():
    # why the arrays power exact integers: a float power rounds on its own
    n = np.arange(1, 100_001, dtype=float)
    assert np.any(1.0 / n**4 != PowerRule(Fraction(1), 4).value_array(0, 100_000))


def test_power_rule_arrays_cover_overflow_and_odd_constants():
    for rule in (
        PowerRule(Fraction(1), 200),  # float() of the power overflows from base 35 on
        PowerRule(Fraction(1), 150),  # a subnormal quotient at base 113, overflow from 114
        PowerRule(Fraction(3, 7), 3),
        PowerRule(Fraction(5, 2), 0),
    ):
        got = rule.value_array(0, 150)
        assert got.tobytes() == values_of(rule, 0, 150).tobytes()
    assert 0.0 < PowerRule(Fraction(1), 150).value(112) < np.finfo(float).tiny
    assert PowerRule(Fraction(1), 200).value_array(40, 50).tolist() == [0.0] * 10
    # a c beyond float range gave 0.0 at every stage; it is refused now
    with pytest.raises(ConfigError, match="c: number out of float range"):
        PowerRule(Fraction(10**400), 1)


def test_table_rule_arrays():
    rule = TableRule((1.0, 0.5, 0.25))
    assert rule.value_array(1, 3).tolist() == [0.5, 0.25]
    assert rule.value_array(2, 2).shape == (0,)
    with pytest.raises(HorizonExceeded):
        rule.value_array(0, 4)


def test_schedule_arrays_and_their_range_checks():
    sched = ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(1), 3), 10)
    assert sched.lams(0, 11).tolist() == [sched.lam(n) for n in range(11)]
    assert sched.mus(3, 7).tolist() == [sched.mu(n) for n in range(3, 7)]
    assert sched.mus(11, 11).shape == (0,)
    with pytest.raises(HorizonExceeded):
        sched.lams(0, 12)
    with pytest.raises(ValueError):
        sched.mus(-1, 3)
    with pytest.raises(ValueError):
        sched.mus(5, 3)


# --------------------------------------------------------------------------
# error paths
# --------------------------------------------------------------------------


def test_lambda_underflow_raises_at_its_stage():
    lam_rule = PowerRule(Fraction(1), 200)
    first_zero = next(n for n in range(100) if lam_rule.value(n) == 0.0)
    inst = instance(
        ZeroOperator(1),
        SubdiffAbsSum(1),
        [2.0],
        ParameterSchedule(lam_rule, PowerRule(Fraction(1), 1), 60),
    )
    with pytest.raises(NonPositiveParameter, match=f"stage {first_zero} "):
        run(inst, 60)
    with pytest.raises(NonPositiveParameter):
        reference_run(inst, 60)
    assert_same_trace(run(inst, first_zero), reference_run(inst, first_zero))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("d", [1, 2])
def test_non_finite_shifted_point_raises(d):
    # the Yosida value of T is about 1e308, so the second stage overflows
    inst = instance(
        AffinePSD(np.zeros((d, d)), np.full(d, 1e308)),
        ZeroOperator(d),
        np.zeros(d),
        ParameterSchedule(PowerRule(Fraction(1), 0), PowerRule(Fraction(1), 0), 5),
    )
    run(inst, 1, validate_l=False)
    with pytest.raises(DomainError):
        run(inst, 2, validate_l=False)
    with pytest.raises(DomainError):
        reference_run(inst, 2)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("d", [1, 2])
def test_non_finite_last_iterate_raises(d):
    # J^S overflows on a finite input; no later stage would look at it
    inst = instance(
        ZeroOperator(d),
        AffinePSD(np.zeros((d, d)), np.full(d, -1e308)),
        np.full(d, 1e308),
        ParameterSchedule(PowerRule(Fraction(1), 0), PowerRule(Fraction(1), 0), 5),
    )
    with pytest.raises(DomainError, match="stage 1"):
        run(inst, 1, validate_l=False)


def test_step_past_the_horizon_raises():
    inst = fq.preset("dc-abs-1d")
    short = dataclasses.replace(
        inst, schedule=dataclasses.replace(inst.schedule, horizon=10)
    )
    run(short, 10)
    with pytest.raises(HorizonExceeded):
        run(short, 11)
