"""The stepper against a reference loop, and the schedule arrays it steps on.

``reference_run`` is the per-step loop through the public ``resolvent`` and
``yosida`` with per-index schedule lookups. ``run`` must reproduce it byte
for byte for every admissible operator pair: in one dimension it steps on
floats through the operators' scalar forms, in two through the array loop.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fejerquant as fq
from fejerquant.errors import DomainError, HorizonExceeded, NonPositiveParameter
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
    SubdiffAbsSum,
    ZeroOperator,
    resolvent,
    yosida,
)


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
        nxt = resolvent(inst.S, mu, x + mu * yosida(inst.T, lam, x))
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
STEPS = 20

# signed zeros and dyadic values that land on clip points and box ends
special = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 0.25])
coord = st.one_of(special, st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))


@st.composite
def schedules(draw):
    def rule():
        return draw(
            st.one_of(
                st.builds(
                    PowerRule,
                    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2)]),
                    st.integers(0, 4),
                ),
                st.builds(
                    TableRule,
                    st.lists(st.floats(1e-3, 2.0), min_size=STEPS + 1, max_size=STEPS + 1),
                ),
            )
        )

    return ParameterSchedule(rule(), rule(), STEPS)


@st.composite
def problems(draw, t_kind, s_kind, d):
    def affine():
        m = np.array(draw(st.lists(coord, min_size=d * d, max_size=d * d))).reshape(d, d)
        b = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
        return AffinePSD(m @ m.T / 4.0, b)

    # per coordinate t_lo <= s_lo <= s_hi <= t_hi; -0.0 and 0.0 sort as equals
    ends = st.lists(coord, min_size=4, max_size=4).map(sorted)
    bounds = np.array([draw(ends) for _ in range(d)])
    s_box = NormalConeBox(bounds[:, 1], bounds[:, 2])
    make = {
        "affine": affine,
        "subdiff": lambda: SubdiffAbsSum(d),
        "zero": lambda: ZeroOperator(d),
    }
    T = NormalConeBox(bounds[:, 0], bounds[:, 3]) if t_kind == "box" else make[t_kind]()
    S = s_box if s_kind == "box" else make[s_kind]()
    if s_kind == "box":
        # a box end, a point between the ends, or a zero of either sign in the box
        x0 = []
        for i in range(d):
            lo, hi = s_box.lo[i], s_box.hi[i]
            choices = [lo, hi, lo + (hi - lo) / 3.0] + [z for z in (0.0, -0.0) if lo <= z <= hi]
            x0.append(draw(st.sampled_from(choices)))
    else:
        x0 = draw(st.lists(coord, min_size=d, max_size=d))
    return instance(T, S, x0, draw(schedules()))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("t_kind,s_kind", PAIRS)
def test_run_matches_reference_loop(t_kind, s_kind, d):
    @settings(max_examples=30, deadline=None)
    @given(problems(t_kind, s_kind, d), st.integers(0, STEPS))
    def check(inst, n_steps):
        assert_same_trace(run(inst, n_steps, validate_l=False), reference_run(inst, n_steps))

    check()


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
        PowerRule(Fraction(10**400), 1),  # float(c) overflows: value() gives 0.0
    ):
        got = rule.value_array(0, 150)
        assert got.tobytes() == values_of(rule, 0, 150).tobytes()
    assert 0.0 < PowerRule(Fraction(1), 150).value(112) < np.finfo(float).tiny
    assert PowerRule(Fraction(1), 200).value_array(40, 50).tolist() == [0.0] * 10


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
