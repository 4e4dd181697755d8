"""The stepper against a reference loop, and the schedule arrays it steps on.

``reference_run`` is the per-step loop through ``reference_resolvent`` and
``reference_yosida``, the per-point closed forms as they were written before
the row forms, with per-index schedule lookups. ``run`` must reproduce it
byte for byte for every admissible operator pair, and raise the same error
type where it raises: a d = 1 instance steps on floats through the
operators' scalar forms, any other through the one-row cases of the row
forms, and both fast-forward a captured iterate with stacked row forms.
"""

import math
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
from fejerquant import iteration
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
    as_point,
)
from records import replace


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


# The same per-stage closed forms for d = 1 on Python floats, with the same
# checks in the same order: reference_run pays 60-90 us a step for numpy
# calls on one-element arrays. test_the_float_reference_is_the_reference_loop
# holds it to reference_run bit for bit; the long runs compare against it.


def scalar_resolvent(op, lam, x):
    if not lam > 0:
        raise NonPositiveParameter(f"resolvent parameter must be > 0, got {lam}")
    if not math.isfinite(x):
        raise DomainError("points must have finite coordinates")
    if isinstance(op, AffinePSD):
        den = 1.0 + lam * float(op.matrix[0, 0])
        if den == 0.0:
            raise SingularSystem("Singular matrix")
        return (x - lam * float(op.offset[0])) / den
    if isinstance(op, SubdiffAbsSum):
        m = abs(x) - lam
        return scalar_sign(x) * (m if m > 0.0 else 0.0)
    if isinstance(op, NormalConeBox):
        lo, hi = float(op.lo[0]), float(op.hi[0])
        v = x if x > lo else lo  # np.maximum and np.minimum keep the bound on a tie
        return v if v < hi else hi
    if isinstance(op, ZeroOperator):
        return x
    raise TypeError(f"unknown operator {op!r}")


def scalar_sign(x):
    """np.sign on a float: +0.0 for either zero."""
    return 1.0 if x > 0.0 else -1.0 if x < 0.0 else 0.0


def scalar_yosida(op, lam, x):
    if not math.isfinite(x):
        raise DomainError("points must have finite coordinates")
    if isinstance(op, SubdiffAbsSum):
        if not lam > 0:
            raise NonPositiveParameter(f"resolvent parameter must be > 0, got {lam}")
        q = abs(x) / lam
        return scalar_sign(x) * (q if q < 1.0 else 1.0)
    return (x - scalar_resolvent(op, lam, x)) / lam


def reference_run_1d(inst, n_steps):
    """reference_run for d = 1 on floats. The parameters come from the
    schedule's arrays, which equal its per-index values bit for bit
    (test_schedule_arrays_and_their_range_checks); the residual is
    np.linalg.norm's sqrt of the dot product."""
    assert inst.dim == 1
    lams = inst.schedule.lams(0, n_steps)
    mus = inst.schedule.mus(0, n_steps)
    x = float(inst.x0[0])
    pts, res = [x], []
    for lam, mu in zip(lams.tolist(), mus.tolist()):
        nxt = scalar_resolvent(inst.S, mu, x + mu * scalar_yosida(inst.T, lam, x))
        res.append(math.sqrt((x - nxt) * (x - nxt)) / mu)
        pts.append(nxt)
        x = nxt
    return Trace(np.array(pts)[:, None], lams, mus, np.array(res, dtype=float))


def assert_same_trace(a, b):
    # the trace's JSON text is a function of these arrays (tests/test_trace.py
    # holds the writer to json.dumps), so equal arrays give equal text
    for name in ("points", "lambdas", "mus", "residuals"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes()), name


# the largest L a config accepts: the paths below that stay finite stay
# within it, so each run's diameter check passes
WIDE_L = Fraction(10**300)


def quant(d, L=WIDE_L):
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


def instance(T, S, x0, schedule, L=WIDE_L):
    x0 = np.asarray(x0, dtype=float)
    return ProblemInstance(T=T, S=S, x0=x0, schedule=schedule, quant=quant(x0.shape[0], L))


# --------------------------------------------------------------------------
# hypothesis strategies
# --------------------------------------------------------------------------

KINDS = ("affine", "subdiff", "zero", "box")
# a normal cone T needs S to be a box inside its own
PAIRS = [(t, s) for t in KINDS for s in KINDS if t != "box" or s == "box"]
# pairs with a diagonal affine operator, with signed zeros on and off its
# diagonal: LAPACK's elimination adds +-0 y_i terms to each numerator
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
        assert_same_trace(run(inst, n_steps), reference_run(inst, n_steps))

    check()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("t_kind,s_kind", DIAG_PAIRS)
def test_separable_run_matches_reference_loop(t_kind, s_kind, d):
    @settings(max_examples=30, deadline=None)
    @given(problems(t_kind, s_kind, d), st.integers(0, STEPS))
    def check(inst, n_steps):
        want = outcome(reference_run, inst, n_steps)
        got = outcome(run, inst, n_steps)
        if isinstance(want, type):
            assert got is want
        else:
            assert_same_trace(got, want)

    check()


@pytest.mark.parametrize("t_kind,s_kind", PAIRS)
def test_the_float_reference_is_the_reference_loop(t_kind, s_kind):
    @settings(max_examples=30, deadline=None)
    @given(problems(t_kind, s_kind, 1), st.integers(0, STEPS))
    def check(inst, n_steps):
        want = outcome(reference_run, inst, n_steps)
        got = outcome(reference_run_1d, inst, n_steps)
        if isinstance(want, type):
            assert got is want
        else:
            assert_same_trace(got, want)

    check()


def test_a_negative_zero_numerator_of_a_diagonal_solve():
    # LAPACK's elimination may turn the -0.0 numerator of coordinate 1 into
    # +0.0, depending on the other coordinates; the row forms decide it
    T = AffinePSD(np.eye(2), np.array([0.0, -0.0]))
    schedule = ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(1), 3), STEPS)
    inst = instance(T, AffinePSD(np.diag([1.0, 2.0]), np.zeros(2)), [-1.0, -0.0], schedule)
    assert_same_trace(run(inst, 5), reference_run(inst, 5))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_the_first_error_of_a_separable_run_is_the_reference_loops():
    # one coordinate at a time, coordinate 0's overflow at stage 1 would come
    # first; the reference loop stops at stage 0 on coordinate 1's singular
    # solve, 1 + 2^30 * -2^-30 = 0
    S = AffinePSD(np.diag([0.0, -(2.0**-30)]), np.array([-1e308, 0.0]))
    mu = TableRule((2.0**30,) * (STEPS + 1))
    inst = instance(ZeroOperator(2), S, [1e308, 0.0], ParameterSchedule(mu, mu, STEPS))
    with pytest.raises(SingularSystem):
        reference_run(inst, 2)
    with pytest.raises(SingularSystem):
        run(inst, 2)


def test_signed_zero_iterates_match():
    # x0 = -0.5 is soft-thresholded to -0.0 at stage 0, and sign(-0.0) is +0.0
    inst = fq.preset("dc-abs-1d")
    for x0 in (-0.5, -0.0, 0.0, -2.0):
        one = replace(inst, x0=np.array([x0]))
        assert_same_trace(run(one, 200), reference_run(one, 200))
    neg = run(replace(inst, x0=np.array([-0.5])), 1)
    assert np.signbit(neg.points[1, 0])


def test_trace_matches_past_the_int64_powers():
    # (n+1)^5 leaves int64 at stage 6208; the trace covers both sides
    inst = replace(
        fq.preset("dc-abs-1d"),
        schedule=ParameterSchedule(PowerRule(Fraction(1), 2), PowerRule(Fraction(1), 5), 7000),
        x0=np.array([0.75]),
    )
    assert_same_trace(run(inst, 7000), reference_run(inst, 7000))


# --------------------------------------------------------------------------
# fast-forward through the stages that fix a repeated iterate
# --------------------------------------------------------------------------

# the start points of the benchmark's d = 1 workloads; every path from them
# ends at the zero 0 within three steps
X0_1D = [0.5, 0.25, 0.75, -0.5, -0.25, -0.75, 0.375, -0.375]


def count_checks(monkeypatch):
    """Spy on the fixed-stage check: the stage counts it returns, in order."""
    skips = []

    def spy(*args):
        skips.append(real(*args))
        return skips[-1]

    real = iteration._fixed_stages
    monkeypatch.setattr(iteration, "_fixed_stages", spy)
    return skips


# one start at the benchmark's 10^5 steps; 20,000 steps already pass the
# tiles of 64 doubling to the 8,192 cap (16,320 stages)
@pytest.mark.parametrize(
    "x0,steps", [(X0_1D[0], 100_000)] + [(x0, 20_000) for x0 in X0_1D[1:]]
)
def test_captured_paths_match_the_reference_loop(x0, steps):
    inst = replace(fq.preset("dc-abs-1d"), x0=np.array([x0]))
    assert_same_trace(run(inst, steps), reference_run_1d(inst, steps))


def test_fixed_stages_are_checked_in_tiles_up_to_the_cap(monkeypatch):
    # the preset's path repeats 0 at step 2; tiles double from 64 stages to
    # the 8,192 cap, which bounds each row-form temporary
    rows = []

    def spy(self, lams, xs):
        rows.append(len(lams))
        return resolvent_rows(self, lams, xs)

    resolvent_rows = SubdiffAbsSum.resolvent_rows
    monkeypatch.setattr(SubdiffAbsSum, "resolvent_rows", spy)
    run(fq.preset("dc-abs-1d"), 40_000)
    assert rows == [64 << k for k in range(8)] + [8192, 8192, 7294]


def test_a_path_captured_late_matches_the_reference_loop(monkeypatch):
    # a small mu and a start just inside the distance the path can travel:
    # captured at 0 after about 5,000 distinct points
    preset = fq.preset("dc-abs-1d")
    xi = ModulusFn.power_sum_rate(Fraction(1, 10), 3)
    quant = replace(preset.quant, Bprime=4, xi=xi)
    schedule = replace(preset.schedule, mu_rule=PowerRule(Fraction(1, 10), 3))
    inst = replace(
        preset, x0=np.array([0.11429491397324083]), schedule=schedule, quant=quant
    )
    skips = count_checks(monkeypatch)
    got = run(inst, 100_000)
    assert_same_trace(got, reference_run_1d(inst, 100_000))
    assert len(np.unique(got.points)) > 4000 and sum(skips) > 90_000


def test_a_fixed_run_that_ends_partway():
    # T x = x + 1.001: the soft threshold holds 0 while lambda_n >= 1/1000,
    # so 0 is fixed by stages 0..999 and stage 1000 moves it
    inst = instance(
        AffinePSD(np.eye(1), np.array([1.001])),
        SubdiffAbsSum(1),
        [0.0],
        ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(1), 3), 5000),
    )
    got = run(inst, 5000)
    assert_same_trace(got, reference_run(inst, 5000))
    assert not np.any(got.points[:1001]) and got.points[1001, 0] > 0.0


def test_a_fixed_run_that_ends_partway_in_one_coordinate():
    # the case above in coordinate 1 of a d = 2 instance; coordinate 0, with
    # T x = x + 1/2, stays at 0 at every stage. A stage counts as fixed only
    # when it fixes every coordinate
    inst = instance(
        AffinePSD(np.eye(2), np.array([0.5, 1.001])),
        SubdiffAbsSum(2),
        [0.0, 0.0],
        ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(1), 3), 5000),
    )
    got = run(inst, 5000)
    assert_same_trace(got, reference_run(inst, 5000))
    assert not np.any(got.points[:, 0]) and not np.any(got.points[:1001, 1])
    assert got.points[1001, 1] > 0.0


# a dense T, so the instance steps on one-row arrays: from (1/2, 1/2) the path
# lands on the corner (0, 1) of the unit box at step 2, which every later
# stage fixes
DENSE_T = AffinePSD(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([-2.0, 1.0]))


def test_a_dense_path_captured_at_a_box_corner(monkeypatch):
    schedule = ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(1), 3), 20_000)
    inst = instance(DENSE_T, NormalConeBox(np.zeros(2), np.ones(2)), [0.5, 0.5], schedule)
    skips = count_checks(monkeypatch)
    got = run(inst, 20_000)
    assert_same_trace(got, reference_run(inst, 20_000))
    assert got.points[2].tolist() == [0.0, 1.0] and skips == [19_997]


@pytest.mark.parametrize(
    "d,steps,tiles",
    [(2, 5000, [64, 128, 256, 512, 1024, 2048, 965]), (8, 2000, [64] + [128] * 15 + [14])],
)
def test_fixed_stage_tiles_keep_each_temporary_within_64_kb(monkeypatch, d, steps, tiles):
    # tiles of 64 stages double up to 8,192 // d^2 stages (2,048 in d = 2,
    # 128 in d = 8), so a dense solve's (tile, d, d) stack stays within
    # 64 KB; the d = 8 path lands on a corner of the box at step 1
    if d == 2:
        T = DENSE_T
    else:
        T = AffinePSD(np.eye(d) + 0.1, np.where(np.arange(d) % 2 == 0, -2.0, 2.0))
    box = NormalConeBox(np.zeros(d), np.ones(d))
    schedule = ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(1), 3), steps)
    inst = instance(T, box, np.full(d, 0.5), schedule)
    rows, largest = [], []

    def spy(owner, name, record):
        real = getattr(owner, name)

        def call(*args):
            out = real(*args)
            arrays = [a for a in (*args, out) if isinstance(a, np.ndarray)]
            largest.append(max(a.nbytes for a in arrays))
            if record:
                rows.append(len(args[1]))
            return out

        monkeypatch.setattr(owner, name, call)

    spy(np.linalg, "solve", False)
    spy(AffinePSD, "resolvent_rows", False)
    spy(NormalConeBox, "resolvent_rows", True)
    got = run(inst, steps)
    assert_same_trace(got, reference_run(inst, steps))
    # the one-row calls of the stepper, then the tiles of the fast-forward
    assert [n for n in rows if n > 1] == tiles and max(largest) <= 64 * 1024


def test_a_stage_that_returns_the_other_zero_ends_the_fixed_run():
    # T_lam(0) = -2^-1074: the shift underflows to -0.0 for mu = 1/4 and 0.0
    # stays, but at mu = 1 it is -2^-1074, which the soft threshold takes to
    # -0.0, equal to 0.0 but not the same float
    mu = TableRule((0.25,) * 1000 + (1.0,) + (0.25,) * 200)
    inst = instance(
        AffinePSD(np.zeros((1, 1)), np.array([-5e-324])),
        SubdiffAbsSum(1),
        [0.0],
        ParameterSchedule(TableRule((1.0,) * 1201), mu, 1200),
    )
    got = run(inst, 1200)
    assert_same_trace(got, reference_run(inst, 1200))
    assert np.signbit(got.points[1001, 0]) and not np.signbit(got.points[1000, 0])


@pytest.mark.filterwarnings("error")
def test_an_overflow_inside_a_fixed_run_raises_at_its_stage():
    # 0 sits on the end of the box that T pushes against; at stage 1000 the
    # shifted point 0 - 2 mu is -inf, which the clamp would take back to 0
    mu = TableRule((1.0,) * 1000 + (1e308,) + (1.0,) * 1000)
    inst = instance(
        AffinePSD(np.zeros((1, 1)), np.array([-2.0])),
        NormalConeBox(np.zeros(1), np.ones(1)),
        [0.0],
        ParameterSchedule(TableRule((1.0,) * 2001), mu, 2000),
    )
    assert_same_trace(run(inst, 1000), reference_run(inst, 1000))
    with pytest.raises(DomainError):
        with np.errstate(over="ignore"):
            reference_run(inst, 1001)
    with pytest.raises(DomainError):
        run(inst, 2000)


def test_a_negative_zero_numerator_inside_a_fixed_run(monkeypatch):
    # coordinate 0 stays at -0.0 while mu = 1: S's numerator -0.0 - mu 2^-1074
    # is not zero. At stage 1000, mu = 1/4 makes it -0.0, and LAPACK's 2x2
    # solve gives +0.0 there, so the fast-forward must not count that stage.
    # Coordinate 1 sits at -1, a zero of T and of S, which every stage fixes
    mu = TableRule((1.0,) * 1000 + (0.25,) + (1.0,) * 200)
    inst = instance(
        AffinePSD(np.eye(2), np.array([-5e-324, 1.0])),
        AffinePSD(np.eye(2), np.array([5e-324, 1.0])),
        [-0.0, -1.0],
        ParameterSchedule(TableRule((1.0,) * 1201), mu, 1200),
    )
    skips = count_checks(monkeypatch)
    got = run(inst, 1200)
    assert_same_trace(got, reference_run(inst, 1200))
    assert np.all(np.signbit(got.points[:1001, 0])) and not np.signbit(got.points[1001, 0])
    assert np.all(got.points[:, 1] == -1.0) and skips[0] == 999


def test_repeats_that_are_not_fixed_back_off(monkeypatch):
    # every mu = 1e-300 stage repeats the iterate and every other one moves
    # it: 10,000 repeats in 20,000 steps, none of them fixed by the next
    # stage, so the checks come after 1, 2, 4, ..., 4096 repeats
    steps = 20_000
    mu = TableRule([1e-300 if n % 2 == 0 else 1.0 / (n + 1) ** 3 for n in range(steps + 1)])
    schedule = ParameterSchedule(PowerRule(Fraction(1), 1), mu, steps)
    inst = instance(AffinePSD(np.eye(1), np.zeros(1)), SubdiffAbsSum(1), [1.0], schedule)
    skips = count_checks(monkeypatch)
    got = run(inst, steps)
    assert_same_trace(got, reference_run_1d(inst, steps))
    assert np.count_nonzero(got.points[1:] == got.points[:-1]) == steps // 2
    assert skips == [0] * 13


# --------------------------------------------------------------------------
# schedule arrays
# --------------------------------------------------------------------------


def reference_value(rule, n):
    """c / (n+1)^p of a power rule on Python numbers: the exact integer power
    rounded once to float, and 0.0 where it is beyond float range."""
    try:
        return float(rule.c) / float((n + 1) ** rule.p)
    except OverflowError:
        return 0.0


def values_of(rule, n0, n1):
    return np.array([reference_value(rule, n) for n in range(n0, n1)])


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
    assert 0.0 < PowerRule(Fraction(1), 150).value_array(112, 113)[0] < np.finfo(float).tiny
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


@pytest.mark.parametrize(
    "rule,third", [(TableRule((1.0, 0.5, 0.25)), Fraction(1, 4)), (PowerRule(1, 1), Fraction(1, 3))]
)
def test_rules_refuse_stages_outside_the_naturals(rule, third):
    # unchecked, -1 was read as the last table index, or as the base 0 of (n+1)^p
    for n0, n1 in ((-1, 1), (-1, -1), (3, 1)):
        with pytest.raises(ValueError):
            rule.value_array(n0, n1)
    with pytest.raises(ValueError, match="stage indices are naturals"):
        rule.value_fraction(-1)
    assert rule.value_fraction(2) == third


def test_a_horizon_beyond_2_to_the_24_is_refused():
    rules = PowerRule(Fraction(1), 0), PowerRule(Fraction(1), 0)
    assert ParameterSchedule(*rules, 2**24).horizon == 2**24
    with pytest.raises(ConfigError, match="horizon: must be at most 16777216"):
        ParameterSchedule(*rules, 2**24 + 1)


def test_schedule_arrays_and_their_range_checks():
    sched = ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(1), 3), 10)
    assert sched.lams(0, 11).tolist() == [sched.lam(n) for n in range(11)]
    assert sched.mus(3, 7).tolist() == [sched.mu(n) for n in range(3, 7)]
    assert sched.mus(11, 11).shape == (0,)
    table = ParameterSchedule(TableRule((1.0, 0.5, 0.25, 0.2)), TableRule((0.1, 0.3, 0.7)), 2)
    assert [table.lam(n) for n in range(3)] == table.lams(0, 3).tolist() == [1.0, 0.5, 0.25]
    assert [table.mu(n) for n in range(3)] == table.mus(0, 3).tolist() == [0.1, 0.3, 0.7]
    assert type(table.lam(0)) is float and table.mu_fraction(1) == Fraction(0.3)
    with pytest.raises(HorizonExceeded):
        table.lam(3)
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
    first_zero = int(np.flatnonzero(lam_rule.value_array(0, 100) == 0.0)[0])
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
    # the Yosida value of T is 1e150, so the first stage lands at 1e150, a
    # diameter within L, and the second, with mu = 1e160, overflows
    inst = instance(
        AffinePSD(np.zeros((d, d)), np.full(d, 1e150)),
        ZeroOperator(d),
        np.zeros(d),
        ParameterSchedule(PowerRule(Fraction(1), 0), TableRule((1.0, 1e160) + (1.0,) * 4), 5),
    )
    assert run(inst, 1).points[1].tolist() == [1e150] * d
    with pytest.raises(DomainError):
        run(inst, 2)
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
        run(inst, 1)


def test_step_past_the_horizon_raises():
    inst = fq.preset("dc-abs-1d")
    short = replace(
        inst, schedule=replace(inst.schedule, horizon=10)
    )
    run(short, 10)
    with pytest.raises(HorizonExceeded):
        run(short, 11)
