"""Schedules, certified constants, instances, traces, and the iteration itself.

The 1-d absolute-value preset has fully hand-checkable steps at stage 0
(lambda = mu = 1): the inner map is x + x/2 followed by soft-thresholding
at 1, so 2 -> 2, 0.5 -> 0 and 0 -> 0.
"""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import fejerquant as fq
from fejerquant.errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    HorizonExceeded,
    InvariantViolation,
    ScheduleError,
)
from fejerquant.iteration import (
    ParameterSchedule,
    PowerRule,
    ProblemInstance,
    QuantitativeData,
    TableRule,
    Trace,
    _SchedulePieces,
    gamma_k_check,
    rule_from_json,
    run,
)
from fejerquant.moduli import ModulusFn
from fejerquant.operators import (
    TILE,
    AffinePSD,
    NormalConeBox,
    SubdiffAbsSum,
    ZeroOperator,
    resolvent,
    resolvent_rows,
    yosida,
)
from records import replace


_RESIDUAL_RECOMPUTE_TOL = 1e-12


def validate_residuals(trace: Trace) -> None:
    """Raise unless each stored residual is ||x_n - x_{n+1}|| / mu_n again."""
    if trace.steps == 0:
        return
    diffs = np.linalg.norm(trace.points[:-1] - trace.points[1:], axis=1)
    recomputed = diffs / trace.mus
    if float(np.max(np.abs(recomputed - trace.residuals), initial=0.0)) > _RESIDUAL_RECOMPUTE_TOL:
        raise InvariantViolation("stored residuals do not match recomputation")


def dc_instance(**overrides):
    inst = fq.preset("dc-abs-1d")
    return replace(inst, **overrides) if overrides else inst


# --------------------------------------------------------------------------
# schedule rules
# --------------------------------------------------------------------------


def test_power_rule_values():
    r = PowerRule(Fraction(1), 1)
    assert r.value_array(0, 1)[0] == 1.0 and r.value_array(3, 4)[0] == 0.25
    assert r.value_fraction(3) == Fraction(1, 4)
    assert PowerRule(Fraction(3, 2), 0).value_array(17, 18)[0] == 1.5
    with pytest.raises(ScheduleError):
        PowerRule(Fraction(0), 1)
    with pytest.raises(ScheduleError):
        PowerRule(Fraction(1), -1)


def test_table_rule_values():
    t = TableRule((1.0, 0.5, 0.25))
    assert t.value_array(2, 3)[0] == 0.25 and t.value_fraction(2) == Fraction(1, 4)
    with pytest.raises(HorizonExceeded):
        t.value_fraction(3)
    with pytest.raises(ScheduleError):
        TableRule(())
    with pytest.raises(ScheduleError):
        TableRule((1.0, 0.0))
    # json.load reads Infinity and NaN: a table refuses both
    for bad in ("Infinity", "-Infinity", "NaN"):
        values = json.loads(f"[1.0, {bad}]")
        with pytest.raises(ScheduleError, match="^schedule values must be finite and > 0$"):
            TableRule(values)


def test_schedule_guards():
    with pytest.raises(ScheduleError):
        ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(1), 3), 0)
    with pytest.raises(ScheduleError):
        # table must cover stages 0..horizon
        ParameterSchedule(TableRule((1.0, 1.0)), PowerRule(Fraction(1), 3), 2)
    with pytest.raises(ScheduleError):
        # 1/(n+1)^200 drops below 1e-300 before stage 100
        ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(1), 200), 100)
    sched = ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(1), 3), 10)
    assert sched.lam(1) == 0.5 and sched.mu(1) == 0.125
    assert sched.mu_fraction(1) == Fraction(1, 8)
    with pytest.raises(HorizonExceeded):
        sched.lam(11)
    with pytest.raises(ValueError):
        sched.mu(-1)


def test_rule_json_round_trip():
    for rule in (PowerRule(Fraction(1), 3), PowerRule(Fraction(3, 2), 1), TableRule((1.0, 2.0))):
        again = rule_from_json(rule.to_json())
        assert again.to_json() == rule.to_json()
        assert again.value_array(0, 2).tobytes() == rule.value_array(0, 2).tobytes()
    with pytest.raises(ConfigError, match=r"unknown rule fields \['q'\]"):
        rule_from_json({"rule": "power", "c": 1, "p": 1, "q": 2})
    with pytest.raises(ScheduleError):
        rule_from_json({"rule": "mystery"})
    with pytest.raises(ConfigError, match="missing field 'rule'"):
        rule_from_json({"c": 1})


def test_schedule_json_round_trip():
    sched = ParameterSchedule(PowerRule(Fraction(1), 2), PowerRule(Fraction(1), 4), 50)
    again = ParameterSchedule.from_json(sched.to_json())
    assert again.to_json() == sched.to_json()
    with pytest.raises(ConfigError, match="missing field 'mu'"):
        ParameterSchedule.from_json({"lambda": {"rule": "power", "c": 1, "p": 1}})


def test_closed_form_rates_from_rules():
    # power_rate(c, p) at j is the first stage whose power-rule value is at
    # most 1/(j+1): the theta of a lambda schedule c/(n+1)^p, exactly
    for c, p in ((Fraction(1), 1), (Fraction(1), 2), (Fraction(3, 2), 3), (Fraction(1, 10), 1)):
        rule, th = PowerRule(c, p), ModulusFn.power_rate(c, p)
        for j in range(40):
            n = th(j)
            assert rule.value_fraction(n) <= Fraction(1, j + 1)
            assert n == 0 or rule.value_fraction(n - 1) > Fraction(1, j + 1)


# --------------------------------------------------------------------------
# certified constants
# --------------------------------------------------------------------------


def quant(**overrides):
    base = dict(
        A=Fraction(2),
        B=1,
        Bprime=0,
        C=Fraction(1),
        M=2,
        L=Fraction(4),
        d=1,
        theta=ModulusFn.power_rate(1, 1),
        xi=ModulusFn.power_sum_rate(1, 3),
        varpi=ModulusFn.identity(),
    )
    base.update(overrides)
    return QuantitativeData(**base)


def test_quant_integral_coercion():
    q = quant(B=Fraction(1), M=2.0)
    assert q.B == 1 and isinstance(q.B, int)
    assert q.M == 2 and isinstance(q.M, int)
    with pytest.raises(InvariantViolation):
        quant(M=Fraction(3, 2))


def test_quant_constant_guards():
    with pytest.raises(InvariantViolation):
        quant(A=Fraction(-1))
    with pytest.raises(InvariantViolation):
        quant(C=Fraction(1, 2))
    with pytest.raises(InvariantViolation):
        quant(L=Fraction(-1))
    with pytest.raises(InvariantViolation):
        quant(B=0)
    with pytest.raises(InvariantViolation):
        quant(d=0)
    with pytest.raises(InvariantViolation):
        quant(Bprime=-1)


def standard_schedule(horizon=200):
    return ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(1), 3), horizon)


def test_validate_against_accepts_the_catalog():
    quant().validate_against(standard_schedule())


def test_validate_against_rejects_each_violated_constant():
    # sum mu/lambda = sum 1/(n+1)^2 exceeds 1.6 within 200 stages
    with pytest.raises(InvariantViolation, match="exceed A"):
        quant(A=Fraction(3, 2)).validate_against(standard_schedule())
    with pytest.raises(InvariantViolation, match="B does not dominate"):
        q = quant(A=Fraction(4), B=1)
        q.validate_against(
            ParameterSchedule(PowerRule(Fraction(2), 1), PowerRule(Fraction(1), 3), 200)
        )
    with pytest.raises(InvariantViolation, match="2\\^-Bprime"):
        q = quant(Bprime=0)
        q.validate_against(
            ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(1, 2), 3), 200)
        )
    with pytest.raises(InvariantViolation, match="C does not dominate"):
        quant(C=Fraction(1), B=2, A=Fraction(4)).validate_against(
            ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(2), 3), 200)
        )
    with pytest.raises(InvariantViolation, match="theta"):
        quant(theta=ModulusFn.power_rate(1, 2)).validate_against(standard_schedule())
    with pytest.raises(InvariantViolation, match="xi"):
        quant(xi=ModulusFn.power_sum_rate(1, 4)).validate_against(
            ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(1), 3), 100_000)
        )
    with pytest.raises(InvariantViolation, match="varpi"):
        bad = ModulusFn.table(tuple([5, 3] + [3] * 60))
        quant(varpi=bad).validate_against(standard_schedule())
    # 40,001 stages are read in the pieces [0, 10000), [10000, 20000),
    # [20000, 30000), [30000, 35000) and [35000, 40001): each case below
    # queries a stage, or finds an extremum, before the last piece
    wide = standard_schedule(40_000)
    with pytest.raises(InvariantViolation, match="theta\\(2\\)"):
        quant(theta=ModulusFn.power_rate(1, 2)).validate_against(wide)
    late = ModulusFn.affine(1, 20_000)
    with pytest.raises(InvariantViolation, match="theta\\(1\\)"):
        quant(theta=late).validate_against(spiked(wide, lam={30_000: 0.9}))
    with pytest.raises(InvariantViolation, match="B does not dominate"):
        quant(A=Fraction(4)).validate_against(spiked(wide, lam={25_000: 2.0}))
    with pytest.raises(InvariantViolation, match="C does not dominate sup mu"):
        quant(A=Fraction(4)).validate_against(spiked(wide, lam={25_000: 1.0}, mu={25_000: 2.0}))
    with pytest.raises(InvariantViolation, match="xi\\(1\\)"):
        quant(A=Fraction(4), theta=ModulusFn.affine(1, 36_000), xi=late).validate_against(
            spiked(wide, lam={35_000: 1.0}, mu={35_000: 0.9})
        )
    # the same schedules pass where their spikes are not checked
    quant(theta=ModulusFn.affine(1, 30_001)).validate_against(spiked(wide, lam={30_000: 0.9}))
    past = quant(A=Fraction(4), theta=ModulusFn.affine(1, 36_000), xi=ModulusFn.affine(1, 35_001))
    past.validate_against(spiked(wide, lam={35_000: 1.0}, mu={35_000: 0.9}))


def spiked(schedule, lam=(), mu=()):
    """``schedule`` as table rules, with the values at the stages in ``lam``
    and ``mu`` replaced."""
    h = schedule.horizon
    rules = []
    for values, spikes in ((schedule.lams(0, h + 1), lam), (schedule.mus(0, h + 1), mu)):
        values = values.tolist()
        for n, v in dict(spikes).items():
            values[n] = v
        rules.append(TableRule(tuple(values)))
    return ParameterSchedule(*rules, h)


def piece_schedules(horizon):
    """Two power schedules and a table schedule over stages 0..horizon."""
    rng = np.random.default_rng(horizon)
    yield standard_schedule(horizon)
    yield ParameterSchedule(PowerRule(Fraction(7, 3), 0), PowerRule(Fraction(5, 2), 2), horizon)
    lams, mus = rng.uniform(0.01, 3.0, (2, horizon + 1))
    yield ParameterSchedule(TableRule(lams.tolist()), TableRule((mus * mus).tolist()), horizon)


@pytest.mark.parametrize("horizon", [1, 8191, 8192, 8193, 16385, 100_000, 123_457])
def test_schedule_pieces_read_the_tile_grid(horizon):
    # piece i holds the stages from i * TILE on; the suffix sums, lambda
    # maxima and extrema are those of whole arrays bit for bit, and the total
    # adds the pieces' np.sum right to left
    rng = np.random.default_rng(horizon)
    starts = range(0, horizon + 1, TILE)
    for schedule in piece_schedules(horizon):
        lams, mus = schedule.lams(0, horizon + 1), schedule.mus(0, horizon + 1)
        stages = _SchedulePieces(schedule)
        assert len(stages.carries) == len(starts)
        total = 0.0
        for a in reversed(starts):
            total += float(np.sum(mus[a : a + TILE] / lams[a : a + TILE]))
        assert stages.total == total
        # within len(starts) + 32 ulp of the exact sum: one rounding per
        # piece added, and at most 25 per term inside np.sum's pairwise sum
        exact = math.fsum((mus / lams).tolist())
        assert abs(stages.total - exact) <= (len(starts) + 32) * 2.0**-52 * exact
        if len(starts) == 1:
            assert stages.total == float(np.sum(mus / lams))
        assert (stages.lam_top, stages.mu_top, stages.mu_low) == (lams.max(), mus.max(), mus.min())
        suffix = np.cumsum(mus[::-1])[::-1]
        lam_max = np.maximum.accumulate(lams[::-1])[::-1]
        edges = [x for a in [*starts, horizon + 1] for x in (a - 2, a - 1, a, a + 1)]
        for x in [x for x in edges if 0 <= x <= horizon] + rng.integers(0, horizon + 1, 20).tolist():
            assert stages.suffix(x) == suffix[x]
            assert stages.lam_max(x) == lam_max[x]


def test_validate_against_reads_the_schedule_in_64_kb_pieces(monkeypatch):
    spans = []
    for name in ("lams", "mus"):
        def spy(self, n0, n1, read=getattr(ParameterSchedule, name)):
            spans.append(n1 - n0)
            return read(self, n0, n1)

        monkeypatch.setattr(ParameterSchedule, name, spy)
    schedule = standard_schedule(2**20)
    tracemalloc.start()
    try:
        quant().validate_against(schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(spans) <= 8192
    assert sum(spans) >= 2 * (2**20 + 1)
    # the whole arrays over the 2^20 + 1 stages took 32 MB
    assert peak <= 2**20


def test_quant_json_round_trip():
    q = quant(varpi_hat=ModulusFn.affine(2, 1))
    again = QuantitativeData.from_json(q.to_json())
    assert again.to_json() == q.to_json()
    assert again.varpi_hat is not None
    with pytest.raises(ConfigError):
        QuantitativeData.from_json({**q.to_json(), "extra": 1})
    partial = q.to_json()
    del partial["A"]
    with pytest.raises(ConfigError):
        QuantitativeData.from_json(partial)


# --------------------------------------------------------------------------
# problem instances
# --------------------------------------------------------------------------


def test_instance_dimension_checks():
    inst = dc_instance()
    with pytest.raises(DimensionMismatch):
        replace(inst, S=SubdiffAbsSum(2))
    with pytest.raises(DimensionMismatch):
        replace(inst, x0=np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        replace(inst, quant=quant(d=2))


def test_instance_domain_checks():
    inst = dc_instance()
    box = NormalConeBox(np.array([0.0]), np.array([1.0]))
    # a cone-restricted T needs S to confine the iterates to its box
    with pytest.raises(DomainError):
        replace(inst, T=box)
    wide = NormalConeBox(np.array([-1.0]), np.array([2.0]))
    with pytest.raises(DomainError):
        ProblemInstance(
            T=box, S=wide, x0=np.array([0.5]), schedule=inst.schedule, quant=inst.quant
        )
    nested = ProblemInstance(
        T=wide, S=box, x0=np.array([0.5]), schedule=inst.schedule, quant=inst.quant
    )
    assert nested.dim == 1
    with pytest.raises(DomainError):
        replace(nested, x0=np.array([2.0]))  # outside dom S


@pytest.mark.parametrize("side", ["lo", "hi"])
def test_instance_domain_inclusion_is_checked_on_each_side(side):
    # dom S = [0, 1]^2; T's box is narrower on one side of one coordinate only
    inst = fq.preset("box-affine-nd")
    lo, hi = np.zeros(2), np.ones(2)
    assert replace(inst, T=NormalConeBox(lo - 1.0, hi + 1.0)).dim == 2
    narrow = {"lo": (np.array([0.0, 0.1]), hi), "hi": (lo, np.array([1.0, 0.9]))}[side]
    with pytest.raises(DomainError, match="domain of S must be contained"):
        replace(inst, T=NormalConeBox(*narrow))
    with pytest.raises(DomainError, match="domain of S must be contained"):
        replace(inst, T=NormalConeBox(lo, hi), S=SubdiffAbsSum(2))


def test_search_region_membership():
    inst = dc_instance()  # x0 = 0.5, L = 4
    assert inst.in_search_region([4.5])
    assert not inst.in_search_region([4.6])
    ba = fq.preset("box-affine-nd")
    assert ba.in_search_region([0.0, 1.0])
    assert not ba.in_search_region([0.5, 1.5])  # inside the L-ball, outside dom S


# --------------------------------------------------------------------------
# stepping and runs
# --------------------------------------------------------------------------


def test_single_steps_closed_form():
    def one_step(x0):
        return run(dc_instance(x0=np.array([x0])), 1).points[1, 0]

    assert one_step(2.0) == pytest.approx(2.0, abs=1e-12)
    assert one_step(0.5) == 0.0
    assert one_step(0.0) == 0.0


def test_zero_step_run_is_the_start_point():
    tr = run(dc_instance(), 0)
    assert tr.steps == 0
    assert tr.points.shape == (1, 1) and tr.points[0, 0] == 0.5
    validate_residuals(tr)


def test_stationary_start_point():
    tr = run(dc_instance(x0=np.array([0.0])), 50)
    assert np.all(tr.points == 0.0)
    assert np.all(tr.residuals == 0.0)


def test_runs_are_deterministic():
    a = run(dc_instance(x0=np.array([2.0])), 200)
    b = run(dc_instance(x0=np.array([2.0])), 200)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.residuals, b.residuals)


def test_run_from_two_keeps_a_positive_residual_floor():
    # starting at 2 the step residuals settle near 1.09 and never drop
    # below 1 again -- a genuinely non-convergent parameterization
    tr = run(dc_instance(x0=np.array([2.0])), 2000)
    assert tr.residuals[0] == 0.0
    assert tr.residuals[1] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert float(np.min(tr.residuals[1000:])) > 1.0


def test_run_guards():
    inst = dc_instance()
    with pytest.raises(ValueError):
        run(inst, -1)
    short = replace(inst, schedule=standard_schedule(10))
    with pytest.raises(HorizonExceeded):
        run(short, 11)
    tight = dc_instance(x0=np.array([2.0]), quant=quant(L=Fraction(1, 100)))
    with pytest.raises(InvariantViolation, match="diameter"):
        run(tight, 10)


def arch_instance(L, steps=20_001):
    # coordinate 0 tracks 1/(2 - 1/(1 + 100 lam)): 1/2 while lam is large,
    # about 1 while it is small; coordinate 1 creeps from 0 toward 1. The
    # path (1/2, 0) -> (1, 3/4) -> (1/2, 0.86) has diameter 0.904, against a
    # bounding-box diagonal of 0.998.
    lam = (1000.0,) * 7000 + (1e-5,) * 7000 + (1000.0,) * (steps + 1 - 14000)
    return ProblemInstance(
        T=AffinePSD(np.diag([100.0, 0.0]), np.zeros(2)),
        S=AffinePSD(np.diag([200.0, 1.0]), np.array([-100.0, -1.0])),
        x0=np.array([0.5, 0.0]),
        schedule=ParameterSchedule(TableRule(lam), PowerRule(Fraction(1, 10_000), 0), steps),
        quant=quant(d=2, L=L),
    )


def test_run_checks_the_exact_diameter_at_any_length():
    # beyond 20,000 steps in d > 1 only the bounding-box diagonal used to be
    # compared with L, which rejected this run
    tr = run(arch_instance(Fraction(19, 20)), 20_001)
    box = np.max(tr.points, axis=0) - np.min(tr.points, axis=0)
    assert tr.window_diameter(0, 20_001) <= 0.95 < float(np.linalg.norm(box))
    with pytest.raises(InvariantViolation, match="realized trajectory diameter 0.90"):
        run(arch_instance(Fraction(4, 5)), 20_001)


# --------------------------------------------------------------------------
# traces
# --------------------------------------------------------------------------


def test_trace_residual_validation():
    tr = run(dc_instance(x0=np.array([2.0])), 50)
    validate_residuals(tr)
    bad = np.array(tr.residuals)
    bad[10] += 1e-6
    corrupt = Trace(tr.points, tr.lambdas, tr.mus, bad)
    with pytest.raises(InvariantViolation):
        validate_residuals(corrupt)
    with pytest.raises(DimensionMismatch):
        Trace(tr.points, tr.lambdas[:-1], tr.mus, tr.residuals)


def test_window_diameter_matches_brute_force():
    tr = run(fq.preset("affine-affine-nd"), 60)
    for a, b in ((0, 60), (5, 20), (17, 17)):
        w = tr.points[a : b + 1]
        brute = max(
            (float(np.linalg.norm(p - q)) for p in w for q in w), default=0.0
        )
        assert tr.window_diameter(a, b) == pytest.approx(brute, abs=1e-15)
    for a, b in ((-1, 5), (0, 61), (7, 3)):
        with pytest.raises(ValueError):
            tr.window_diameter(a, b)


def test_trace_jsonl_layout():
    tr = run(dc_instance(), 5)
    lines = tr.to_jsonl().strip().split("\n")
    assert len(lines) == 6  # five step records plus the terminal point
    first = json.loads(lines[0])
    assert first["n"] == 0 and first["x"] == [0.5]
    assert first["lambda"] == 1.0 and first["mu"] == 1.0
    last = json.loads(lines[-1])
    assert last["n"] == 5
    assert last["lambda"] is None and last["mu"] is None and last["residual"] is None


# --------------------------------------------------------------------------
# approximate-solution strata
# --------------------------------------------------------------------------


def test_gamma_witness_closed_form():
    # the canonical membership witness is the Yosida value of T at x
    inst = dc_instance()
    assert yosida(inst.T, 1.0, [0.0])[0] == 0.0
    assert yosida(inst.T, 1.0, [2.0])[0] == pytest.approx(1.0, abs=1e-12)
    assert yosida(inst.T, 0.25, [2.0])[0] == pytest.approx(1.6, abs=1e-12)


def test_gamma_membership_examples():
    inst = dc_instance()
    for k in (0, 3, 10):
        assert gamma_k_check(inst, [0.0], k, [0.0])
    assert gamma_k_check(inst, [2.0], 0, [1.0])
    assert not gamma_k_check(inst, [2.0], 3, [0.0])
    with pytest.raises(ValueError):
        gamma_k_check(inst, [0.0], -1, [0.0])
    with pytest.raises(DomainError):
        gamma_k_check(inst, [9.0], 0, [0.0])  # beyond the L-ball of x0
    short = dc_instance(schedule=standard_schedule(10))
    with pytest.raises(HorizonExceeded):
        gamma_k_check(short, [0.0], 11, [0.0])


def test_gamma_strata_are_nested():
    # membership at level k+1 implies membership at level k (same witness)
    inst = dc_instance()
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(200):
        x = rng.uniform(-3.5, 3.5, size=1)
        y = yosida(inst.T, float(rng.uniform(0.01, 1.0)), x)
        for k in (1, 2, 5):
            if gamma_k_check(inst, x, k, y):
                hits += 1
                assert gamma_k_check(inst, x, k - 1, y)
    assert hits > 0  # the sweep actually exercised the implication


def test_batched_resolvent_points_match_scalar_calls():
    rng = np.random.default_rng(17)
    ops = [
        SubdiffAbsSum(2),
        NormalConeBox(np.zeros(2), np.ones(2)),
        ZeroOperator(2),
        AffinePSD(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.5, -0.5])),
    ]
    lams = np.array([0.2, 1.0, 3.0])
    for op in ops:
        xs = rng.uniform(-2.0, 2.0, size=(3, 2))
        batch = resolvent_rows(op, lams, xs)
        for i, lam in enumerate(lams):
            assert batch[i].tobytes() == resolvent(op, float(lam), xs[i]).tobytes()
