"""Certificates: lemma inequalities on traces, metastable windows, Cauchy
moduli, and the empirical residual-search modulus.

Fault-injection twins accompany every passing check -- a corrupted trace or
deliberately wrong modulus must flip the certificate to unsound, otherwise
the checks prove nothing.
"""

import json
import math
import tracemalloc
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from test_iteration import validate_residuals
from test_stepper import instance, reference_yosida

import fejerquant as fq
from fejerquant.errors import (
    MissingSolutions,
    ResidualFloor,
    TableRangeError,
)
from fejerquant.iteration import Trace, gamma_k_check, run
from fejerquant.moduli import ModulusFn, NaturalBound, delta, omega, phi_liminf
from fejerquant.operators import AffinePSD, minimal_selection
from fejerquant.verification import (
    _SLACK,
    Certificate,
    _in_gamma,
    _instance_params,
    _verified_stage_fixed_point,
    EmpiricalPhi,
    build_empirical_phi,
    certify_metastability,
    check_approx_error,
    check_cauchy_modulus,
    check_quasi_fejer,
    find_metastable,
)
from records import replace

G_LINEAR = ModulusFn.affine(1, 1)  # g(n) = n + 1


def dc(**overrides):
    inst = fq.preset("dc-abs-1d")
    return replace(inst, **overrides) if overrides else inst


def from_two():
    return dc(x0=np.array([2.0]))


def synthetic_halving(n_steps=40):
    pts = (0.5 ** np.arange(n_steps + 1)).reshape(-1, 1)
    diffs = np.abs(pts[:-1, 0] - pts[1:, 0])
    return Trace(pts, np.ones(n_steps), np.ones(n_steps), diffs)


def max_search(k, n):
    return max(k, n)


# --------------------------------------------------------------------------
# quasi-Fejer inequalities
# --------------------------------------------------------------------------


def test_quasi_fejer_holds_on_the_catalog_run():
    inst = from_two()
    cert = check_quasi_fejer(run(inst, 150), inst, 100, 100)
    assert cert.sound and not cert.violations
    assert cert.kind == "lemma-inequality"
    assert cert.witness["checked"] > 20_000


def test_quasi_fejer_holds_on_a_stationary_run():
    inst = dc(x0=np.array([0.0]))
    cert = check_quasi_fejer(run(inst, 60), inst, 40, 40)
    assert cert.sound


def test_quasi_fejer_catches_an_injected_fault():
    inst = from_two()
    tr = run(inst, 150)
    pts = np.array(tr.points)
    pts[51] += 1e-3  # one interior iterate nudged by a milli
    diffs = np.linalg.norm(pts[:-1] - pts[1:], axis=1)
    corrupt = Trace(pts, tr.lambdas, tr.mus, diffs / tr.mus)
    validate_residuals(corrupt)  # the fault is in the points, not the bookkeeping
    cert = check_quasi_fejer(corrupt, inst, 100, 100)
    assert not cert.sound
    assert any(v["form"] in ("product", "exp") for v in cert.violations)


def test_quasi_fejer_rejects_fake_solutions():
    inst = from_two()
    tr = run(inst, 50)
    fake = replace(inst, known_solutions=(np.array([0.5]),))
    cert = check_quasi_fejer(tr, fake, 10, 10)
    assert not cert.sound
    assert cert.violations[0]["form"] == "premise"
    with pytest.raises(MissingSolutions):
        check_quasi_fejer(tr, replace(inst, known_solutions=()), 10, 10)


# --------------------------------------------------------------------------
# cross-stage resolvent error bound
# --------------------------------------------------------------------------


def test_approx_error_holds_on_the_catalog_run():
    inst = from_two()
    cert = check_approx_error(run(inst, 150), inst, 100, 150)
    assert cert.sound and cert.witness["checked"] == 101 * 151
    # the bound is an equality on this operator pair whenever i <= n, so the
    # largest gap sits at float noise rather than at some visible margin
    assert abs(cert.witness["max_overshoot"]) < 1e-12


def test_approx_error_with_constant_steps():
    # mu constant makes the cross-stage term vanish: lhs must equal the
    # single-step displacement up to slack
    inst = dc(
        schedule=replace(
            fq.preset("dc-abs-1d").schedule,
            mu_rule=fq.iteration.TableRule((0.5,) * 61),
            horizon=60,
        )
    )
    cert = check_approx_error(run(inst, 60), inst, 40, 40)
    assert cert.sound


def dense_abs_2d():
    return instance(
        fq.AffinePSD(np.array([[2.0, 0.7], [0.7, 1.0]]), np.array([0.3, -1.1])),
        fq.SubdiffAbsSum(2),
        [1.3, -0.7],
        fq.ParameterSchedule(fq.PowerRule(Fraction(3, 2), 1), fq.PowerRule(Fraction(1), 2), 200),
    )


def reference_approx_error(trace, inst, max_n, max_i):
    # the per-n loop before the row forms, through the per-point Yosida ladder;
    # stage images come from the same resolvent_rows as the code under test
    steps = trace.steps
    mus_all = inst.schedule.mus(0, max_i + 1)
    violations = []
    checked = 0
    max_overshoot: Optional[float] = None
    for n in range(min(max_n, steps - 1) + 1):
        x_n = trace.points[n]
        t_n = reference_yosida(inst.T, trace.lambdas[n], x_n)
        mu_n = trace.mus[n]
        rate = float(np.linalg.norm(reference_yosida(inst.S, mu_n, x_n + mu_n * t_n) - t_n))
        shifted = x_n[None, :] + mus_all[:, None] * t_n[None, :]
        moved = fq.verification.resolvent_rows(inst.S, mus_all, shifted)
        lhs = np.linalg.norm(moved - x_n[None, :], axis=1)
        rhs = mu_n * rate + np.abs(mu_n - mus_all) * rate
        checked += mus_all.shape[0]
        gaps = lhs - rhs
        worst = float(np.max(gaps))
        if max_overshoot is None or worst > max_overshoot:
            max_overshoot = worst
        for i in np.nonzero(gaps > _SLACK)[0]:
            violations.append(
                {"n": n, "i": int(i), "lhs": float(lhs[i]), "rhs": float(rhs[i] + _SLACK)}
            )
    return Certificate(
        kind="lemma-inequality",
        params={"lemma": "approx-error", "max_n": max_n, "max_i": max_i, **_instance_params(inst)},
        witness={"checked": checked, "max_overshoot": max_overshoot},
        bound=None,
        sound=not violations,
        violations=tuple(violations[:50]),
        provenance={"slack": _SLACK},
    )


@pytest.mark.parametrize(
    "name,x0,steps,max_n,max_i",
    [
        ("dc-abs-1d", [2.0], 150, 100, 150),
        ("dc-abs-1d", [-0.5], 60, 80, 30),  # max_n beyond the trace, signed zeros
        ("dc-abs-1d", [2.0], 0, 5, 5),  # a zero-step trace checks nothing
        ("dc-abs-1d", [2.0], 20, -3, 10),
        ("box-affine-nd", None, 200, 150, 200),
        ("affine-affine-nd", None, 120, 120, 60),
        ("dense-abs-2d", None, 200, 200, 100),  # a curved path: rates need row_norms
        ("dc-abs-1d", [2.0], 200, 150, 150),  # tiles of 54 rows: 54 + 54 + 43
        ("dc-abs-1d", [2.0], 30, 20, 9000),  # 9,001 stages: one-row tiles
    ],
)
def test_approx_error_rows_match_the_per_point_loop(name, x0, steps, max_n, max_i):
    inst = dense_abs_2d() if name == "dense-abs-2d" else fq.preset(name)
    if x0 is not None:
        inst = replace(inst, x0=np.array(x0))
    tr = run(inst, steps)
    got = check_approx_error(tr, inst, max_n, max_i).to_json()
    want = reference_approx_error(tr, inst, max_n, max_i).to_json()
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_approx_error_rows_match_the_per_point_loop_in_violations(monkeypatch):
    # shifted stage images break every (n, 0), so the rates of the first 50
    # stages show in the recorded right-hand sides; on this curved path
    # np.linalg.norm(..., axis=1) would round stages 18 and 36 differently
    inst = dense_abs_2d()
    tr = run(inst, 200)
    real = fq.verification.resolvent_rows
    monkeypatch.setattr(
        fq.verification, "resolvent_rows", lambda op, lams, pts: real(op, lams, pts) + 1.0
    )
    got = check_approx_error(tr, inst, 200, 0).to_json()
    want = reference_approx_error(tr, inst, 200, 0).to_json()
    assert len(got["violations"]) == 50
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_approx_error_cut_at_50_crosses_a_tile_edge(monkeypatch):
    # one broken stage: each row n has one violation, and the 50 kept come
    # from rows 0..49, over tiles of 40 rows x 101 stages x d = 2
    inst = dense_abs_2d()
    tr = run(inst, 200)
    broken = inst.schedule.mus(0, 101)[7]
    real = fq.verification.resolvent_rows
    monkeypatch.setattr(
        fq.verification,
        "resolvent_rows",
        lambda op, lams, pts: real(op, lams, pts) + (lams == broken)[:, None],
    )
    got = check_approx_error(tr, inst, 200, 100).to_json()
    want = reference_approx_error(tr, inst, 200, 100).to_json()
    assert [(v["n"], v["i"]) for v in got["violations"]] == [(n, 7) for n in range(50)]
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("rows", [(0,), (5,), (130,), (0, 130)])
def test_approx_error_folds_nan_rows_in_row_order(monkeypatch, rows):
    # a NaN gap in row 0 is the max_overshoot, a later one is passed over
    # (`worst > max_overshoot` is false), as in the loop; row 5 lies in the
    # first tile of 54 rows, row 130 in the third
    inst = from_two()
    tr = run(inst, 200)
    mus_all = inst.schedule.mus(0, 151)
    ts = fq.yosida_rows(inst.T, tr.lambdas[:151], tr.points[:151])
    poisoned = [tr.points[n][None, :] + mus_all[:, None] * ts[n][None, :] for n in rows]
    poisoned = np.concatenate(poisoned)[:, 0]
    real = fq.verification.resolvent_rows

    def nan_rows(op, lams, pts):
        out = real(op, lams, pts)
        out[np.isin(pts[:, 0], poisoned)] = np.nan
        return out

    monkeypatch.setattr(fq.verification, "resolvent_rows", nan_rows)
    with np.errstate(invalid="ignore"):  # NaN comparisons may raise the flag
        got = check_approx_error(tr, inst, 150, 150).to_json()
        want = reference_approx_error(tr, inst, 150, 150).to_json()
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    overshoot = got["witness"]["max_overshoot"]
    assert math.isnan(overshoot) == (0 in rows)


@pytest.mark.parametrize("kernel", [check_quasi_fejer, check_approx_error])
def test_lemma_kernels_keep_a_flat_memory_peak(kernel):
    # lemmas-1d size: 1.9M quasi-Fejer and 0.64M approx-error inequalities;
    # one 801 x 801 float64 block alone would be 5.1 MB
    inst = dc(x0=np.array([0.5]))
    tr = run(inst, 1600)
    kernel(tr, inst, 800, 800)  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        kernel(tr, inst, 800, 800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # bytes; the kernels peak near 0.5 and 0.66 MB


def test_approx_error_catches_a_broken_resolvent(monkeypatch):
    # the inequality is a per-point theorem, so only a wrong resolvent can
    # break it; shift the stage images and the tight pairs must overshoot
    inst = from_two()
    tr = run(inst, 60)
    real = fq.verification.resolvent_rows

    def skewed(op, lams, pts):
        return real(op, lams, pts) + 5e-9

    monkeypatch.setattr(fq.verification, "resolvent_rows", skewed)
    cert = check_approx_error(tr, inst, 40, 40)
    assert not cert.sound and cert.violations
    assert all(v["lhs"] > v["rhs"] for v in cert.violations)


# --------------------------------------------------------------------------
# metastable windows
# --------------------------------------------------------------------------


def test_find_metastable_on_the_halving_sequence():
    tr = synthetic_halving()
    assert find_metastable(tr, 1, ModulusFn.affine(0, 5)) == 1
    assert find_metastable(tr, 0, ModulusFn.affine(0, 0)) == 0
    # every candidate window overruns the trace
    assert find_metastable(tr, 0, ModulusFn.affine(1, 41)) is None


def test_find_metastable_on_a_constant_trace():
    tr = run(dc(x0=np.array([0.0])), 30)
    for k in (0, 3, 7):
        assert find_metastable(tr, k, G_LINEAR) == 0


def test_find_metastable_agrees_with_brute_force():
    rng = np.random.default_rng(13)
    pts = np.cumsum(rng.normal(0, 0.3, size=25)).reshape(-1, 1)
    diffs = np.abs(pts[:-1, 0] - pts[1:, 0])
    tr = Trace(pts, np.ones(24), np.ones(24), diffs)
    for k in (0, 1, 3):
        expected = None
        for n in range(tr.steps + 1):
            w = G_LINEAR(n)
            if n + w <= tr.steps and tr.window_diameter(n, n + w) <= 1.0 / (k + 1):
                expected = n
                break
        assert find_metastable(tr, k, G_LINEAR) == expected


def pilot_phi(inst, steps=300):
    tr = run(inst, steps)
    return tr, build_empirical_phi(tr, inst=inst)


def test_metastability_certificate_on_the_catalog():
    inst = dc()
    tr, phi = pilot_phi(inst)
    assert phi.provenance == "empirical+stationary" and phi.stationary_from == 1
    cert = certify_metastability(
        inst, 0, G_LINEAR, phi, 300, trace=tr, use_psi_prime=True, check_gamma=True
    )
    assert cert.sound and not cert.vacuous
    assert cert.witness["N"] == 0
    assert cert.witness["window"] == [0, 1]
    assert cert.witness["N_gamma"] == 0
    assert cert.witness["P"] == "481"
    assert int(cert.bound) > 0
    # the strengthened rate dominates the window-only rate
    assert int(NaturalBound.from_json(cert.witness["psi_prime"])) >= int(cert.bound)


def test_metastability_certificate_names_the_phi_provenance():
    # the README quickstart: an EmpiricalPhi is labelled as such, with no
    # argument to say so; any other phi_search is an analytic input
    inst = dc()
    trace = run(inst, 1000)
    phi = build_empirical_phi(trace, inst=inst)
    cert = certify_metastability(inst, 0, G_LINEAR, phi, horizon=1000, trace=trace)
    assert cert.provenance == {"phi_search": "empirical+stationary"}
    empirical = EmpiricalPhi(phi.residuals, phi.steps, phi.stationary_from, "empirical")
    cert = certify_metastability(inst, 0, G_LINEAR, empirical, horizon=1000, trace=trace)
    assert cert.provenance == {"phi_search": "empirical"}
    cert = certify_metastability(inst, 0, G_LINEAR, lambda k, n: n + k, 1000, trace=trace)
    assert cert.provenance == {"phi_search": "analytic"}


def test_metastability_certificate_reports_short_horizons():
    inst = dc()
    tr, phi = pilot_phi(inst)
    short = run(inst, 1)
    cert = certify_metastability(inst, 0, ModulusFn.affine(0, 5), phi, 1, trace=short)
    assert not cert.sound and not cert.vacuous
    assert any("horizon" in v["reason"] for v in cert.violations)


def test_metastability_certificate_overflow_is_vacuous():
    inst = dc()
    tr, phi = pilot_phi(inst)
    cert = certify_metastability(inst, 0, G_LINEAR, phi, 300, trace=tr, cap=10)
    assert cert.vacuous and cert.sound
    assert cert.bound.is_overflow and cert.bound.to_json() == {"overflow": True}


def test_metastability_rate_ends_at_a_fixed_point_of_its_stages():
    # box-affine-nd on the lambda power 2, mu power 4 schedule: the sublinear
    # theta = power_rate(1, 2) sends the recursion to a fixed point long
    # before its P = 8,231,162 stages at k = 10
    inst = fq.ProblemInstance.from_json({
        "problem": "box-affine-nd",
        "schedule": {"lambda": {"rule": "power", "c": 1, "p": 2},
                     "mu": {"rule": "power", "c": 1, "p": 4}, "horizon": 2000},
        "quant": {"A": "7/4", "B": 1, "Bprime": 0, "C": "1", "M": 3, "L": "2", "d": 2,
                  "theta": {"kind": "power_rate", "c": "1", "p": 2},
                  "xi": {"kind": "power_sum_rate", "c": "1", "p": 4},
                  "varpi": {"kind": "identity"}},
    })
    tr = run(inst, 2000)
    phi = build_empirical_phi(tr, inst=inst)
    assert phi.answers_every_query
    cert = certify_metastability(inst, 10, G_LINEAR, phi, 2000, trace=tr)
    assert cert.witness["P"] == "8231162"
    assert cert.bound == NaturalBound(1501) and cert.sound and not cert.vacuous


# Hand-built traces on dc-abs-1d (stage 0: lambda = mu = 1) with g(n) = 1, so
# a window is [n, n + 1]. A constant phi_search c makes psi = psi' = c: the
# recursion's first stage returns c and every later one keeps it.
G_ONE = ModulusFn.affine(0, 1)


def hand_trace(xs):
    """A trace through the points xs with unit stage parameters."""
    pts = np.array(xs, dtype=float).reshape(-1, 1)
    steps = len(xs) - 1
    return Trace(pts, np.ones(steps), np.ones(steps), np.abs(np.diff(pts[:, 0])))


def constant_phi(c):
    return lambda k, n: c


def test_metastability_decides_n_at_the_rate():
    # windows [0, 1] and [1, 2] move by 5; [2, 3] is the first of diameter <= 1
    inst, tr = dc(), hand_trace([0.0, 5.0, 10.0, 10.0, 10.0])
    at = certify_metastability(inst, 0, G_ONE, constant_phi(2), 4, trace=tr)
    assert (at.witness["N"], int(at.bound)) == (2, 2) and at.sound
    below = certify_metastability(inst, 0, G_ONE, constant_phi(1), 4, trace=tr)
    assert (below.witness["N"], int(below.bound)) == (2, 1)
    assert not below.sound and not below.vacuous


def test_metastability_decides_n_gamma_at_the_strengthened_rate():
    # at 4 the Yosida witness 2 is 2 away from T(4) = {4}: no level-0
    # member; 0 is one. [0, 1] is metastable at N = 0, [2, 3] is the first
    # window of members
    inst, tr = dc(), hand_trace([4.0, 4.0, 0.0, 0.0, 0.0])
    assert [_in_gamma(inst, tr, 0, i) for i in range(5)] == [False, False, True, True, True]
    for c, sound in ((2, True), (1, False)):
        cert = certify_metastability(
            inst, 0, G_ONE, constant_phi(c), 4, trace=tr, use_psi_prime=True, check_gamma=True
        )
        assert cert.witness["N"] == 0 and cert.witness["N_gamma"] == 2
        assert cert.witness["psi_prime"] == str(c)
        assert cert.sound is sound and not cert.vacuous


def test_metastability_without_a_window_of_approximate_solutions_is_unsound():
    # every window is metastable, and none is made of level-0 members
    inst, tr = dc(), hand_trace([4.0, 4.0, 4.0, 4.0])
    cert = certify_metastability(
        inst, 0, G_ONE, constant_phi(5), 3, trace=tr, use_psi_prime=True, check_gamma=True
    )
    assert cert.witness["N"] == 0 and cert.witness["N_gamma"] is None
    assert cert.witness["psi_prime"] == "5"
    assert not cert.sound and not cert.vacuous
    assert cert.violations == ({"reason": "no window of approximate solutions found"},)


def test_certificate_json_is_reproducible():
    inst = dc()
    tr, phi = pilot_phi(inst)
    a = certify_metastability(inst, 1, G_LINEAR, phi, 300, trace=tr)
    b = certify_metastability(inst, 1, G_LINEAR, phi, 300, trace=tr)
    assert a.to_json() == b.to_json()
    assert a.digest == b.digest and len(a.digest) == 64
    assert a.to_json()["witness_N"] == a.witness["N"]


# --------------------------------------------------------------------------
# empirical residual-search modulus
# --------------------------------------------------------------------------


def monotonize_table(table: np.ndarray) -> np.ndarray:
    """Cumulative max along both axes: the smallest pointwise-dominating
    table that is monotone nondecreasing in k (axis 0) and n (axis 1).
    A table of phi's answers is monotone, so it is its own closure."""
    out = np.array(table, dtype=np.int64, copy=True)
    np.maximum.accumulate(out, axis=0, out=out)
    np.maximum.accumulate(out, axis=1, out=out)
    return out


def test_monotonize_table():
    out = monotonize_table(np.array([[3, 2], [1, 9]]))
    assert out.tolist() == [[3, 3], [3, 9]]


def test_empirical_phi_small_example():
    # residuals 2, 0.4, 0.04: first index below 1 is 1, below 1/3 is 2
    pts = np.array([[0.0], [2.0], [2.4], [2.44]])
    diffs = np.abs(pts[:-1, 0] - pts[1:, 0])
    tr = Trace(pts, np.ones(3), np.ones(3), diffs)
    phi = build_empirical_phi(tr)
    assert phi(0, 0) == 1 and phi(0, 2) == 2
    assert phi(1, 0) == 1 and phi(2, 0) == 2
    assert phi.provenance == "empirical" and phi.stationary_from is None
    with pytest.raises(TableRangeError):
        phi(0, 5)  # no stationarity certificate, no extrapolation
    with pytest.raises(ValueError):
        phi(-1, 0)


def test_empirical_phi_stationary_completion():
    inst = dc()
    tr = run(inst, 200)
    phi = build_empirical_phi(tr, inst=inst)
    assert phi.provenance == "empirical+stationary"
    assert phi.stationary_from == 1
    assert phi(50, 10_000) == 10_000  # completion: max(n, stationary index)
    assert phi(50, 0) == 1
    assert phi.answers_every_query


def test_a_diagonal_t_must_fix_the_tail_at_lambda_b_too():
    # T x = x and S x = 2x - 1 agree at 1, so T(1) = 1 lies in S(1) = {1}: the
    # lambda -> 0 endpoint holds. The Yosida value at lambda = B = 1 is 1/2,
    # not in S(1), so no stage map fixes 1 and a constant trace there is not
    # a stationary tail: its 0.0 residuals answer no query
    inst = dc(S=AffinePSD([[2.0]], [-1.0]), x0=np.array([1.0]), known_solutions=())
    assert not _verified_stage_fixed_point(inst, np.array([1.0]))
    phi = build_empirical_phi(hand_trace([1.0] * 6), inst=inst)
    assert phi.stationary_from is None and phi.provenance == "empirical"
    for n in (0, 3, 6):
        with pytest.raises(TableRangeError, match="the trace tail is not verified stationary$"):
            phi(0, n)


def reference_stationary_from(points: np.ndarray) -> int:
    """The first index of the run of rows equal to the last one, row by row."""
    same = np.all(points == points[-1][None, :], axis=1)
    first = len(points) - 1
    while first > 0 and same[first - 1]:
        first -= 1
    return first


@pytest.mark.parametrize(
    "moving,want",
    [
        ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], None),  # the tail is the last row alone
        ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 11),  # one constant step
        ([], 0),  # every row
        ([5], 6),  # broken by one differing row
    ],
)
def test_stationary_from_matches_the_row_loop(moving, want):
    # 0 is fixed by every stage map of dc-abs-1d; the moving rows sit off it
    steps = 12
    pts = np.zeros((steps + 1, 1))
    pts[moving, 0] = 0.25 / (1 + np.arange(len(moving)))
    diffs = np.abs(pts[:-1, 0] - pts[1:, 0])
    tr = Trace(pts, np.ones(steps), np.ones(steps), diffs)
    phi = build_empirical_phi(tr, inst=dc())
    first = reference_stationary_from(pts)
    assert phi.stationary_from == (first if first < steps else None) == want


def test_empirical_phi_without_instance_does_not_extrapolate():
    # the trace stays at 0 from step 1, but no instance certifies 0 as fixed:
    # past the first residual, inside the tail and past the trace, phi raises
    tr = run(dc(), 200)
    phi = build_empirical_phi(tr)  # no fixed-point certificate
    assert phi.stationary_from is None and not phi.answers_every_query
    assert phi(0, 0) == 0
    for k, n in ((1, 0), (0, 1), (0, 151), (0, 200), (0, 201)):
        with pytest.raises(TableRangeError, match="the trace tail is not verified stationary$"):
            phi(k, n)


def test_empirical_phi_reports_residual_floors():
    # from x0 = 2 the residuals settle above 1: no index from 50 on qualifies
    # even at k = 0
    tr = run(from_two(), 100)
    phi = build_empirical_phi(tr)
    with pytest.raises(ResidualFloor) as floor:
        phi(0, 50)
    assert (floor.value.k, floor.value.n) == (0, 50)
    assert floor.value.floor == float(np.min(tr.residuals[50:])) > 1


def test_a_rounding_stall_answers_no_phi_query():
    # T = Id, S = 0 (the CLI's rounding-stall config): from step 249,647 the
    # iterate stays at 0.8637 with residual 0.0, far from the only zero 0. A
    # search that read that residual would answer phi(105, 105) = 249,647
    inst = fq.ProblemInstance.from_json({
        "problem": {"T": {"kind": "affine_psd", "matrix": [[1.0]], "offset": [0.0]},
                    "S": {"kind": "zero", "dim": 1}, "x0": [0.5]},
        "schedule": {"lambda": {"rule": "power", "c": 1, "p": 1},
                     "mu": {"rule": "power", "c": 1, "p": 3}, "horizon": 300_000},
        "quant": dc().quant.to_json(),
    })
    tr = run(inst, 300_000)
    assert tr.residuals[249_647] == 0.0 and tr.residuals[249_646] > 1
    phi = build_empirical_phi(tr, inst=inst)
    with pytest.raises(TableRangeError) as err:
        phi(105, 105)
    assert str(err.value) == (
        "empirical residual modulus queried at (k=105, n=105) finds no residual below 1/106 "
        "up to the constant tail at 249647, and the trace tail is not verified stationary"
    )
    assert phi.stationary_from is None and phi.residuals.shape == (249_647,)


def test_phi_thresholds_are_int_divisions():
    # 1 / (k + 1) is correctly rounded: at k = 2**53 it is the float below
    # 2**-53, where 1.0 / (k + 1) rounds k + 1 first and gives 2**-53 itself
    k = 2**53
    thr = 1 / (k + 1)
    assert thr == np.nextafter(2.0**-53, 0) and 1.0 / (k + 1) == 2.0**-53
    res = np.array([1.0, thr, np.nextafter(thr, 0), 0.0])
    tr = Trace(np.arange(5.0).reshape(-1, 1), np.ones(4), np.ones(4), res)
    phi = build_empirical_phi(tr)
    assert [phi(k, n) for n in range(4)] == [2, 2, 2, 3]
    # at k = 10**400, 1.0 / (k + 1) raises OverflowError; 1 / (k + 1) is 0.0,
    # which no residual is below: a moving trace reaches its floor, and a
    # verified stationary tail answers by the completion
    k = 10**400
    with pytest.raises(ResidualFloor) as floor:
        phi(k, 1)
    assert (floor.value.k, floor.value.n, floor.value.floor) == (k, 1, 0.0)
    inst = dc()
    stationary = build_empirical_phi(run(inst, 50), inst=inst)
    assert stationary.stationary_from == 1
    assert [stationary(k, n) for n in (0, 1, 7, 10**400)] == [1, 1, 7, 10**400]


def reference_phi_table(res, k_max):
    """The per-index scan: for each k <= k_max, walk back from the end
    carrying the next index whose residual is below 1/(k+1), -1 where no
    index from n on qualifies."""
    steps = res.shape[0]
    raw = np.empty((k_max + 1, steps), dtype=np.int64)
    for k in range(k_max + 1):
        thr = 1.0 / (k + 1)
        nxt = -1
        for n in range(steps - 1, -1, -1):
            if res[n] < thr:
                nxt = n
            raw[k, n] = nxt
    return raw


# zeros, ties, NaN, inf, values that qualify at no level, and each threshold
# 1/(k+1), k <= 6, with the floats either side of it
PHI_POOL = [0.0, 0.0, 2.0, 1.0, 0.5, 0.25, 1 / 3, 1 / 7, 1 / 40, 0.01, 1e-300, np.inf, np.nan]
PHI_POOL += [v for k in range(7) for v in (np.nextafter(1 / (k + 1), 0), np.nextafter(1 / (k + 1), 2))]
RAISES = np.iinfo(np.int64).max  # an answer table's mark for a query that raises


def test_empirical_phi_matches_the_reference_scan():
    rng = np.random.default_rng(11)
    outcomes = {"answer": 0, "floor": 0}
    for trial in range(150):
        steps = int(rng.integers(1, 40))
        res = rng.choice(PHI_POOL, size=steps)
        if trial % 3 == 0:  # a floor the tail never drops below
            res[int(rng.integers(0, steps)) :] = rng.choice([0.6, 0.3, 0.21, 1 / 11])
        # a moving trace: no two rows alike, so every residual is searched
        tr = Trace(np.arange(steps + 1.0).reshape(-1, 1), np.ones(steps), np.ones(steps), res)
        phi = build_empirical_phi(tr, inst=dc())
        assert phi.stationary_from is None and phi.residuals.shape == (steps,)
        want = reference_phi_table(res, 6)
        got = np.full_like(want, RAISES)
        for k in range(7):
            for n in range(steps):
                if want[k, n] >= 0:
                    got[k, n] = phi(k, n)
                    outcomes["answer"] += 1
                    continue
                with pytest.raises(ResidualFloor) as floor:
                    phi(k, n)
                assert (floor.value.k, floor.value.n) == (k, n)
                assert np.array_equal(floor.value.floor, np.min(res[n:]), equal_nan=True)
                outcomes["floor"] += 1
            with pytest.raises(TableRangeError, match="past the trace's"):
                phi(k, steps)
        assert np.array_equal(got, np.where(want >= 0, want, RAISES))
        assert np.array_equal(monotonize_table(got), got)  # monotone in k and in n
    assert min(outcomes.values()) > 500


def test_empirical_phi_reads_a_constant_tail_only_when_verified():
    rng = np.random.default_rng(23)
    outcomes = {"answer": 0, "completion": 0, "raise": 0}
    for trial in range(200):
        steps = int(rng.integers(1, 40))
        res = rng.choice(PHI_POOL, size=steps)
        # rows off the tail point before the tail: at 0, which every stage map
        # of dc-abs-1d fixes, or at 1/2, which none does
        first = int(rng.integers(0, steps + 1))
        pts = np.zeros((steps + 1, 1))
        pts[:first, 0] = 0.25 / (1 + np.arange(first))
        verified = trial % 2 == 0
        if not verified:
            pts[:, 0] += 0.5
        tr = Trace(pts, np.ones(steps), np.ones(steps), res)
        phi = build_empirical_phi(tr, inst=dc())
        assert first == reference_stationary_from(pts)
        assert phi.stationary_from == (first if verified and first < steps else None)
        want = reference_phi_table(res[:first], 6)
        got = np.full((7, steps + 2), RAISES)
        for k in range(7):
            for n in range(steps + 2):
                if n < first and want[k, n] >= 0:
                    got[k, n] = want[k, n]
                    outcomes["answer"] += 1
                elif phi.stationary_from is not None:
                    got[k, n] = max(n, first)
                    outcomes["completion"] += 1
                else:
                    error = ResidualFloor if n < first == steps else TableRangeError
                    with pytest.raises(error):
                        phi(k, n)
                    outcomes["raise"] += 1
                    continue
                assert phi(k, n) == got[k, n]
        assert np.array_equal(monotonize_table(got), got)
    assert min(outcomes.values()) > 500


# --------------------------------------------------------------------------
# Cauchy-modulus certificates
# --------------------------------------------------------------------------


def test_cauchy_modulus_on_a_constant_trace():
    tr = run(dc(x0=np.array([0.0])), 100)
    cert = check_cauchy_modulus(tr, lambda e: NaturalBound.of(0), [Fraction(1, 2)])
    assert cert.sound and not cert.vacuous
    entry = cert.witness["per_eps"]["1/2"]
    assert entry["status"] == "pass" and entry["diameter"] == 0.0


def test_cauchy_modulus_rejects_a_zero_modulus_on_a_jump():
    pts = np.concatenate([[0.0], np.ones(50)]).reshape(-1, 1)
    diffs = np.abs(pts[:-1, 0] - pts[1:, 0])
    tr = Trace(pts, np.ones(50), np.ones(50), diffs)
    cert = check_cauchy_modulus(tr, lambda e: NaturalBound.of(0), [Fraction(1, 2)])
    assert not cert.sound
    assert cert.violations[0]["diameter"] == 1.0


def test_cauchy_modulus_requires_strict_inequality():
    pts = np.concatenate([[0.0], np.full(50, 0.5)]).reshape(-1, 1)
    diffs = np.abs(pts[:-1, 0] - pts[1:, 0])
    tr = Trace(pts, np.ones(50), np.ones(50), diffs)
    cert = check_cauchy_modulus(tr, lambda e: NaturalBound.of(0), [Fraction(1, 2)])
    assert not cert.sound  # diameter equals eps, the conclusion needs <


def test_cauchy_modulus_vacuous_cases():
    tr = run(dc(x0=np.array([0.0])), 100)
    beyond = check_cauchy_modulus(tr, lambda e: NaturalBound.of(10 ** 6), [Fraction(1, 2)])
    assert beyond.sound and beyond.vacuous
    assert beyond.witness["per_eps"]["1/2"]["status"] == "vacuous"
    overflowed = check_cauchy_modulus(tr, lambda e: NaturalBound.overflow(), [Fraction(1, 2)])
    assert overflowed.vacuous


def test_cauchy_modulus_checks_the_one_point_window_at_the_last_step():
    # theta = steps leaves the window {x_steps}, which is checked; one past
    # it there is no window, and the conclusion is vacuous
    tr = run(dc(), 100)
    last = check_cauchy_modulus(tr, lambda e: NaturalBound.of(tr.steps), [Fraction(1, 2)])
    assert last.sound and not last.vacuous
    assert last.witness["per_eps"]["1/2"] == {"theta": "100", "status": "pass", "diameter": 0.0}
    past = check_cauchy_modulus(tr, lambda e: NaturalBound.of(tr.steps + 1), [Fraction(1, 2)])
    assert past.sound and past.vacuous
    assert past.witness["per_eps"]["1/2"] == {"theta": "101", "status": "vacuous"}


# --------------------------------------------------------------------------
# liminf witnesses and uniform closedness
# --------------------------------------------------------------------------


def test_liminf_witness_found_immediately_on_the_catalog():
    # the liminf lemma: some iterate in [n, Phi(k, n)] is a level-k
    # approximate solution with its canonical Yosida witness
    inst = dc()
    tr = run(inst, 50)
    assert phi_liminf(0, 0, inst.quant, max_search) <= tr.steps
    assert _in_gamma(inst, tr, 0, 0)


def test_liminf_witness_fails_honestly_at_finer_levels():
    # from x0 = 2 the iterates hover near 2.09; level-1 membership needs the
    # Yosida witness within 1/2 of the minimal selection, which never happens
    inst = from_two()
    tr = run(inst, 30)
    assert phi_liminf(1, 0, inst.quant, max_search) == 3
    assert not any(_in_gamma(inst, tr, 1, i) for i in range(4))


def check_uniform_closedness(inst, samples, k):
    """Sample the uniform closedness of the approximate-solution strata:
    whenever q is a level-delta(k) member (witness T°q) and p is within
    1/(omega(k)+1) of q, then p is a level-k member with the same witness.

    A test-side check: it needs caller-supplied sample pairs, which no config
    can express, so no task runs it."""
    dlt = delta(k)
    om = omega(k, inst.quant.M, inst.quant.varpi)
    tol = 1.0 / (om + 1)
    asserted = 0
    skipped = 0
    violations = []
    for p, q in samples:
        p = np.asarray(p, dtype=float).reshape(-1)
        q = np.asarray(q, dtype=float).reshape(-1)
        y_q = minimal_selection(inst.T, q)
        if float(np.linalg.norm(p - q)) > tol or not gamma_k_check(inst, q, dlt, y_q):
            skipped += 1
            continue
        asserted += 1
        if not gamma_k_check(inst, p, k, y_q):
            violations.append(
                {"p": [float(v) for v in p], "q": [float(v) for v in q]}
            )
    return Certificate(
        kind="lemma-inequality",
        params={"lemma": "uniform-closedness", "k": k, **_instance_params(inst)},
        witness={"asserted": asserted, "skipped": skipped},
        bound=None,
        sound=not violations,
        vacuous=asserted == 0,
        violations=tuple(violations),
        provenance={"delta": dlt, "omega": om},
    )


def test_uniform_closedness_sampled():
    inst = dc()
    near = [
        (np.array([0.0]), np.array([0.0])),
        (np.array([0.125]), np.array([0.0])),  # exactly at the 1/(omega+1) radius
    ]
    cert = check_uniform_closedness(inst, near, 0)
    assert cert.sound and not cert.vacuous
    assert cert.witness == {"asserted": 2, "skipped": 0}
    assert cert.provenance == {"delta": 1, "omega": 7}


def test_uniform_closedness_skips_far_pairs():
    inst = dc()
    cert = check_uniform_closedness(inst, [(np.array([1.0]), np.array([0.0]))], 0)
    assert cert.sound and cert.vacuous
    assert cert.witness == {"asserted": 0, "skipped": 1}
