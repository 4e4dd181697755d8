"""Certificates: lemma inequalities on traces, metastable windows, Cauchy
moduli, and the empirical residual-search modulus.

Fault-injection twins accompany every passing check -- a corrupted trace or
deliberately wrong modulus must flip the certificate to unsound, otherwise
the checks prove nothing.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import fejerquant as fq
from fejerquant.errors import (
    MissingSolutions,
    ResidualFloor,
    TableRangeError,
)
from fejerquant.iteration import Trace, run
from fejerquant.moduli import ModulusFn, NaturalBound
from fejerquant.verification import (
    Certificate,
    EmpiricalPhi,
    build_empirical_phi,
    certify_metastability,
    check_approx_error,
    check_cauchy_modulus,
    check_liminf_witness,
    check_quasi_fejer,
    check_uniform_closedness,
    find_metastable,
    monotonize_table,
)

G_LINEAR = ModulusFn.affine(1, 1)  # g(n) = n + 1


def dc(**overrides):
    inst = fq.preset("dc-abs-1d")
    return dataclasses.replace(inst, **overrides) if overrides else inst


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
    corrupt.validate_residuals()  # the fault is in the points, not the bookkeeping
    cert = check_quasi_fejer(corrupt, inst, 100, 100)
    assert not cert.sound
    assert any(v["form"] in ("product", "exp") for v in cert.violations)


def test_quasi_fejer_rejects_fake_solutions():
    inst = from_two()
    tr = run(inst, 50)
    fake = dataclasses.replace(inst, known_solutions=(np.array([0.5]),))
    cert = check_quasi_fejer(tr, fake, 10, 10)
    assert not cert.sound
    assert cert.violations[0]["form"] == "premise"
    with pytest.raises(MissingSolutions):
        check_quasi_fejer(tr, dataclasses.replace(inst, known_solutions=()), 10, 10)


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
        schedule=dataclasses.replace(
            fq.preset("dc-abs-1d").schedule,
            mu_rule=fq.iteration.TableRule((0.5,) * 61),
            horizon=60,
        )
    )
    cert = check_approx_error(run(inst, 60), inst, 40, 40)
    assert cert.sound


def test_approx_error_catches_a_broken_resolvent(monkeypatch):
    # the inequality is a per-point theorem, so only a wrong resolvent can
    # break it; shift the stage images and the tight pairs must overshoot
    inst = from_two()
    tr = run(inst, 60)
    real = fq.verification.resolvent_batch_points

    def skewed(op, lams, pts):
        return real(op, lams, pts) + 5e-9

    monkeypatch.setattr(fq.verification, "resolvent_batch_points", skewed)
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
    return tr, build_empirical_phi(tr, k_max=3, n_max=250, inst=inst)


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


def test_monotonize_table():
    out = monotonize_table(np.array([[3, 2], [1, 9]]))
    assert out.tolist() == [[3, 3], [3, 9]]


def test_empirical_phi_small_example():
    # residuals 2, 0.4, 0.04: first index below 1 is 1, below 1/3 is 2
    pts = np.array([[0.0], [2.0], [2.4], [2.44]])
    diffs = np.abs(pts[:-1, 0] - pts[1:, 0])
    tr = Trace(pts, np.ones(3), np.ones(3), diffs)
    phi = build_empirical_phi(tr, 2)
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
    phi = build_empirical_phi(tr, k_max=2, n_max=150, inst=inst)
    assert phi.provenance == "empirical+stationary"
    assert phi.stationary_from == 1
    assert phi(50, 10_000) == 10_000  # completion: max(n, stationary index)
    assert phi(50, 0) == 1
    assert phi.describe()["stationary_from"] == 1


def test_empirical_phi_without_instance_does_not_extrapolate():
    tr = run(dc(), 200)
    phi = build_empirical_phi(tr, k_max=2, n_max=150)  # no fixed-point certificate
    assert phi.stationary_from is None
    with pytest.raises(TableRangeError):
        phi(0, 151)


def test_empirical_phi_reports_residual_floors():
    # from x0 = 2 the residuals settle above 1: no index qualifies even at k=0
    tr = run(from_two(), 100)
    with pytest.raises(ResidualFloor):
        build_empirical_phi(tr, 1)


def reference_phi_table(res, k_max, n_max):
    """The per-index scan build_empirical_phi replaced: for each k, walk
    back from the end carrying the next index whose residual is below 1/(k+1)."""
    steps = res.shape[0]
    raw = np.empty((k_max + 1, n_max + 1), dtype=np.int64)
    for k in range(k_max + 1):
        thr = 1.0 / (k + 1)
        next_qual = np.full(steps + 1, -1, dtype=np.int64)
        for n in range(steps - 1, -1, -1):
            next_qual[n] = n if res[n] < thr else next_qual[n + 1]
        for n in range(n_max + 1):
            if next_qual[n] < 0:
                raise ResidualFloor(k, n, float(np.min(res[n:])))
            raw[k, n] = next_qual[n]
    return monotonize_table(raw)


def test_empirical_phi_matches_the_reference_scan():
    rng = np.random.default_rng(11)
    outcomes = {"table": 0, "floor": 0}
    for trial in range(300):
        steps = int(rng.integers(1, 60))
        # residuals on the thresholds 1/(k+1) themselves, and a tail that
        # stays high in some trials so the floor is hit at varied (k, n)
        res = rng.choice([2.0, 1.0, 0.5, 0.4, 1 / 3, 0.2, 0.05, 0.0], size=steps)
        if trial % 3 == 0:
            res[int(rng.integers(0, steps)) :] = rng.choice([0.6, 0.3, 0.21])
        tr = Trace(np.zeros((steps + 1, 1)), np.ones(steps), np.ones(steps), res)
        k_max = int(rng.integers(0, 6))
        n_max = int(rng.integers(0, steps))
        try:
            expected = reference_phi_table(res, k_max, n_max)
        except ResidualFloor as want:
            with pytest.raises(ResidualFloor) as got:
                build_empirical_phi(tr, k_max, n_max)
            assert (got.value.k, got.value.n, got.value.floor) == (want.k, want.n, want.floor)
            outcomes["floor"] += 1
            continue
        table = build_empirical_phi(tr, k_max, n_max).table
        assert table.dtype == expected.dtype and np.array_equal(table, expected)
        outcomes["table"] += 1
    assert min(outcomes.values()) > 50


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


# --------------------------------------------------------------------------
# liminf witnesses and uniform closedness
# --------------------------------------------------------------------------


def test_liminf_witness_found_immediately_on_the_catalog():
    inst = dc()
    tr = run(inst, 50)
    cert = check_liminf_witness(inst, tr, 0, 0, max_search)
    assert cert.sound and cert.witness["N"] == 0


def test_liminf_witness_fails_honestly_at_finer_levels():
    # from x0 = 2 the iterates hover near 2.09; level-1 membership needs the
    # Yosida witness within 1/2 of the minimal selection, which never happens
    inst = from_two()
    tr = run(inst, 30)
    cert = check_liminf_witness(inst, tr, 1, 0, max_search)
    assert not cert.sound and not cert.vacuous
    assert int(cert.bound) == 3
    assert cert.violations[0]["range"] == [0, 3]


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
