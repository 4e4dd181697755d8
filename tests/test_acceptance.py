"""End-to-end acceptance gate.

Eight independent criteria, each printing one PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live). Every numeric
tolerance and runtime budget is asserted, not just eyeballed; fault-injection
twins prove the inequality checks can actually fail.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from test_operators import resolvent_identity_residual

import fejerquant as fq
from fejerquant.iteration import (
    ParameterSchedule,
    PowerRule,
    QuantitativeData,
    Trace,
    gamma_k_check,
    run,
)
from fejerquant.moduli import (
    ModulusFn,
    chi,
    delta,
    exp_upper,
    kappa,
    kappa_hat,
    omega,
    psi,
    sqrt_upper,
    total_boundedness_P,
    varpi_prime,
)
from fejerquant.operators import (
    AffinePSD,
    NormalConeBox,
    SubdiffAbsSum,
    ZeroOperator,
    minimal_selection,
)
from fejerquant.regularity import (
    GHModuli,
    GapFunctional,
    RegularityModulus,
    eval_gap,
    eval_gaps,
    theta_generic,
    theta_moudafi,
    validate_regularity_ball,
)
from fejerquant.verification import (
    build_empirical_phi,
    certify_metastability,
    check_approx_error,
    check_cauchy_modulus,
    check_quasi_fejer,
)
from records import replace

IDENT = ModulusFn.identity()
G_LINEAR = ModulusFn.affine(1, 1)


def report(number, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number}/8 {label}: {'PASS' if ok else 'FAIL'}{suffix}")


# --------------------------------------------------------------------------
# shared expensive artifacts
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def catalog_trace():
    """dc-abs-1d from x0 = 2, 250 recorded stages."""
    inst = replace(fq.preset("dc-abs-1d"), x0=np.array([2.0]))
    return inst, run(inst, 250)


@pytest.fixture(scope="module")
def standard_pilot():
    """dc-abs-1d from the catalog start, full 10^5-stage pilot."""
    inst = fq.preset("dc-abs-1d")
    trace = run(inst, 100_000)
    phi = build_empirical_phi(trace, inst=inst)
    return inst, trace, phi


@pytest.fixture(scope="module")
def calibrated_pilot():
    """Faster-decaying schedule whose certified constants admit the
    regularity ball B(0; 4): lambda quadratic, mu quartic."""
    base = fq.preset("dc-abs-1d")
    sched = ParameterSchedule(PowerRule(Fraction(1), 2), PowerRule(Fraction(1), 4), 100_000)
    quant = QuantitativeData(
        A=Fraction(7, 4),
        B=1,
        Bprime=0,
        C=Fraction(1),
        M=2,
        L=Fraction(4),
        d=1,
        theta=ModulusFn.power_rate(1, 2),
        xi=ModulusFn.power_sum_rate(1, 4),
        varpi=IDENT,
        varpi_hat=IDENT,
    )
    inst = replace(base, schedule=sched, quant=quant)
    inst.quant.validate_against(inst.schedule)
    trace = run(inst, 100_000)
    phi = build_empirical_phi(trace, inst=inst)
    return inst, trace, phi


# --------------------------------------------------------------------------
# 1: resolvent identity across the operator catalog
# --------------------------------------------------------------------------


def test_criterion_1_resolvent_identity():
    ops = [
        AffinePSD(np.array([[1.0]]), np.array([0.0])),
        AffinePSD(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0])),
        SubdiffAbsSum(1),
        NormalConeBox(np.array([0.0, -1.0]), np.array([1.0, 2.0])),
        ZeroOperator(2),
    ]
    rng = np.random.default_rng(101)
    started = time.time()
    worst = 0.0
    for op in ops:
        for _ in range(100):
            x = rng.uniform(-3.0, 3.0, size=op.dim)
            if isinstance(op, NormalConeBox):
                x = np.clip(x, op.lo, op.hi)
            gamma = float(rng.uniform(0.1, 10.0))
            lam = float(rng.uniform(0.1, 10.0))
            worst = max(worst, resolvent_identity_residual(op, gamma, lam, x))
    elapsed = time.time() - started
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, "resolvent-identity", ok, f"max residual {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# 2: quasi-Fejer inequalities with fault injection
# --------------------------------------------------------------------------


def test_criterion_2_quasi_fejer(catalog_trace):
    inst, trace = catalog_trace
    started = time.time()
    cert = check_quasi_fejer(trace, inst, 100, 100)
    pts = np.array(trace.points)
    pts[51] += 1e-3
    diffs = np.linalg.norm(pts[:-1] - pts[1:], axis=1)
    corrupt = Trace(pts, trace.lambdas, trace.mus, diffs / trace.mus)
    fault = check_quasi_fejer(corrupt, inst, 100, 100)
    elapsed = time.time() - started
    ok = cert.sound and not fault.sound and elapsed < 10.0
    report(
        2,
        "quasi-fejer",
        ok,
        f"{cert.witness['checked']} inequalities, fault caught={not fault.sound}, {elapsed:.2f}s",
    )
    assert cert.sound and not cert.violations
    assert not fault.sound and fault.violations
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# 3: cross-stage resolvent error bound
# --------------------------------------------------------------------------


def test_criterion_3_approx_error(catalog_trace):
    inst, trace = catalog_trace
    cert = check_approx_error(trace, inst, 200, 200)
    ok = cert.sound
    report(3, "approx-error", ok, f"{cert.witness['checked']} inequalities")
    assert cert.sound and not cert.violations
    assert cert.witness["checked"] == 201 * 201


# --------------------------------------------------------------------------
# 4: generic Cauchy combinator on the halving sequence
# --------------------------------------------------------------------------


def test_criterion_4_generic_cauchy_modulus():
    gh = GHModuli(
        alpha_g=lambda e: e,
        beta_h=lambda e: e,
        beta_h_prime_at=Fraction(1),
        tau=lambda d, n: max(n, math.ceil(math.log2(1 / d))),
        xi=lambda d: 0,
    )
    phi = RegularityModulus("linear", np.array([0.0]), Fraction(1), "analytic")
    started = time.time()
    xs = 0.5 ** np.arange(0, 2 ** 14 + 1)
    worst_margin = float("inf")
    thetas = []
    for p in range(1, 7):
        dlt = Fraction(1, 2 ** p)
        n0 = int(theta_generic(dlt, gh, phi))
        thetas.append(n0)
        tail = xs[n0:]
        # the sequence is scalar, so the largest |x_n - x_m| over the whole
        # window [theta, 2^14] is exactly max(tail) - min(tail)
        spread = float(np.max(tail) - np.min(tail))
        worst_margin = min(worst_margin, float(dlt) - spread)
    elapsed = time.time() - started
    ok = worst_margin > 0 and elapsed < 5.0
    report(4, "generic-cauchy", ok, f"theta={thetas}, min margin {worst_margin:.2e}, {elapsed:.2f}s")
    assert worst_margin > 0
    assert elapsed < 5.0


# --------------------------------------------------------------------------
# 5: metastability rates on the catalog pilot
# --------------------------------------------------------------------------


def test_criterion_5_metastability(standard_pilot):
    inst, trace, phi = standard_pilot
    assert phi.provenance == "empirical+stationary"
    results = []
    ok = True
    for k in (0, 1, 2):
        started = time.time()
        cert = certify_metastability(inst, k, G_LINEAR, phi, 100_000, trace=trace)
        elapsed = time.time() - started
        n_found = cert.witness["N"]
        within = cert.sound and not cert.vacuous and n_found <= int(cert.bound)
        ok = ok and within and elapsed < 60.0
        results.append((k, n_found, len(str(int(cert.bound))), round(elapsed, 2)))
        if k == 0:
            ok = ok and cert.witness["P"] == "481"
            assert cert.witness["P"] == "481"
        assert within, f"k={k}: N={n_found} not within the computed rate"
        assert elapsed < 60.0
    report(5, "metastability", ok, f"(k, N, psi digits, s): {results}")
    assert ok


# --------------------------------------------------------------------------
# 6: iteration-specific Cauchy modulus under metric regularity
# --------------------------------------------------------------------------


def test_criterion_6_cauchy_modulus(calibrated_pilot):
    inst, trace, phi = calibrated_pilot
    gap = GapFunctional("FDiff", inst)
    zeros = np.array([-1.0, 0.0, 1.0])
    # phi(eps) = eps is a regularity modulus on B(0; 4): the distance to the
    # zero set is dominated by the gap on a 10^4-point grid
    grid = np.linspace(-4.0, 4.0, 10_000)
    dist = np.min(np.abs(zeros - grid[:, None]), axis=1)
    # eval_gaps equals the single-point eval_gap bit for bit on every row
    violations = int(np.sum(dist > eval_gaps(gap, grid[:, None]) + 1e-12))
    phi_reg = RegularityModulus("linear", np.array([0.0]), Fraction(4), "grid-oracle")
    needed = validate_regularity_ball(inst, phi_reg, Fraction(1, 2))

    def theta_eval(eps):
        return theta_moudafi(eps, inst.quant, phi, phi_reg, needed, use_kappa_hat=True)

    cert = check_cauchy_modulus(trace, theta_eval, [Fraction(1, 4), Fraction(1, 16)])
    quarter = cert.witness["per_eps"]["1/4"]
    ok = violations == 0 and cert.sound and quarter["status"] == "pass"
    report(
        6,
        "moudafi-cauchy",
        ok,
        f"grid violations {violations}, ball {float(needed):.3f} <= 4, "
        f"theta(1/4)={quarter['theta']}, statuses "
        f"{[v['status'] for v in cert.witness['per_eps'].values()]}",
    )
    assert violations == 0
    assert needed <= Fraction(4)
    assert cert.sound
    # the coarser target must be certified non-vacuously on this schedule
    assert quarter["status"] == "pass" and quarter["theta"] == "3679"
    assert cert.witness["per_eps"]["1/16"]["status"] in ("pass", "vacuous")


# --------------------------------------------------------------------------
# 7: golden modulus values
# --------------------------------------------------------------------------


def test_criterion_7_golden_values():
    class StubQ:
        A = Fraction(0)
        d = 1
        L = Fraction(0)
        M = 1
        C = Fraction(1)
        theta = staticmethod(lambda j: 0)
        xi = staticmethod(lambda j: 0)
        varpi = IDENT

    golden = {
        "delta(0)": (delta(0), 1),
        "omega(0)": (omega(0, 1, IDENT), 3),
        "varpi'(1)": (varpi_prime(1, 1, IDENT), 3),
        "kappa(0)": (kappa(0, 1, 1), 71),
        "kappa(1)": (kappa(1, 1, 1), 391),
        "chi(1,2,3)": (int(chi(1, 2, 3, exp_upper(Fraction(0)))), 6),
        "chi(0,0,1)": (int(chi(0, 0, 1, exp_upper(Fraction(1)))), 3),
        "P(0)": (
            int(total_boundedness_P(0, exp_upper(Fraction(2)), sqrt_upper(1), Fraction(4), 1)),
            481,
        ),
        "stub psi": (
            int(psi(0, ModulusFn.affine(0, 0), StubQ(), lambda k, n: n + k)),
            15,
        ),
    }
    bad = {name: got for name, (got, want) in golden.items() if got != want}
    report(7, "golden-values", not bad, f"{len(golden)} exact values" if not bad else str(bad))
    assert not bad


# --------------------------------------------------------------------------
# 8: membership depth controls the gap functionals
# --------------------------------------------------------------------------


def test_criterion_8_conversion_lemmas():
    base = fq.preset("dc-abs-1d")
    # widen the certified trajectory bound so the search region covers the
    # whole sampled interval [-4, 4] from x0 = 1/2
    inst = replace(
        base, quant=replace(base.quant, L=Fraction(9, 2))
    )
    f1, f2 = GapFunctional("F1", inst), GapFunctional("F2", inst)
    grid = np.linspace(-4.0, 4.0, 201)[:-1]  # 200 points, hits -1, 0, 1 exactly
    hits1 = hits2 = 0
    bad = []
    for k in (0, 1, 2):
        depth = kappa(k, inst.quant.M, inst.quant.B)
        depth_hat = kappa_hat(k, inst.quant.M, inst.quant.B, inst.quant.Bprime, IDENT)
        bound = 1.0 / (k + 1) + 1e-9
        for x in grid:
            p = np.array([x])
            witness = minimal_selection(inst.T, p)
            if gamma_k_check(inst, p, depth, witness):
                hits1 += 1
                if eval_gap(f1, p) > bound:
                    bad.append(("F1", k, x))
            if gamma_k_check(inst, p, depth_hat, witness):
                hits2 += 1
                if eval_gap(f2, p) > bound:
                    bad.append(("F2", k, x))
    ok = not bad and hits1 >= 3 and hits2 >= 3
    report(8, "conversion-lemmas", ok, f"premise hits {hits1}+{hits2}, violations {len(bad)}")
    assert not bad
    assert hits1 >= 3 and hits2 >= 3  # the sweep is not vacuous
