"""Gap functionals, regularity moduli, and the two Cauchy-modulus combinators.

The hand-traceable stub family (identity transforms, phi(eps) = eps,
phi_search(k, n) = n + k) pins every composition to an exact integer;
grid-oracle moduli are cross-checked on independent, finer grids.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import fejerquant as fq
from fejerquant.errors import (
    ConfigError,
    DomainError,
    EmptyGrid,
    InvariantViolation,
    TableRangeError,
    ZeroInfimum,
)
from fejerquant.iteration import (
    ParameterSchedule,
    PowerRule,
    QuantitativeData,
    gamma_k_check,
)
from fejerquant.moduli import ModulusFn, kappa, kappa_hat
from fejerquant.operators import minimal_selection
from fejerquant.regularity import (
    GHModuli,
    GapFunctional,
    RegularityModulus,
    eval_gap,
    grid_regularity_oracle,
    theta_generic,
    theta_moudafi,
    validate_regularity_ball,
    verify_regularity_on_grid,
)
from records import replace

ZEROS_1D = (np.array([-1.0]), np.array([0.0]), np.array([1.0]))


def dc():
    return fq.preset("dc-abs-1d")


def stub_gh(xi=lambda d: 0):
    # synthetic x_n = 2^-n against F(x) = |x|: all transforms trivial
    return GHModuli(
        alpha_g=lambda e: e,
        beta_h=lambda e: e,
        beta_h_prime_at=Fraction(1),
        tau=lambda d, n: max(n, math.ceil(math.log2(1 / d))),
        xi=xi,
    )


def linear_phi(radius=Fraction(1), scale=Fraction(1)):
    return RegularityModulus("linear", np.array([0.0]), radius, "analytic", scale=scale)


def stub_quant():
    return QuantitativeData(
        A=Fraction(0),
        B=1,
        Bprime=0,
        C=Fraction(1),
        M=1,
        L=Fraction(0),
        d=1,
        theta=ModulusFn.affine(0, 0),
        xi=ModulusFn.identity(),
        varpi=ModulusFn.identity(),
    )


def sum_search(k, n):
    return n + k


# --------------------------------------------------------------------------
# gap functionals
# --------------------------------------------------------------------------


def test_gap_closed_forms():
    inst = dc()
    assert eval_gap(GapFunctional("F1", inst), [2.0]) == pytest.approx(1.0, abs=1e-12)
    assert eval_gap(GapFunctional("F2", inst), [0.0]) == 0.0
    assert eval_gap(GapFunctional("FDiff", inst), [2.0]) == pytest.approx(1.0, abs=1e-12)


def test_gap_guards():
    with pytest.raises(ConfigError):
        GapFunctional("F3", dc())
    ba = fq.preset("box-affine-nd")
    with pytest.raises(DomainError):
        eval_gap(GapFunctional("F1", ba), [2.0, 0.5])


def test_gaps_vanish_exactly_on_solutions():
    inst = dc()
    for variant in ("F1", "F2", "FDiff"):
        g = GapFunctional(variant, inst)
        for z in ZEROS_1D:
            assert eval_gap(g, z) <= 1e-12


def test_fixed_point_and_selection_gaps_share_zeros():
    # F1(x) = 0 iff F2(x) = 0: being a fixed point of the resolvent step is
    # the same as the minimal selection of T lying in Sx
    rng = np.random.default_rng(1)
    for name in ("dc-abs-1d", "box-affine-nd"):
        inst = fq.preset(name)
        g1, g2 = GapFunctional("F1", inst), GapFunctional("F2", inst)
        for _ in range(200):
            p = rng.uniform(-4, 4, 1) if inst.dim == 1 else rng.uniform(0, 1, 2)
            assert (eval_gap(g1, p) < 1e-9) == (eval_gap(g2, p) < 1e-9)


def test_difference_gap_below_selection_gap():
    inst = dc()
    fd, f2 = GapFunctional("FDiff", inst), GapFunctional("F2", inst)
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = rng.uniform(-4, 4, 1)
        assert eval_gap(fd, p) <= eval_gap(f2, p) + 1e-12


# --------------------------------------------------------------------------
# regularity moduli as data
# --------------------------------------------------------------------------


def test_linear_modulus_values():
    phi = linear_phi(scale=Fraction(3, 2))
    assert phi.phi_value(Fraction(1, 2)) == Fraction(3, 4)
    with pytest.raises(DomainError):
        phi.phi_value(Fraction(0))


def test_table_modulus_answers_only_where_certified():
    phi = RegularityModulus(
        "table",
        np.array([0.0]),
        Fraction(4),
        "grid-oracle",
        entries=((Fraction(1, 4), Fraction(1, 8)),),
    )
    assert phi.phi_value(Fraction(1, 4)) == Fraction(1, 8)
    with pytest.raises(DomainError):
        phi.phi_value(Fraction(1, 2))


def test_modulus_construction_guards():
    with pytest.raises(ConfigError):
        RegularityModulus("cubic", np.array([0.0]), Fraction(1), "analytic")
    with pytest.raises(ConfigError):
        RegularityModulus("linear", np.array([0.0]), Fraction(1), "guessed")
    with pytest.raises(InvariantViolation):
        RegularityModulus("linear", np.array([0.0]), Fraction(0), "analytic")
    with pytest.raises(InvariantViolation):
        RegularityModulus("linear", np.array([0.0]), Fraction(1), "analytic", scale=Fraction(0))
    with pytest.raises(InvariantViolation):
        RegularityModulus("table", np.array([0.0]), Fraction(1), "analytic")
    with pytest.raises(InvariantViolation):
        RegularityModulus(
            "table", np.array([0.0]), Fraction(1), "analytic",
            entries=((Fraction(1), Fraction(0)),),
        )


def test_modulus_json_round_trip():
    lin = linear_phi(radius=Fraction(4), scale=Fraction(2, 3))
    tab = RegularityModulus(
        "table",
        np.array([0.0]),
        Fraction(4),
        "grid-oracle",
        entries=((Fraction(1, 4), Fraction(1, 8)), (Fraction(2), Fraction(1))),
    )
    for phi in (lin, tab):
        again = RegularityModulus.from_json(phi.to_json())
        assert again.to_json() == phi.to_json()
    with pytest.raises(ConfigError):
        RegularityModulus.from_json({**lin.to_json(), "entries": []})
    with pytest.raises(ConfigError):
        RegularityModulus.from_json({"provenance": "analytic"})


def test_table_entries_reject_unknown_keys():
    form = {"kind": "table", "provenance": "analytic", "center": [0.0], "radius": "4"}
    entry = {"eps": "1/4", "phi": "1/8"}
    phi = RegularityModulus.from_json({**form, "entries": [entry]})
    assert phi.entries == ((Fraction(1, 4), Fraction(1, 8)),)
    with pytest.raises(ConfigError, match=r"entries: unknown .*\['phii'\]"):
        RegularityModulus.from_json({**form, "entries": [{**entry, "phii": "9"}]})
    with pytest.raises(ConfigError, match="entries: missing field 'phi'"):
        RegularityModulus.from_json({**form, "entries": [{"eps": "1/4"}]})


# --------------------------------------------------------------------------
# the generic Cauchy modulus
# --------------------------------------------------------------------------


def test_generic_modulus_stub_values():
    phi = linear_phi()
    assert int(theta_generic(Fraction(1, 2), stub_gh(), phi)) == 3
    assert int(theta_generic(Fraction(1, 8), stub_gh(), phi)) == 5
    assert int(theta_generic(Fraction(1, 2), stub_gh(xi=lambda d: 7), phi)) == 7


def test_generic_modulus_bounds_the_synthetic_sequence():
    phi = linear_phi()
    xs = 0.5 ** np.arange(0, 2 ** 10 + 1)
    for p in range(1, 7):
        delta = Fraction(1, 2 ** p)
        n0 = int(theta_generic(delta, stub_gh(), phi))
        tail = xs[n0:]
        assert float(np.max(tail) - np.min(tail)) < float(delta)


def test_generic_modulus_guards():
    phi = linear_phi()
    with pytest.raises(DomainError):
        theta_generic(Fraction(0), stub_gh(), phi)
    with pytest.raises(DomainError):
        theta_generic(Fraction(1, 2), stub_gh(), linear_phi(radius=Fraction(1, 2)))
    degenerate = replace(stub_gh(), beta_h=lambda e: Fraction(0))
    with pytest.raises(DomainError):
        theta_generic(Fraction(1, 2), degenerate, phi)
    backwards = replace(stub_gh(), tau=lambda d, n: -1)
    with pytest.raises(InvariantViolation):
        theta_generic(Fraction(1, 2), backwards, phi)


# --------------------------------------------------------------------------
# the iteration-specific Cauchy modulus
# --------------------------------------------------------------------------


def test_iteration_modulus_stub_values():
    q = stub_quant()
    phi = linear_phi()
    assert int(theta_moudafi(Fraction(1), q, sum_search, phi, phi.radius)) == 5789
    assert int(theta_moudafi(Fraction(4), q, sum_search, phi, phi.radius)) == 788


def test_iteration_modulus_shrinks_for_larger_targets():
    q = stub_quant()
    phi = linear_phi()
    vals = [
        int(theta_moudafi(e, q, sum_search, phi, phi.radius))
        for e in (Fraction(4), Fraction(1), Fraction(1, 4))
    ]
    assert vals == sorted(vals)  # finer targets cost more stages
    assert vals[2] == 71873


def test_iteration_modulus_guards():
    q = stub_quant()
    phi = linear_phi()
    with pytest.raises(DomainError):
        theta_moudafi(Fraction(-1), q, sum_search, phi, phi.radius)
    with pytest.raises(ConfigError):
        theta_moudafi(Fraction(1), q, sum_search, phi, phi.radius, use_kappa_hat=True)
    with pytest.raises(DomainError, match=r"radius 1 smaller than .* = 1\.5$"):
        theta_moudafi(Fraction(1), q, sum_search, phi, Fraction(3, 2))


def test_iteration_modulus_is_the_generic_modulus_on_the_iteration_data(monkeypatch):
    # alpha_G(x) = x/e^A, beta_H = id, tau(d, n) = Phi(kappa(ceil(1/d)), n),
    # xi(x) = xi~(ceil(1/x)) and beta'_H(b+e) = the certified trajectory radius
    q = stub_quant()
    phi = linear_phi()
    seen = []
    generic = fq.regularity.theta_generic

    def recording(delta, gh, phi_reg, cap):
        seen.append(gh)
        return generic(delta, gh, phi_reg, cap)

    monkeypatch.setattr(fq.regularity, "theta_generic", recording)
    assert int(theta_moudafi(Fraction(1), q, sum_search, phi, Fraction(1, 3))) == 5789
    (gh,) = seen
    e_a = fq.exp_upper(q.A)
    assert gh.beta_h_prime_at == Fraction(1, 3)
    assert gh.alpha_g(Fraction(1, 4)) == Fraction(1, 4) / e_a
    assert gh.beta_h(Fraction(2, 7)) == Fraction(2, 7)
    assert gh.tau(Fraction(1, 3), 5) == fq.phi_liminf(kappa(3, q.M, q.B), 5, q, sum_search)
    assert gh.xi(Fraction(1, 4)) == fq.xi_tilde(4, q.M, e_a, q.xi)


def calibrated_box():
    # trace-cauchy-2d's inputs: box-affine-nd on lambda power 2, mu power 4
    inst = fq.preset("box-affine-nd")
    sched = ParameterSchedule(PowerRule(Fraction(1), 2), PowerRule(Fraction(1), 4), 12_000)
    q = QuantitativeData(
        A=Fraction(7, 4),
        B=1,
        Bprime=0,
        C=Fraction(1),
        M=3,
        L=Fraction(2),
        d=2,
        theta=ModulusFn.power_rate(1, 2),
        xi=ModulusFn.power_sum_rate(1, 4),
        varpi=ModulusFn.identity(),
        varpi_hat=ModulusFn.identity(),
    )
    return replace(inst, x0=np.array([0.5, 0.5]), schedule=sched, quant=q)


def test_iteration_modulus_on_the_calibrated_box():
    inst = calibrated_box()
    phi_reg = RegularityModulus("linear", np.array([0.0, 1.0]), Fraction(8), "analytic")
    radius = validate_regularity_ball(inst, phi_reg, Fraction(3, 4))
    trace = fq.run(inst, 12_000)
    phi = fq.build_empirical_phi(trace, inst)
    thetas = [int(theta_moudafi(e, inst.quant, phi, phi_reg, radius))
              for e in (Fraction(1, 4), Fraction(1, 16))]
    assert thetas == [2598, 10246]


# --------------------------------------------------------------------------
# the trajectory ball certificate
# --------------------------------------------------------------------------


def slow_lambda_instance():
    # lambda decaying quadratically keeps sum mu/lambda summable with mu quartic
    inst = dc()
    sched = ParameterSchedule(PowerRule(Fraction(1), 2), PowerRule(Fraction(1), 4), 100_000)
    q = QuantitativeData(
        A=Fraction(7, 4),
        B=1,
        Bprime=0,
        C=Fraction(1),
        M=2,
        L=Fraction(4),
        d=1,
        theta=ModulusFn.power_rate(1, 2),
        xi=ModulusFn.power_sum_rate(1, 4),
        varpi=ModulusFn.identity(),
        varpi_hat=ModulusFn.identity(),
    )
    return replace(inst, schedule=sched, quant=q)


def test_regularity_ball_certificate():
    inst = slow_lambda_instance()
    phi = RegularityModulus("linear", np.array([0.0]), Fraction(4), "grid-oracle")
    needed = validate_regularity_ball(inst, phi, Fraction(1, 2))
    assert float(needed) == pytest.approx(3.95984, abs=1e-4)
    assert needed <= Fraction(4)
    with pytest.raises(DomainError):
        validate_regularity_ball(inst, phi, Fraction(1, 4))  # b below ||x0 - z||
    # the trajectory radius does not depend on phi's radius, which the
    # Cauchy modulus compares with it
    small = RegularityModulus("linear", np.array([0.0]), Fraction(3), "grid-oracle")
    assert validate_regularity_ball(inst, small, Fraction(1, 2)) == needed
    with pytest.raises(DomainError, match=r"radius 3 smaller than .* = 3\.95984$"):
        theta_moudafi(Fraction(1, 4), inst.quant, sum_search, small, needed)
    assert int(theta_moudafi(Fraction(1, 4), inst.quant, sum_search, phi, needed)) > 0


@pytest.mark.parametrize("k_max", [0, 1, 2, 5, 37, 1000, 3000])
def test_regularity_ball_is_the_least_candidate_over_every_k(k_max):
    inst = slow_lambda_instance()
    phi = RegularityModulus("linear", np.array([0.0]), Fraction(4), "grid-oracle")
    partial, sums = Fraction(0), []
    for n in range(inst.quant.xi(k_max) + 1):
        sums.append(partial)
        partial += inst.schedule.mu_fraction(n)
    least = min(sums[inst.quant.xi(k)] + Fraction(1, k + 1) for k in range(k_max + 1))
    e_a = fq.exp_upper(inst.quant.A)
    assert validate_regularity_ball(inst, phi, Fraction(1, 2), k_max) == e_a / 2 + least


def reference_regularity_ball(inst, phi_reg, b, k_max=1000):
    """validate_regularity_ball as a loop over every k, which evaluates xi at
    each: the candidate of a run of equal values is made when the run ends."""
    b = Fraction(b)
    if float(np.linalg.norm(inst.x0 - phi_reg.center)) > float(b) + 1e-12:
        raise DomainError("b must bound the distance from x0 to the ball center")
    run_ends = []
    partial = Fraction(0)
    upto = 0
    for k in range(k_max + 1):
        n_k = inst.quant.xi(k)
        if k and upto < n_k:
            run_ends.append(partial + Fraction(1, k))
        while upto < n_k:
            partial += inst.schedule.mu_fraction(upto)
            upto += 1
    return fq.exp_upper(inst.quant.A) * b + min(run_ends + [partial + Fraction(1, k_max + 1)])


XI_KINDS = [
    ModulusFn.identity(),
    ModulusFn.affine(0, 5),
    ModulusFn.affine(2, 3),
    ModulusFn.polynomial([3]),
    ModulusFn.polynomial([1, 2]),
    ModulusFn.power_rate(1, 1),
    ModulusFn.power_rate(Fraction(1, 2), 1),
    ModulusFn.power_rate(3, 2),
    ModulusFn.power_rate(Fraction(5, 2), 5),
    ModulusFn.power_sum_rate(1, 2),
    ModulusFn.power_sum_rate(1, 4),
    ModulusFn.power_sum_rate(Fraction(7, 3), 3),
    ModulusFn.table([0, 0, 2, 2, 2, 5, 9]),
    ModulusFn.table([4, 1, 6, 2, 6, 3, 8]),  # not monotone: the loop over every k
]


@pytest.mark.parametrize("xi", XI_KINDS, ids=[str(x.to_json()) for x in XI_KINDS])
@pytest.mark.parametrize("mu_p", [0, 2])
def test_regularity_ball_run_ends_match_the_loop_over_every_k(xi, mu_p):
    # mu = 1/(8 (n+1)^p): with p = 0 the least candidate comes at a small k,
    # with p = 2 the partial sums level off and it moves out
    inst = slow_lambda_instance()
    sched = ParameterSchedule(PowerRule(Fraction(1), 2), PowerRule(Fraction(1, 8), mu_p), 5000)
    inst = replace(inst, schedule=sched, quant=replace(inst.quant, xi=xi))
    phi = RegularityModulus("linear", np.array([0.0]), Fraction(4), "analytic")
    for k_max in (0, 1, 2, 6) if xi.kind == "table" else (0, 1, 2, 1000):
        want = reference_regularity_ball(inst, phi, Fraction(1, 2), k_max)
        assert validate_regularity_ball(inst, phi, Fraction(1, 2), k_max) == want


def test_a_table_xi_is_refused_at_its_first_k_out_of_range():
    # a table is read at every k in order, monotone or not
    inst = slow_lambda_instance()
    phi = RegularityModulus("linear", np.array([0.0]), Fraction(4), "analytic")
    for values in ([1, 2, 2, 3], [3, 1, 2, 2]):
        short = replace(inst, quant=replace(inst.quant, xi=ModulusFn.table(values)))
        with pytest.raises(TableRangeError, match=r"^table modulus evaluated at 4, valid range"):
            validate_regularity_ball(short, phi, Fraction(1, 2), 1000)


# --------------------------------------------------------------------------
# grid-certified regularity
# --------------------------------------------------------------------------


def test_grid_oracle_on_the_difference_gap():
    gap = GapFunctional("FDiff", dc())
    phi = grid_regularity_oracle(
        gap, ZEROS_1D, [0.0], Fraction(4), [Fraction(1, 4), Fraction(2)]
    )
    assert phi.kind == "table" and phi.provenance == "grid-oracle"
    # |FDiff(x)| = |x - sign(x)| away from 0, so the infimum at distance >= eps
    # is exactly eps; the oracle shrinks it by 1e-6 to stay strict
    assert float(phi.phi_value(Fraction(2))) == pytest.approx(2 * (1 - 1e-6), rel=1e-9)
    assert float(phi.phi_value(Fraction(1, 4))) == pytest.approx(0.25 * (1 - 1e-6), rel=1e-9)


def test_grid_oracle_survives_a_finer_grid():
    gap = GapFunctional("FDiff", dc())
    phi = grid_regularity_oracle(gap, ZEROS_1D, [0.0], Fraction(4), [Fraction(2)])
    assert verify_regularity_on_grid(gap, phi, ZEROS_1D, Fraction(2), Fraction(1, 500))


def test_distance_dominated_by_difference_gap():
    # D(x, zer) <= FDiff(x) on the working ball, so phi(eps) = eps is a valid
    # analytic modulus for this problem
    gap = GapFunctional("FDiff", dc())
    zeros = np.array([-1.0, 0.0, 1.0])
    xs = np.linspace(-4.0, 4.0, 1001)
    for x in xs:
        dist = float(np.min(np.abs(zeros - x)))
        assert dist <= eval_gap(gap, [x]) + 1e-12


def test_grid_oracle_degenerate_cases():
    gap = GapFunctional("FDiff", dc())
    # every grid point within eps of the declared zeros: phi unconstrained
    with pytest.raises(ZeroInfimum, match="within"):
        grid_regularity_oracle(gap, [np.array([0.0])], [0.0], Fraction(4), [Fraction(8)])
    # gap vanishes at +-1, which sit at distance 1 >= 1/2 from the sole
    # declared zero: no positive phi exists
    with pytest.raises(ZeroInfimum, match="vanishes"):
        grid_regularity_oracle(gap, [np.array([0.0])], [0.0], Fraction(4), [Fraction(1, 2)])


def test_grid_oracle_structural_guards():
    gap = GapFunctional("FDiff", dc())
    with pytest.raises(EmptyGrid):
        grid_regularity_oracle(gap, ZEROS_1D, [0.0], Fraction(0), [Fraction(1)])
    with pytest.raises(EmptyGrid):
        grid_regularity_oracle(gap, ZEROS_1D, [0.0], Fraction(4), [])
    with pytest.raises(EmptyGrid):
        grid_regularity_oracle(gap, [], [0.0], Fraction(4), [Fraction(1)])
    with pytest.raises(DomainError):
        grid_regularity_oracle(gap, ZEROS_1D, [0.0], Fraction(4), [Fraction(-1)])


# --------------------------------------------------------------------------
# conversion from membership depth to gap size
# --------------------------------------------------------------------------


def wide_instance():
    # L = 9/2 makes the search region cover all of [-4, 4] from x0 = 1/2
    inst = dc()
    return replace(
        inst, quant=replace(inst.quant, L=Fraction(9, 2))
    )


def test_membership_depth_bounds_the_gaps():
    inst = wide_instance()
    f1, f2 = GapFunctional("F1", inst), GapFunctional("F2", inst)
    ident = ModulusFn.identity()
    xs = np.linspace(-4.0, 4.0, 41)  # pitch 0.2 lands exactly on -1, 0, 1
    hits1 = hits2 = 0
    for k in (0, 1):
        deep = kappa(k, inst.quant.M, inst.quant.B)
        deeper = kappa_hat(k, inst.quant.M, inst.quant.B, inst.quant.Bprime, ident)
        bound = 1.0 / (k + 1) + 1e-9
        for x in xs:
            p = np.array([x])
            y = minimal_selection(inst.T, p)
            if gamma_k_check(inst, p, deep, y):
                hits1 += 1
                assert eval_gap(f1, p) <= bound
            if gamma_k_check(inst, p, deeper, y):
                hits2 += 1
                assert eval_gap(f2, p) <= bound
    # the exact solutions pass at every depth, so neither sweep is vacuous
    assert hits1 >= 3 and hits2 >= 3
