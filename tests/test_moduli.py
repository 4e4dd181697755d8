"""Exact-arithmetic tests for the modulus combinators.

Golden values are frozen from independent hand evaluation of each closed
formula; the certified rational upper bounds (e^A, sqrt d) are checked
against mpmath at 50 digits. Everything here is integer/Fraction math, so
equality assertions are exact unless stated otherwise.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fejerquant.errors import (
    ConfigError,
    InvariantViolation,
    NegativeExponent,
    TableRangeError,
)
from fejerquant.moduli import (
    DEFAULT_CAP,
    ModulusFn,
    NaturalBound,
    RationalUpper,
    bounded_sub,
    ceil_div,
    ceil_fraction,
    ceil_nth_root,
    chi,
    delta,
    exp_upper,
    kappa,
    kappa_hat,
    omega,
    phi_liminf,
    psi,
    psi_prime,
    sqrt_upper,
    total_boundedness_P,
    varpi_prime,
    xi_tilde,
)

IDENT = ModulusFn.identity()


class StubQ:
    """Duck-typed quantitative data for exercising the combinators alone."""

    def __init__(self, A=Fraction(0), d=1, L=Fraction(0), M=1, C=Fraction(1),
                 theta=None, xi=None, varpi=IDENT):
        self.A = A
        self.d = d
        self.L = L
        self.M = M
        self.C = C
        self.theta = theta if theta is not None else (lambda j: 0)
        self.xi = xi if xi is not None else (lambda j: 0)
        self.varpi = varpi


# --------------------------------------------------------------------------
# integer / rational arithmetic helpers
# --------------------------------------------------------------------------


def test_bounded_sub_values():
    assert bounded_sub(5, 3) == 2
    assert bounded_sub(3, 5) == 0
    assert bounded_sub(0, 0) == 0


def test_bounded_sub_rejects_negatives():
    with pytest.raises(ValueError):
        bounded_sub(-1, 0)
    with pytest.raises(ValueError):
        bounded_sub(0, -1)


@given(st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=0, max_value=10 ** 9))
def test_bounded_sub_properties(n, m):
    s = bounded_sub(n, m)
    assert s + m >= n
    assert 0 <= s <= n


def test_ceil_helpers():
    assert ceil_fraction(Fraction(7, 2)) == 4
    assert ceil_fraction(Fraction(-1, 2)) == 0
    assert ceil_fraction(Fraction(4)) == 4
    assert ceil_div(7, 2) == 4
    assert ceil_div(8, 2) == 4


def test_ceil_nth_root_exact_cases():
    assert ceil_nth_root(Fraction(27), 3) == 3
    assert ceil_nth_root(Fraction(28), 3) == 4
    assert ceil_nth_root(Fraction(1, 2), 2) == 1
    assert ceil_nth_root(Fraction(0), 5) == 0


@given(st.integers(min_value=0, max_value=10 ** 12),
       st.integers(min_value=1, max_value=7))
def test_ceil_nth_root_is_minimal(x, p):
    t = ceil_nth_root(Fraction(x), p)
    assert t ** p >= x
    if t > 0:
        assert (t - 1) ** p < x


# --------------------------------------------------------------------------
# certified upper bounds against a high-precision oracle
# --------------------------------------------------------------------------


@pytest.mark.parametrize("a", [Fraction(0), Fraction(1), Fraction(2),
                               Fraction(7, 4), Fraction(1, 3), Fraction(5)])
def test_exp_upper_is_tight_upper_bound(a):
    import mpmath

    mpmath.mp.dps = 50
    u = exp_upper(a)
    true = mpmath.exp(mpmath.mpf(a.numerator) / a.denominator)
    gap = mpmath.mpf(u.value.numerator) / u.value.denominator - true
    assert gap >= 0
    assert gap < 1e-6


def test_exp_upper_interval_examples():
    assert exp_upper(Fraction(0)).value == 1
    u1 = exp_upper(Fraction(1)).value
    assert Fraction(2718281, 10 ** 6) <= u1 <= Fraction(2718283, 10 ** 6)
    u2 = exp_upper(Fraction(2)).value
    assert Fraction(7389056, 10 ** 6) <= u2 <= Fraction(7389058, 10 ** 6)


def test_exp_upper_rejects_negative():
    with pytest.raises(NegativeExponent):
        exp_upper(Fraction(-1))


@pytest.mark.parametrize("d", list(range(1, 21)))
def test_sqrt_upper_is_tight_upper_bound(d):
    import mpmath

    mpmath.mp.dps = 50
    u = sqrt_upper(d)
    gap = mpmath.mpf(u.value.numerator) / u.value.denominator - mpmath.sqrt(d)
    assert gap >= 0
    assert gap < 1e-6


def test_sqrt_upper_exact_on_squares():
    assert sqrt_upper(1).value == 1
    assert sqrt_upper(4).value == 2
    u2 = sqrt_upper(2).value
    assert Fraction(1414213, 10 ** 6) <= u2 <= Fraction(1414215, 10 ** 6)


def test_results_monotone_in_the_upper_bound():
    # a looser upper bound on e^A can only push the moduli up, never down
    loose = exp_upper(Fraction(1))
    tight = RationalUpper(loose.value - Fraction(1, 10 ** 9), "e^1",
                          Fraction(1, 10 ** 12))
    for r, n, m in [(0, 0, 1), (3, 2, 5), (10, 0, 7)]:
        assert int(chi(r, n, m, tight)) <= int(chi(r, n, m, loose))
    assert xi_tilde(5, 2, tight, IDENT) <= xi_tilde(5, 2, loose, IDENT)
    assert int(total_boundedness_P(1, tight, sqrt_upper(2), Fraction(3), 2)) <= int(
        total_boundedness_P(1, loose, sqrt_upper(2), Fraction(3), 2)
    )


# --------------------------------------------------------------------------
# first-layer moduli
# --------------------------------------------------------------------------


def test_chi_examples():
    assert int(chi(0, 0, 0, exp_upper(Fraction(5)))) == 0
    assert int(chi(1, 2, 3, exp_upper(Fraction(0)))) == 6
    assert int(chi(0, 0, 1, exp_upper(Fraction(1)))) == 3


def test_chi_monotone_in_each_argument():
    e1 = exp_upper(Fraction(1))
    for r in range(4):
        for n in range(4):
            for m in range(4):
                base = int(chi(r, n, m, e1))
                assert int(chi(r + 1, n, m, e1)) >= base
                assert int(chi(r, n + 1, m, e1)) >= base
                assert int(chi(r, n, m + 1, e1)) >= base


def test_chi_rejects_negative_arguments():
    with pytest.raises(ValueError):
        chi(-1, 0, 0, exp_upper(Fraction(0)))


def test_delta_and_omega():
    assert delta(0) == 1
    assert delta(5) == 11
    assert omega(0, 1, IDENT) == 3
    assert omega(1, 2, IDENT) == 31


def test_varpi_prime():
    assert varpi_prime(1, 1, IDENT) == 3
    assert varpi_prime(0, 1, IDENT) == 0
    # k=2, B=3: inner argument 3*4 + 2*3*2 + 3 - 1 = 26, doubled by the map
    assert varpi_prime(2, 3, ModulusFn.affine(2, 0)) == 52


def test_xi_tilde_examples():
    assert xi_tilde(0, 1, exp_upper(Fraction(0)), IDENT) == 2
    assert xi_tilde(7, 1, exp_upper(Fraction(0)), IDENT) == 23
    assert xi_tilde(0, 1, exp_upper(Fraction(2)), IDENT) == 22


def test_total_boundedness_P_examples():
    assert int(total_boundedness_P(0, exp_upper(Fraction(2)), sqrt_upper(1),
                                   Fraction(4), 1)) == 481
    assert int(total_boundedness_P(0, exp_upper(Fraction(0)), sqrt_upper(1),
                                   Fraction(0), 1)) == 1
    assert int(total_boundedness_P(1, exp_upper(Fraction(0)), sqrt_upper(2),
                                   Fraction(1), 2)) == 2117


def test_total_boundedness_P_overflow():
    big = total_boundedness_P(10 ** 6, exp_upper(Fraction(2)), sqrt_upper(3),
                              Fraction(10 ** 6), 500, cap=10 ** 100)
    assert big.is_overflow


def test_phi_liminf_examples():
    q = StubQ(M=1, C=Fraction(1), theta=ModulusFn.affine(1, 1), varpi=IDENT)
    phi = lambda k, n: n + k + 1  # noqa: E731
    assert phi_liminf(0, 0, q, phi) == 3
    assert phi_liminf(0, 5, q, phi) == 7
    q2 = StubQ(M=1, C=Fraction(2), theta=ModulusFn.affine(1, 1), varpi=IDENT)
    assert phi_liminf(1, 0, q2, phi) == 10


# --------------------------------------------------------------------------
# the metastability recursion
# --------------------------------------------------------------------------


def _stub_psi_inputs():
    q = StubQ()  # A=0, d=1, L=0 gives a single recursion stage
    phi = lambda k, n: n + k  # noqa: E731
    return q, phi


def test_psi_stub_value():
    q, phi = _stub_psi_inputs()
    assert int(psi(0, ModulusFn.affine(0, 0), q, phi)) == 15
    assert int(psi(0, ModulusFn.affine(0, 1), q, phi)) == 15


def test_psi_with_forced_empty_net():
    q, phi = _stub_psi_inputs()
    assert int(psi(0, ModulusFn.affine(0, 0), q, phi, p_override=0)) == 0


def test_psi_overflow_collapses():
    q, phi = _stub_psi_inputs()
    out = psi(0, ModulusFn.affine(0, 0), q, phi, cap=10)
    assert out.is_overflow
    assert out.to_json() == {"overflow": True}


def test_psi_asserts_monotonicity_of_the_recursion():
    # two recursion stages with a search bound that shrinks on the second
    q = StubQ(L=Fraction(1, 16))
    bad_phi = lambda k, n: 10 if k == 15 else 3  # noqa: E731
    with pytest.raises(InvariantViolation):
        psi(0, ModulusFn.affine(0, 0), q, bad_phi)


def test_psi_chi_floor_never_decreases_the_bound():
    q, phi = _stub_psi_inputs()
    g = ModulusFn.affine(0, 0)
    plain = int(psi(0, g, q, phi))
    floored = int(psi(0, g, q, phi, chi_floor=delta(0)))
    assert floored >= plain


def test_psi_prime_stub_value():
    q, phi = _stub_psi_inputs()
    g = ModulusFn.affine(0, 0)
    out = psi_prime(0, g, q, phi)
    assert int(out) == 31
    assert int(out) >= int(psi(0, g, q, phi))
    # for M=1, varpi=id the raised precision is k0 = 1 with stage floor 1
    assert int(out) == int(psi(1, g, q, phi, chi_floor=delta(0)))


# --------------------------------------------------------------------------
# membership levels
# --------------------------------------------------------------------------


def test_kappa_examples():
    assert kappa(0, 1, 1) == 71
    assert kappa(1, 1, 1) == 391
    assert kappa(0, 1, 2) == 391


def test_kappa_dominates_delta():
    for k in range(1001):
        assert kappa(k, 1, 1) >= 2 * k + 1


def test_kappa_hat_examples():
    assert kappa_hat(0, 1, 1, 0, IDENT) == 391
    assert kappa_hat(0, 1, 1, 2, IDENT) == 7687
    assert kappa_hat(1, 1, 1, 0, ModulusFn.affine(2, 0)) == kappa(6, 1, 1)


# --------------------------------------------------------------------------
# represented maps and symbolic bounds
# --------------------------------------------------------------------------


def test_modulus_kinds_evaluate():
    assert IDENT(7) == 7
    assert ModulusFn.affine(2, 3)(4) == 11
    assert ModulusFn.polynomial([1, 0, 2])(3) == 19
    assert ModulusFn.table([5, 6, 7])(2) == 7


def test_modulus_power_rates():
    theta = ModulusFn.power_rate(1, 2)  # rate of 1/(n+1)^2 -> 0
    assert theta(0) == 0
    assert theta(3) == 1
    assert theta(99) == 9
    xi = ModulusFn.power_sum_rate(1, 3)  # Cauchy rate for sum 1/(n+1)^3
    assert xi(7) == 2
    assert xi(0) == 1


def test_power_rate_is_a_correct_rate():
    theta = ModulusFn.power_rate(Fraction(1), 2)
    for j in range(50):
        n = theta(j)
        assert Fraction(1, (n + 1) ** 2) <= Fraction(1, j + 1)
        if n > 0:
            assert Fraction(1, n ** 2) > Fraction(1, j + 1)


def test_power_sum_rate_bounds_the_tail():
    xi = ModulusFn.power_sum_rate(Fraction(1), 3)
    for j in range(1, 40):
        n = xi(j)
        # integral tail bound: sum_{i >= n} 1/(i+1)^3 < n^-2 / 2
        assert Fraction(1, 2 * n * n) <= Fraction(1, j + 1)


def test_table_modulus_never_extrapolates():
    t = ModulusFn.table([1, 2, 3])
    with pytest.raises(TableRangeError):
        t(3)


def test_modulus_monotonicity_flag():
    assert IDENT.is_monotone
    assert ModulusFn.table([1, 1, 2]).is_monotone
    assert not ModulusFn.table([2, 1]).is_monotone


def test_modulus_rejects_bad_construction():
    with pytest.raises(ValueError):
        ModulusFn("affine", a=-1, b=0)
    with pytest.raises(ValueError):
        ModulusFn("no-such-kind")
    with pytest.raises(ValueError):
        ModulusFn.power_sum_rate(1, 1)
    with pytest.raises(ValueError):
        IDENT(-1)


def test_modulus_json_round_trip():
    mods = [
        IDENT,
        ModulusFn.affine(2, 1),
        ModulusFn.polynomial([1, 2]),
        ModulusFn.table([0, 4, 4]),
        ModulusFn.power_rate(Fraction(3, 2), 2),
        ModulusFn.power_sum_rate(1, 4),
    ]
    for m in mods:
        again = ModulusFn.from_json(m.to_json())
        for n in range(3):
            assert again(n) == m(n)


def test_modulus_json_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        ModulusFn.from_json({"kind": "identity", "extra": 1})
    with pytest.raises(ConfigError):
        ModulusFn.from_json({"kind": "mystery"})
    with pytest.raises(ConfigError):
        ModulusFn.from_json({"no_kind": True})


def test_natural_bound_json():
    nb = NaturalBound.of(42)
    assert nb.to_json() == "42"
    assert int(NaturalBound.from_json("42")) == 42
    ov = NaturalBound.overflow()
    assert ov.is_overflow
    assert ov.to_json() == {"overflow": True}
    assert NaturalBound.from_json({"overflow": True}).is_overflow
    with pytest.raises(ValueError):
        int(ov)
    with pytest.raises(ValueError):
        NaturalBound.from_json({"bogus": 1})
    with pytest.raises(ValueError):
        NaturalBound.of(-1)


def test_natural_bound_respects_cap():
    assert NaturalBound.of(11, cap=10).is_overflow
    assert not NaturalBound.of(10, cap=10).is_overflow
    assert DEFAULT_CAP == 10 ** 10000
