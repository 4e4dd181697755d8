"""Exact-arithmetic tests for the modulus combinators.

Golden values are frozen from independent hand evaluation of each closed
formula; the certified rational upper bounds (e^A, sqrt d) are checked
against mpmath at 50 digits. Everything here is integer/Fraction math, so
equality assertions are exact unless stated otherwise. The rate recursion
runs on integer pairs; its earlier Fraction form is kept below as the
reference it must equal.
"""

import hashlib
import math
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
from fejerquant import moduli
from fejerquant.iteration import QuantitativeData
from fejerquant.moduli import (
    DEFAULT_CAP,
    ModulusFn,
    NaturalBound,
    _ceil_root,
    _iroot,
    bounded_sub,
    ceil_div,
    ceil_fraction,
    chi,
    delta,
    exp_upper,
    float_upper,
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
from records import field_names, replace

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


def ceil_nth_root(q, p: int) -> int:
    """Smallest natural t with t**p >= q, by the kernel of the power rates."""
    q = Fraction(q)
    return _ceil_root(q.numerator, q.denominator, p)


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
    gap = mpmath.mpf(u.numerator) / u.denominator - true
    assert gap >= 0
    assert gap < 1e-6


def test_exp_upper_interval_examples():
    assert exp_upper(Fraction(0)) == 1
    u1 = exp_upper(Fraction(1))
    assert Fraction(2718281, 10 ** 6) <= u1 <= Fraction(2718283, 10 ** 6)
    u2 = exp_upper(Fraction(2))
    assert Fraction(7389056, 10 ** 6) <= u2 <= Fraction(7389058, 10 ** 6)


def test_exp_upper_sums_each_exponent_once():
    # the series grows with A, and a certify-metastability task asks for e^A
    # three times; each miss of the cache is one summation
    moduli._exp_upper.cache_clear()
    first = exp_upper(Fraction(300))
    assert exp_upper(300) is first and exp_upper(Fraction(600, 2)) is first
    info = moduli._exp_upper.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert exp_upper(Fraction(7, 4)) == moduli._exp_upper.__wrapped__(Fraction(7, 4))


def test_the_float_of_e_to_the_a_rounds_up():
    # float() rounds to nearest, which lands below the bound at A = 1; the
    # quasi-Fejer check reads e^A through float_upper
    u = exp_upper(Fraction(1))
    assert Fraction(float(u)) < u
    for a in (0, 1, 2, 3, 5, 10, Fraction(7, 4), 300):
        up = exp_upper(Fraction(a))
        f = float_upper(up)
        assert Fraction(f) >= up > Fraction(math.nextafter(f, -math.inf))
    assert float_upper(exp_upper(Fraction(2))) == float(exp_upper(Fraction(2)))


def test_exp_upper_rejects_negative():
    with pytest.raises(NegativeExponent):
        exp_upper(Fraction(-1))


@pytest.mark.parametrize("d", list(range(1, 21)))
def test_sqrt_upper_is_tight_upper_bound(d):
    import mpmath

    mpmath.mp.dps = 50
    u = sqrt_upper(d)
    gap = mpmath.mpf(u.numerator) / u.denominator - mpmath.sqrt(d)
    assert gap >= 0
    assert gap < 1e-6


def test_sqrt_upper_exact_on_squares():
    assert sqrt_upper(1) == 1
    assert sqrt_upper(4) == 2
    u2 = sqrt_upper(2)
    assert Fraction(1414213, 10 ** 6) <= u2 <= Fraction(1414215, 10 ** 6)


def test_results_monotone_in_the_upper_bound():
    # a looser upper bound on e^A can only push the moduli up, never down
    loose = exp_upper(Fraction(1))
    tight = loose - Fraction(1, 10 ** 9)
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


def test_psi_runs_every_stage_that_moves():
    # A = 0, C = 1, k = 0 and g = 0: chi is 7 (val + 1) and phi's level is
    # 14 val + 15, so this phi takes each value v to v + 1 below 5 and fixes 5
    q = StubQ(L=Fraction(5, 16))  # 6 stages
    phi = lambda k, n: min((k - 15) // 14 + 1, 5)  # noqa: E731
    assert int(psi(0, ModulusFn.affine(0, 0), q, phi)) == 5
    q.L = Fraction(3, 16)  # 4 stages stop short of the fixed point
    assert int(psi(0, ModulusFn.affine(0, 0), q, phi)) == 4


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
        ModulusFn.affine(a=-1, b=0)
    with pytest.raises(ValueError):
        ModulusFn.polynomial([1, -1])
    with pytest.raises(ValueError):
        ModulusFn.table([0, -1])
    with pytest.raises(ValueError):
        ModulusFn.power_rate(0, 1)
    # a kind is built by its own constructor, not by its name
    with pytest.raises(TypeError):
        ModulusFn("affine", 1)
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
    assert nb.to_json() == "42" and int(nb) == 42
    ov = NaturalBound.overflow()
    assert ov.is_overflow
    assert ov.to_json() == {"overflow": True}
    with pytest.raises(ValueError):
        int(ov)
    with pytest.raises(ValueError):
        NaturalBound.of(-1)


def test_natural_bound_respects_cap():
    assert NaturalBound.of(11, cap=10).is_overflow
    assert not NaturalBound.of(10, cap=10).is_overflow
    assert DEFAULT_CAP == 10 ** 10000


# --------------------------------------------------------------------------
# the Fraction reference of the rate kernel
# --------------------------------------------------------------------------
#
# The rate recursion as it was written on Fraction, kept verbatim: only the
# names carry a ref_ prefix, and ModulusFn's evaluation and monotonicity flag
# read the modulus through RefModulus.f. It runs every stage: it has neither
# the fixed-point exit nor the growth exit of psi.

_CLOSED_FORM_KINDS = ("identity", "affine", "polynomial", "power_rate", "power_sum_rate")


def ref_ceil_nth_root(q: Fraction, p: int) -> int:
    """Smallest natural t with t**p >= q (exact)."""
    if p < 1:
        raise ValueError("root order must be >= 1")
    if q <= 0:
        return 0
    t = _iroot(ceil_fraction(q), p)
    num, den = q.numerator, q.denominator
    while t ** p * den < num:
        t += 1
    while t >= 1 and (t - 1) ** p * den >= num:
        t -= 1
    return t


class RefModulus:
    """A ModulusFn evaluated by the Fraction reference."""

    def __init__(self, f: ModulusFn):
        self.f = f

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError("modulus arguments are naturals")
        if self.f.kind == "identity":
            return n
        if self.f.kind == "affine":
            return self.f.a * n + self.f.b
        if self.f.kind == "polynomial":
            return sum(co * n ** i for i, co in enumerate(self.f.coeffs))
        if self.f.kind == "power_rate":
            return max(ref_ceil_nth_root(self.f.c * (n + 1), self.f.p) - 1, 0)
        if self.f.kind == "power_sum_rate":
            return ref_ceil_nth_root(self.f.c * (n + 1) / (self.f.p - 1), self.f.p - 1)
        if n >= len(self.f.values):
            raise TableRangeError(
                f"table modulus evaluated at {n}, valid range is 0..{len(self.f.values) - 1}"
            )
        return self.f.values[n]

    @property
    def is_closed_form(self) -> bool:
        return self.f.kind in _CLOSED_FORM_KINDS

    @property
    def is_monotone(self) -> bool:
        """Closed forms are monotone by construction; tables are inspected."""
        if self.is_closed_form:
            return True
        return all(x <= y for x, y in zip(self.f.values, self.f.values[1:]))


def ref_chi_int(r, n, m, e_a):
    if r < 0 or n < 0 or m < 0:
        raise ValueError("chi arguments are naturals")
    return max(bounded_sub(n + m, 1), ceil_fraction(Fraction(r + 1) * m * e_a))


def ref_xi_tilde(n, m_bound, e_a, xi):
    return xi(ceil_fraction(Fraction(2 * m_bound + 1) * e_a * (n + 1)) - 1)


def ref_total_boundedness_P(k, e_a, sqrt_d, l_bound, d, cap=DEFAULT_CAP):
    if d < 1:
        raise ValueError("dimension must be >= 1")
    inner = ceil_fraction(8 * e_a * (k + 1))
    base = ceil_fraction(2 * inner * sqrt_d * Fraction(l_bound))
    if base < 0:
        base = 0
    if base >= 2 and (base.bit_length() - 1) * d > cap.bit_length():
        return NaturalBound.overflow()
    return NaturalBound.of(base ** d + 1, cap)


def ref_phi_liminf(k, n, q, phi_search):
    first = ceil_fraction(2 * Fraction(q.C) * (k + 1)) - 1
    inner = q.theta(q.M * q.varpi(k) + q.M - 1)
    return phi_search(first, max(inner, n))


def ref_chi_g_max(n, g, m, e_a):
    if n == 0 or g.is_monotone:
        return ref_chi_int(n, g(n), m, e_a)
    return max(ref_chi_int(i, g(i), m, e_a) for i in range(n + 1))


def ref_psi(k, g, q, phi_search, *, cap=DEFAULT_CAP, chi_floor=None):
    e_a = exp_upper(q.A)
    sq = sqrt_upper(q.d)
    p_nb = ref_total_boundedness_P(k, e_a, sq, q.L, q.d, cap)
    if p_nb.is_overflow:
        return NaturalBound.overflow()
    m = 8 * k + 7
    xt = ref_xi_tilde(m, q.M, e_a, q.xi)
    val = 0
    for _ in range(int(p_nb)):
        ci = ref_chi_g_max(val, g, m, e_a)
        if chi_floor is not None and ci < chi_floor:
            ci = chi_floor
        nxt = ref_phi_liminf(ci, xt, q, phi_search)
        if nxt < val:
            raise InvariantViolation(
                f"metastability recursion decreased: {val} -> {nxt}"
            )
        val = nxt
        if val > cap:
            return NaturalBound.overflow()
    return NaturalBound.of(val, cap)


def ref_psi_prime(k, g, q, phi_search, *, cap=DEFAULT_CAP):
    om = max(
        q.varpi(2 * k + 1),
        4 * k + 3,
        q.varpi(4 * q.M * (k + 1) ** 2 - 1),
    )
    k0 = max(k, ceil_div(om - 1, 2))
    return ref_psi(k0, g, q, phi_search, cap=cap, chi_floor=delta(k))


# --------------------------------------------------------------------------
# the integer kernel against the reference
# --------------------------------------------------------------------------

class Answering:
    """A phi_search that answers every query with a value at least n, and
    says so: psi may then take its growth exit."""

    answers_every_query = True

    def __init__(self, phi):
        self.phi = phi

    def __call__(self, k: int, n: int) -> int:
        return self.phi(k, n)


PHI_SEARCHES = {
    "stationary": lambda k, n: max(n, 1),
    "sum": lambda k, n: n + k,
    # not monotone: once the values pass 10007 the recursion decreases and raises
    "wrapping": lambda k, n: (n + k) % 10007,
}
PHI_SEARCHES.update(
    {f"{name}, answering": Answering(PHI_SEARCHES[name]) for name in ("stationary", "sum")}
)

fractions = st.builds(Fraction, st.integers(1, 60), st.integers(1, 7))
# a rate whose c is not an integer
rates = st.builds(
    lambda num, den, p: ModulusFn.power_rate(Fraction(num * den + 1, den), p),
    st.integers(0, 20), st.integers(2, 7), st.integers(1, 4),
)
sum_rates = st.builds(ModulusFn.power_sum_rate, fractions, st.integers(2, 4))
# theta as the kernel's special cases take it: power_rate(1, 1) is the
# identity, an integer c needs no division, and any other c does
thetas = st.one_of(
    st.just(ModulusFn.power_rate(1, 1)),
    st.builds(ModulusFn.power_rate, st.integers(1, 4), st.integers(1, 4)),
    rates,
)
# every closed form, with power rates of c < 1 and of p >= 2 among them
closed_forms = st.one_of(
    st.just(IDENT),
    st.builds(ModulusFn.affine, st.integers(0, 3), st.integers(0, 3)),
    st.builds(ModulusFn.polynomial, st.lists(st.integers(0, 2), max_size=3)),
    thetas,
    st.builds(ModulusFn.power_rate, st.builds(Fraction, st.integers(1, 6), st.just(7)),
              st.integers(1, 3)),
    sum_rates,
)
# every kind of modulus, a table in range and past its end
moduli_of_every_kind = st.one_of(
    st.just(IDENT),
    st.builds(ModulusFn.affine, st.integers(0, 3), st.integers(0, 3)),
    st.builds(ModulusFn.polynomial, st.lists(st.integers(0, 5), max_size=4)),
    st.builds(ModulusFn.table, st.lists(st.integers(0, 10**6), min_size=1, max_size=30)),
    thetas,
    sum_rates,
    st.builds(ModulusFn.power_rate, fractions, st.integers(1, 6)),
)


def _raised_k(k: int, q) -> int:
    """The precision k0 at which psi_prime runs psi."""
    om = max(q.varpi(2 * k + 1), 4 * k + 3, q.varpi(4 * q.M * (k + 1) ** 2 - 1))
    return max(k, ceil_div(om - 1, 2))


ANSWERING = sorted(name for name, phi in PHI_SEARCHES.items() if isinstance(phi, Answering))


@st.composite
def rate_inputs(draw, prime=False, phis=sorted(PHI_SEARCHES)):
    """Inputs of psi (of psi_prime when ``prime``) whose net has at most 301
    points: L is (b + f) / (2 * inner * sqrt(d)) for a drawn net base b and a
    fraction f of 0, 1/2 or 10^-30, so P's ceiling lands on b or just above
    it, where a slightly wrong denominator would move it."""
    g = draw(st.one_of(
        # a = 1 is the metastability workload's g(n) = n + 1
        st.builds(ModulusFn.affine, st.integers(0, 3), st.integers(0, 3)),
        st.builds(ModulusFn.polynomial, st.lists(st.integers(0, 2), min_size=1, max_size=3)),
        # tables, monotone or not; the recursion may run past their end
        st.builds(ModulusFn.table, st.lists(st.integers(0, 80), min_size=1, max_size=150)),
    ))
    k = draw(st.integers(0, 3))
    q = StubQ(
        # 0 (e^A is 1/1), integers and non-dyadic fractions
        A=draw(st.one_of(
            st.just(Fraction(0)),
            st.integers(1, 2).map(Fraction),
            st.builds(Fraction, st.integers(1, 20), st.sampled_from([3, 5, 7, 10])),
        )),
        d=draw(st.integers(1, 4)),
        M=draw(st.integers(1, 3)),
        # integers, and fractions that may reduce to one
        C=draw(st.one_of(
            st.integers(1, 4).map(Fraction),
            st.builds(lambda den, extra: Fraction(den + extra, den),
                      st.integers(1, 9), st.integers(0, 30)),
        )),
        theta=draw(closed_forms),
        xi=draw(st.one_of(rates, sum_rates)),
        varpi=draw(closed_forms),
    )
    inner = ceil_fraction(8 * exp_upper(q.A) * ((_raised_k(k, q) if prime else k) + 1))
    base = draw(st.integers(0, (299, 16, 5, 3)[q.d - 1]))
    base += draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 10 ** 30)]))
    q.L = base / (2 * inner) / sqrt_upper(q.d)
    return {
        "k": k,
        "g": g,
        "q": q,
        "phi": draw(st.sampled_from(phis)),
        # small enough to overflow at varied stages
        "cap": 10 ** draw(st.integers(1, 300)),
        "chi_floor": draw(st.one_of(st.none(), st.integers(0, 200))),
    }


def _ref_q(q: StubQ) -> StubQ:
    return StubQ(A=q.A, d=q.d, L=q.L, M=q.M, C=q.C, theta=RefModulus(q.theta),
                 xi=RefModulus(q.xi), varpi=RefModulus(q.varpi))


def _outcome(call):
    """The value of call(), or the type and message of the error it raised."""
    try:
        return call()
    except (ValueError, InvariantViolation, TableRangeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(rate_inputs())
def test_psi_matches_the_fraction_reference(x):
    k, g, q, cap, floor = x["k"], x["g"], x["q"], x["cap"], x["chi_floor"]
    phi = PHI_SEARCHES[x["phi"]]
    got = _outcome(lambda: psi(k, g, q, phi, cap=cap, chi_floor=floor))
    want = _outcome(lambda: ref_psi(k, RefModulus(g), _ref_q(q), phi, cap=cap, chi_floor=floor))
    assert got == want


@settings(max_examples=60, deadline=None)
@given(rate_inputs(prime=True))
def test_psi_prime_matches_the_fraction_reference(x):
    k, g, q, cap = x["k"], x["g"], x["q"], x["cap"]
    phi = PHI_SEARCHES[x["phi"]]
    got = _outcome(lambda: psi_prime(k, g, q, phi, cap=cap))
    want = _outcome(lambda: ref_psi_prime(k, RefModulus(g), _ref_q(q), phi, cap=cap))
    assert got == want


# phis that answer every query, where psi's growth exit may fire; the
# reference runs their unmarked functions through every stage
@settings(max_examples=100, deadline=None)
@given(rate_inputs(phis=ANSWERING))
def test_psi_exits_match_the_fraction_reference(x):
    k, g, q, cap, floor = x["k"], x["g"], x["q"], x["cap"], x["chi_floor"]
    phi = PHI_SEARCHES[x["phi"]]
    got = _outcome(lambda: psi(k, g, q, phi, cap=cap, chi_floor=floor))
    want = _outcome(lambda: ref_psi(k, RefModulus(g), _ref_q(q), phi.phi, cap=cap, chi_floor=floor))
    assert got == want


@settings(max_examples=60, deadline=None)
@given(rate_inputs(prime=True, phis=ANSWERING))
def test_psi_prime_exits_match_the_fraction_reference(x):
    k, g, q, cap = x["k"], x["g"], x["q"], x["cap"]
    phi = PHI_SEARCHES[x["phi"]]
    got = _outcome(lambda: psi_prime(k, g, q, phi, cap=cap))
    want = _outcome(lambda: ref_psi_prime(k, RefModulus(g), _ref_q(q), phi.phi, cap=cap))
    assert got == want


@given(
    moduli_of_every_kind,
    st.one_of(st.integers(0, 40), st.integers(0, 1000), st.integers(0, 10 ** 40)),
)
def test_modulus_call_matches_the_fraction_reference(f, n):
    # values, or the type and message of a table's range error
    assert _outcome(lambda: f(n)) == _outcome(lambda: RefModulus(f)(n))


@given(
    moduli_of_every_kind,
    st.one_of(st.just(0), st.just(1), st.integers(0, 1000), st.integers(0, 10 ** 40)),
)
def test_a_modulus_grows_at_least_at_its_slope(f, n):
    s = f.slope
    assert s >= 0 and (s == 0 or f.kind != "table")
    if f.kind != "table":
        assert f(n) >= s * n


def test_the_slope_of_each_kind():
    assert IDENT.slope == 1
    assert ModulusFn.affine(3, 2).slope == 3 and ModulusFn.affine(0, 9).slope == 0
    assert ModulusFn.polynomial([5, 2, 0, 1]).slope == 3
    assert ModulusFn.polynomial([5]).slope == ModulusFn.polynomial([]).slope == 0
    assert ModulusFn.table([0, 10, 20]).slope == 0
    for c in (Fraction(1, 3), Fraction(1, 2), Fraction(6, 7), 1, Fraction(3, 2), 2, Fraction(7, 3)):
        for p in (1, 2, 3):
            f = ModulusFn.power_rate(c, p)
            assert f.slope == (c if p == 1 and c >= 1 else 0)
            for n in (0, 1, 2, 3, 10, 10 ** 40):
                assert f(n) >= f.slope * n
            if p >= 2:
                assert ModulusFn.power_sum_rate(c, p).slope == 0
    # c < 1: power_rate(1/2, 1) is 0 at n = 1
    assert ModulusFn.power_rate(Fraction(1, 2), 1)(1) == 0


def test_a_modulus_keeps_its_value_form():
    # the evaluator chosen at construction is no field: equality, hashing,
    # repr and the JSON form see the fields alone
    for make in (
        lambda: ModulusFn.power_rate(1, 1),
        lambda: ModulusFn.affine(1, 0),
        lambda: ModulusFn.table([3, 1]),
    ):
        f, h = make(), make()
        assert f == h and hash(f) == hash(h) and repr(f) == repr(h)
        assert ModulusFn.from_json(f.to_json()) == f
    # each kind has the fields of its JSON form, and no others
    assert {kind: field_names(getattr(ModulusFn, kind)) for kind in moduli._KINDS} == {
        "identity": [], "affine": ["a", "b"], "polynomial": ["coeffs"], "table": ["values"],
        "power_rate": ["c", "p"], "power_sum_rate": ["c", "p"],
    }
    assert ModulusFn.power_rate(1, 1) != IDENT
    assert ModulusFn.power_rate(1, 1)(10**40) == 10**40
    assert replace(ModulusFn.affine(1, 1), a=3)(5) == 16


@given(
    st.one_of(st.integers(0, 50), st.integers(0, 10 ** 40)),
    st.one_of(st.integers(0, 50), st.integers(0, 10 ** 40)),
    st.integers(0, 40),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(7, 10), Fraction(5, 3)]),
)
def test_chi_matches_the_fraction_reference(r, n, m, a):
    # m = 0 takes the truncated subtraction, m >= 1 the shifted sum
    e_a = exp_upper(a)
    assert chi(r, n, m, e_a) == NaturalBound.of(ref_chi_int(r, n, m, e_a))


@given(
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 40), st.integers(1, 10 ** 12)),
    # orders past the bit length of q (up to 133 bits) have the root 2 or less;
    # a power rate's order is at least 1 by construction
    st.one_of(st.integers(1, 7), st.integers(100, 160)),
)
def test_ceil_nth_root_matches_the_fraction_reference(q, p):
    assert _outcome(lambda: ceil_nth_root(q, p)) == _outcome(lambda: ref_ceil_nth_root(q, p))


def test_roots_of_a_huge_order_build_no_power():
    # 2**(10**400) stalled: a theta or xi with p = 10**400 hung the config check
    p = 10**400
    assert [ceil_nth_root(Fraction(q), p) for q in (0, Fraction(1, 2), 1, 2, 10**40)] == [0, 1, 1, 2, 2]
    assert [ModulusFn.power_rate(3, p)(n) for n in (0, 5, 10**9)] == [1, 1, 1]
    assert [ModulusFn.power_rate(Fraction(1, 10), p)(n) for n in (0, 5, 9, 10)] == [0, 0, 0, 1]
    assert ModulusFn.power_sum_rate(3, p)(10**9) == 1
    # either side of the shortcut: orders at and around the bit length of q
    for p in range(2, 70):
        for q in (2**p - 1, 2**p, 2**p + 1, 2 ** (p + 1) - 1, 2 ** (p + 1), Fraction(2**p + 1, 3)):
            assert ceil_nth_root(Fraction(q), p) == ref_ceil_nth_root(Fraction(q), p)


def test_rate_helpers_match_the_fraction_reference():
    for a in (Fraction(0), Fraction(2), Fraction(7, 10), Fraction(5, 3)):
        e_a = exp_upper(a)
        for r, n, m in ((0, 0, 0), (3, 2, 5), (10 ** 30, 7, 23)):
            assert chi(r, n, m, e_a, cap=10 ** 20) == NaturalBound.of(
                ref_chi_int(r, n, m, e_a), 10 ** 20
            )
        for xi in (IDENT, ModulusFn.power_sum_rate(Fraction(3, 2), 3)):
            assert xi_tilde(9, 2, e_a, xi) == ref_xi_tilde(9, 2, e_a, RefModulus(xi))
        for d, l_bound in ((1, Fraction(4)), (3, Fraction(5, 7)), (2, Fraction(0))):
            assert total_boundedness_P(2, e_a, sqrt_upper(d), l_bound, d) == (
                ref_total_boundedness_P(2, e_a, sqrt_upper(d), l_bound, d)
            )
    q = StubQ(M=2, C=Fraction(7, 3), theta=ModulusFn.power_rate(Fraction(5, 2), 2), varpi=IDENT)
    phi = PHI_SEARCHES["sum"]
    for k, n in ((0, 0), (5, 3), (10 ** 25, 10 ** 20)):
        assert phi_liminf(k, n, q, phi) == ref_phi_liminf(k, n, _ref_q(q), phi)


# the metastability workload's rate inputs: the dc-abs-1d constants with g(n) =
# n + 1 at k = 2; every query of that workload falls outside the empirical
# table, whose stationary completion is max(n, 1) and answers every query
def _dc_abs_1d_rate_inputs(phi="stationary, answering"):
    quant = QuantitativeData(
        A=Fraction(2), B=1, Bprime=0, C=Fraction(1), M=2, L=Fraction(4), d=1,
        theta=ModulusFn.power_rate(1, 1), xi=ModulusFn.power_sum_rate(1, 3),
        varpi=IDENT, varpi_hat=IDENT,
    )
    return ModulusFn.affine(1, 1), quant, PHI_SEARCHES[phi]


def test_psi_golden_value_of_the_metastability_workload():
    g, quant, phi = _dc_abs_1d_rate_inputs()
    text = str(int(psi(2, g, quant, phi)))
    assert len(text) == 3608
    assert text[:20] == "14855100150117528544" and text[-20:] == "39803699585538406167"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0de8a916380936172dd9217afda09c12dd56c9c2379e392287ca55e58bffeb7c"
    )
    assert psi_prime(2, g, quant, phi).is_overflow


def test_the_workload_rates_at_every_small_k():
    # digits and a sha256 prefix of psi and psi_prime at k = 0..3; psi_prime
    # at k = 0 runs psi at the raised precision 3. A phi that answers every
    # query lets the growth exit call the overflows, which changes no result.
    for name in ("stationary", "stationary, answering"):
        g, quant, phi = _dc_abs_1d_rate_inputs(name)
        got = []
        for k in range(4):
            for rate in (psi, psi_prime):
                text = rate(k, g, quant, phi).to_json()
                if isinstance(text, dict):
                    got.append("overflow")
                else:
                    got.append((len(text), hashlib.sha256(text.encode()).hexdigest()[:16]))
        assert got == [
            (970, "c23534248ded4d9a"), (5048, "a962c6593843330d"),
            (2236, "802aa05a2bc1288b"), "overflow",
            (3608, "0de8a91638093617"), "overflow",
            (5048, "a962c6593843330d"), "overflow",
        ], name


def test_the_growth_exit_keeps_a_cap_at_the_rate():
    # each stage multiplies the value by at least 2^6 (2^8 at k = 2), so the
    # exit may count every stage left but not one more: with the cap at psi
    # the last stage must still be built
    g, quant, phi = _dc_abs_1d_rate_inputs()
    for k in range(3):
        want = int(psi(k, g, quant, PHI_SEARCHES["stationary"]))
        assert psi(k, g, quant, phi, cap=want) == NaturalBound(want)
        assert psi(k, g, quant, phi, cap=want - 1).is_overflow


def test_the_growth_exit_fires_at_varied_stages():
    # A = 0, k = 0, M = 1 and theta = varpi = id: a stage takes v to
    # 7 (v + 1) through 200 stages, and the exit counts a factor 2^2 for each.
    # phi's calls count the stages each run builds.
    q = StubQ(L=Fraction(199, 16), theta=IDENT)
    g = ModulusFn.affine(1, 1)
    calls = []

    def counted(k, n):
        calls.append(k)
        return max(n, 1)

    built = set()
    for j in range(1, 301, 7):
        runs = []
        for phi in (counted, Answering(counted)):
            calls.clear()
            runs.append((psi(0, g, q, phi, cap=10**j), len(calls)))
        (plain, ran), (early, stages) = runs
        # the exit only ever calls an overflow, and never builds more
        assert plain == early and (stages == ran or early.is_overflow and stages < ran)
        built.add(stages)
    # caps below 10^120 exit at stage 1, caps from 10^127 to 10^162 at stages
    # 27 to 172, and caps above the rate let all 200 stages run
    assert len(built) >= 8
