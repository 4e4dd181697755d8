"""Exact arithmetic for quantitative moduli.

Everything in this module is exact integer arithmetic. Rationals (the
certified upper bounds e^A and sqrt(d), and C, L and the c of a power rate)
are read as (numerator, denominator) pairs once per call, so every ceiling is
a floor division of ``int``s. No floats: every bound is reproducible and
sound by construction.

The combinators at the bottom (``chi`` through ``psi_prime``, ``kappa``,
``kappa_hat``) assemble the uniform quantitative data of the resolvent
iteration: residual-search moduli, metastability rates and the index bounds
they are built from. They treat their modulus arguments as black boxes
``N -> N`` (or ``N x N -> N`` for the residual-search modulus ``phi``).
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Callable, Optional

from .errors import (
    ConfigError,
    InvariantViolation,
    NegativeExponent,
    TableRangeError,
)
from .fields import INTEGER, RATIONAL, Field, Record, integer, list_of, read_kind

#: Default cap for symbolic bounds: values above this become Overflow markers.
DEFAULT_CAP = 10 ** 10000

# Bounds just below the cap have ~10000 digits; make sure they can be
# serialized (CPython limits int -> str conversion to 4300 digits by default).
if sys.get_int_max_str_digits() < 20_000:
    sys.set_int_max_str_digits(20_000)

# The largest value of each quantitative constant. A magnitude (B, C, L, M and
# the ball bound b) is compared with float64 trace data, so it must stay a
# finite float64, 2M + 1 included. A enters as e^A, which the quasi-Fejer check
# takes as a float64 (e^709 < 2^1024 < e^710). Every positive float64 mu_0 is
# at least 2^-1074, so a larger Bprime would only weaken kappa_hat.
CONSTANT_BOUNDS = {"A": 709, "Bprime": 1074, **dict.fromkeys("BCLMb", 10**300)}


def constant(name: str, value):
    """``value``, refused with a ConfigError naming ``name`` beyond its bound."""
    top = CONSTANT_BOUNDS.get(name)
    if top is not None and value > top:
        raise ConfigError(f"{name}: must be at most {top:.4g}")
    return value


#: Granularity used when rounding certified rational upper bounds.
_EXP_GRAIN = 10 ** 9
_SQRT_GRAIN = 10 ** 7


def bounded_sub(n: int, m: int) -> int:
    """Truncated subtraction on naturals: max(n - m, 0)."""
    if n < 0 or m < 0:
        raise ValueError("bounded_sub is defined on naturals")
    return n - m if n > m else 0


def ceil_fraction(q: Fraction) -> int:
    """Exact ceiling of a rational."""
    return -((-q.numerator) // q.denominator)


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of a / b for b >= 1; no division of a big a by 1."""
    return a if b == 1 else -((-a) // b)


def _iroot(x: int, p: int) -> int:
    """Exact floor(x ** (1/p)) for naturals, Newton iteration on integers."""
    if x < 0 or p < 1:
        raise ValueError("_iroot needs x >= 0, p >= 1")
    if p == 1 or x in (0, 1):
        return x
    r = 1 << ceil_div(x.bit_length(), p)
    while True:
        nr = ((p - 1) * r + x // r ** (p - 1)) // p
        if nr >= r:
            break
        r = nr
    while r ** p > x:
        r -= 1
    while (r + 1) ** p <= x:
        r += 1
    return r


def _ceil_root(num: int, den: int, p: int) -> int:
    """Smallest natural t with t**p * den >= num, for den >= 1 and p >= 1."""
    if num <= 0:
        return 0
    t = ceil_div(num, den)
    if p == 1 or t == 1:
        return t
    if p >= t.bit_length():  # 2**p > t, so the root is 2 (and 2**p is never built)
        return 2
    t = _iroot(t, p)
    while t ** p * den < num:
        t += 1
    while t >= 1 and (t - 1) ** p * den >= num:
        t -= 1
    return t


# --------------------------------------------------------------------------
# certified rational upper bounds
# --------------------------------------------------------------------------


def float_upper(q: Fraction) -> float:
    """The least float at or above q: float() rounds to nearest, which may
    land below it."""
    f = float(q)
    return math.nextafter(f, math.inf) if Fraction(f) < q else f


def exp_upper(a: Fraction) -> Fraction:
    """Rational u with e^a <= u < e^a + 1e-6, by Taylor series with an
    explicit geometric remainder bound, rounded up to denominator 1e9.

    The series grows with a, and a task asks for the same bound more than
    once, so each value of a is summed once per process."""
    a = Fraction(a)
    if a < 0:
        raise NegativeExponent(f"exp_upper needs a >= 0, got {a}")
    return _exp_upper(a)


@functools.lru_cache(maxsize=64)
def _exp_upper(a: Fraction) -> Fraction:
    if a == 0:
        return Fraction(1)
    term = total = Fraction(1)
    i = 0
    while True:
        i += 1
        term *= a / i
        total += term
        # remainder sum_{j>i} a^j/j! <= term * q/(1-q) with q = a/(i+1) < 1
        if a < i + 1:
            qr = a / (i + 1)
            tail = term * qr / (1 - qr)
            if tail < Fraction(1, 10 ** 7):
                break
    return Fraction(ceil_fraction((total + tail) * _EXP_GRAIN), _EXP_GRAIN)


def sqrt_upper(d: int) -> Fraction:
    """Rational u with sqrt(d) <= u < sqrt(d) + 1e-6; exact on perfect squares."""
    if d < 0:
        raise ValueError("sqrt_upper needs d >= 0")
    s = math.isqrt(d)
    if s * s == d:
        return Fraction(s)
    scaled = d * _SQRT_GRAIN ** 2
    m = math.isqrt(scaled)
    if m * m < scaled:
        m += 1
    return Fraction(m, _SQRT_GRAIN)


# --------------------------------------------------------------------------
# symbolic natural bounds
# --------------------------------------------------------------------------


class NaturalBound(Record, eq=True):
    """An exact natural number, or a symbolic overflow marker.

    Overflow is a value, not an error: certificates must be able to report
    "bound exceeds the configured cap" honestly and keep going.
    """

    value: Optional[int]

    @classmethod
    def of(cls, v: int, cap: int = DEFAULT_CAP) -> "NaturalBound":
        if v < 0:
            raise ValueError("natural bounds cannot be negative")
        return cls(None) if v > cap else cls(v)

    @classmethod
    def overflow(cls) -> "NaturalBound":
        return cls(None)

    @property
    def is_overflow(self) -> bool:
        return self.value is None

    def __int__(self) -> int:
        if self.value is None:
            raise ValueError("overflow marker has no integer value")
        return self.value

    def to_json(self):
        if self.value is None:
            return {"overflow": True}
        return str(self.value)


# --------------------------------------------------------------------------
# modulus functions
# --------------------------------------------------------------------------


def _identity(n: int) -> int:
    return n


def _linear(a: int, b: int) -> Callable[[int], int]:
    """n -> a n + b, without a factor of 1 or a term of 0."""
    if a == 1:
        return _identity if b == 0 else lambda n: n + b
    return (lambda n: a * n) if b == 0 else lambda n: a * n + b


class ModulusFn(Record, eq=True):
    """A represented map N -> N. Each kind is a subclass with the fields of
    its JSON form, bound as its constructor: ``ModulusFn.affine(2, 1)``.
    Closed forms (identity, affine, polynomial with natural coefficients,
    power_rate, power_sum_rate) are total, monotone nondecreasing and exact at
    any argument; a ``table`` raises outside its declared range (a modulus is
    a certificate, so a table never extrapolates). A kind checks its fields
    and decides once its evaluator ``_at``, its constants read and a factor
    or a divisor of 1 left out, and its ``slope``: a rational s with
    f(n) >= s n at every natural n.
    """

    tag = "kind"
    closed_form = True
    is_monotone = True
    slope = Fraction(0)

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError("modulus arguments are naturals")
        return self._at(n)

    @classmethod
    def from_json(cls, obj: dict) -> "ModulusFn":
        try:  # the kinds check ranges: naturals, c > 0, p >= 1 (2 for sums)
            return read_kind(obj, _KINDS, "modulus")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


class _Identity(ModulusFn):
    kind = "identity"
    slope = Fraction(1)
    _at = staticmethod(_identity)


class _Affine(ModulusFn):
    kind = "affine"
    json_fields = {"a": INTEGER, "b": INTEGER}

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("affine modulus needs natural coefficients")
        vars(self).update(_at=_linear(self.a, self.b), slope=Fraction(self.a))


_NATURALS = Field(list_of(integer), list)


class _Polynomial(ModulusFn):
    kind = "polynomial"
    json_fields = {"coeffs": _NATURALS}

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        if any(c < 0 for c in coeffs):
            raise ValueError("polynomial modulus needs natural coefficients")
        at = lambda n: sum(co * n ** i for i, co in enumerate(coeffs))  # noqa: E731
        vars(self).update(coeffs=coeffs, _at=at, slope=Fraction(sum(coeffs[1:])))  # n^i >= n


class _Table(ModulusFn):
    kind = "table"
    json_fields = {"values": _NATURALS}
    closed_form = False

    values: tuple

    def __post_init__(self):
        values = tuple(int(v) for v in self.values)
        if any(v < 0 for v in values):
            raise ValueError("table values must be naturals")

        def lookup(n: int) -> int:
            if n >= len(values):
                raise TableRangeError(
                    f"table modulus evaluated at {n}, valid range is 0..{len(values) - 1}"
                )
            return values[n]

        monotone = all(x <= y for x, y in zip(values, values[1:]))
        vars(self).update(values=values, _at=lookup, is_monotone=monotone)


class _PowerRate(ModulusFn):
    """The convergence rate of c/(n+1)^p -> 0: the value at j is the first
    index n with c/(n+1)^p <= 1/(j+1). Its floor at 0 is left out: the root
    of c (n + 1) > 0 is at least 1, so power_rate(1, 1) is n itself."""

    kind = "power_rate"
    json_fields = {"c": RATIONAL, "p": INTEGER}

    c: Fraction
    p: int

    def __post_init__(self):
        c, p = Fraction(self.c), int(self.p)
        if c <= 0 or p < 1:
            raise ValueError("power rate needs c > 0, p >= 1")
        vars(self).update(c=c, p=p, _at=self._evaluator(c.numerator, c.denominator))
        if p == 1 and c >= 1:  # ceil(c (n + 1)) - 1 >= c n + (c - 1)
            vars(self)["slope"] = c

    def _evaluator(self, num: int, den: int) -> Callable[[int], int]:
        if self.p == 1:  # ceil(num (n + 1) / den) - 1 = (num (n + 1) - 1) // den
            step = _linear(num, num - 1)
            return step if den == 1 else lambda n: step(n) // den
        p, scaled = self.p, _linear(num, num)
        return lambda n: _ceil_root(scaled(n), den, p) - 1


class _PowerSumRate(_PowerRate):
    """A Cauchy rate for the series of c/(n+1)^p, p >= 2, from the integral
    tail bound sum_{i>=N} c/(i+1)^p < c * N^(1-p) / (p-1)."""

    kind = "power_sum_rate"

    def __post_init__(self):
        super().__post_init__()
        if self.p < 2:
            raise ValueError("a summable power rule needs exponent >= 2")

    def _evaluator(self, num: int, den: int) -> Callable[[int], int]:
        p, den, scaled = self.p - 1, den * (self.p - 1), _linear(num, num)
        return lambda n: _ceil_root(scaled(n), den, p)


_KINDS = {cls.kind: cls for cls in (_Identity, _Affine, _Polynomial, _Table, _PowerRate,
                                     _PowerSumRate)}
# bound as constructors and named as classes nested in ModulusFn, so that a
# repr reads as the call that builds it: ModulusFn.affine(a=2, b=1)
for _kind, _cls in _KINDS.items():
    setattr(ModulusFn, _kind, _cls)
    _cls.__name__, _cls.__qualname__ = _kind, f"ModulusFn.{_kind}"


#: A counterfunction is just a represented map N -> N used as the window
#: width g in metastability statements.
Counterfunction = ModulusFn

#: Two-argument residual-search modulus: phi(k, n) bounds the search for an
#: index N >= n whose step residual drops below 1/(k+1), so phi(k, n) >= n.
#: One whose ``answers_every_query`` attribute is true answers every (k, n)
#: and raises at none; ``psi`` may then call an overflow before it is built.
PhiSearch = Callable[[int, int], int]


# --------------------------------------------------------------------------
# modulus combinators
# --------------------------------------------------------------------------


def delta(k: int) -> int:
    """Stage threshold past which the step residual controls membership
    witnesses at precision k."""
    return 2 * k + 1


def omega(k: int, m_bound: int, varpi: ModulusFn) -> int:
    """Closeness level that transports approximate solution sets along the
    difference operator (two-term form)."""
    return max(4 * k + 3, varpi(4 * m_bound * (k + 1) ** 2 - 1))


def varpi_prime(k: int, b_bound: int, varpi: ModulusFn) -> int:
    """Continuity modulus for the Yosida approximate, derived from the
    modulus of the underlying operator."""
    return varpi(b_bound * k ** 2 + 2 * b_bound * k + b_bound - 1)


def chi(r: int, n: int, m: int, e_a: Fraction, cap: int = DEFAULT_CAP) -> NaturalBound:
    """Index bound for locating a quasi-stationary window: the larger of the
    shifted window end and the growth-compensated search start."""
    return NaturalBound.of(_chi(r, n, m, *e_a.as_integer_ratio()), cap)


def _chi(r: int, n: int, m: int, e_num: int, e_den: int) -> int:
    """chi with the e^A upper bound given as the pair e_num / e_den."""
    if r < 0 or n < 0 or m < 0:
        raise ValueError("chi arguments are naturals")
    # the constants combine before they meet r and n: (n + m) - 1 is
    # n + (m - 1) for m >= 1, and ceil((r + 1) me / e_den) is one floor
    # division of r me + (me + e_den - 1), where me = m e_num
    me = m * e_num
    end = n + (m - 1) if m else bounded_sub(n, 1)
    return max(end, (r * me + (me + e_den - 1)) // e_den)


def xi_tilde(n: int, m_bound: int, e_a: Fraction, xi: ModulusFn) -> int:
    """Cauchy rate for the accumulated step sizes, rescaled by the uniform
    trajectory bound (2M+1)e^A."""
    e_num, e_den = e_a.as_integer_ratio()
    return xi(ceil_div((2 * m_bound + 1) * e_num * (n + 1), e_den) - 1)


def total_boundedness_P(
    k: int,
    e_a: Fraction,
    sqrt_d: Fraction,
    l_bound: Fraction,
    d: int,
    cap: int = DEFAULT_CAP,
) -> NaturalBound:
    """Size of a 1/(8e^A(k+1))-net of the solution-search region: the number
    of recursion stages the metastability bound must absorb."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    e_num, e_den = e_a.as_integer_ratio()
    s_num, s_den = sqrt_d.as_integer_ratio()
    l_num, l_den = Fraction(l_bound).as_integer_ratio()
    inner = ceil_div(8 * e_num * (k + 1), e_den)
    base = ceil_div(2 * inner * s_num * l_num, s_den * l_den)
    if base < 0:
        base = 0
    if base >= 2 and (base.bit_length() - 1) * d > cap.bit_length():
        return NaturalBound.overflow()
    return NaturalBound.of(base ** d + 1, cap)


def phi_liminf(k: int, n: int, q, phi_search: PhiSearch) -> int:
    """Search bound for an iterate whose fixed-point residual at stage-0 step
    size is below 1/(k+1), starting no earlier than n.

    ``q`` carries the certified constants (C, M) and moduli (theta, varpi);
    ``phi_search`` is the residual-search modulus of the trajectory.
    """
    return _phi_liminf(k, n, q, phi_search, *Fraction(q.C).as_integer_ratio())


def _phi_liminf(k: int, n: int, q, phi_search: PhiSearch, c_num: int, c_den: int) -> int:
    """phi_liminf with C given as the pair c_num / c_den."""
    # ceil(2C (k + 1)) - 1 = (2 c_num k + (2 c_num - 1)) // c_den
    first = 2 * c_num * k + (2 * c_num - 1)
    if c_den != 1:
        first //= c_den
    inner = q.theta(q.M * q.varpi(k) + (q.M - 1))
    return phi_search(first, max(inner, n))


def _growth_bits(g: Counterfunction, q, phi_search: PhiSearch, me: int, e_den: int) -> int:
    """The b >= 1 of a proven growth Psi_0(i+1) >= 2^b Psi_0(i), or 0.

    A stage of psi is at least R (val + 1), R = s_theta M s_varpi me / e_den
    with me = m e_num: chi >= (val + 1) me / e_den, theta's argument is
    M varpi(chi) + M - 1, and phi(k, n) >= n. b = floor(log2 R) counts only
    when no stage can raise: g is a closed form and phi answers every query
    (a table theta or varpi has slope 0)."""
    if not g.closed_form or not getattr(phi_search, "answers_every_query", False):
        return 0
    rate = q.theta.slope * q.M * q.varpi.slope * Fraction(me, e_den)
    return max(math.floor(rate).bit_length() - 1, 0)


def psi(
    k: int,
    g: Counterfunction,
    q,
    phi_search: PhiSearch,
    *,
    cap: int = DEFAULT_CAP,
    chi_floor: Optional[int] = None,
) -> NaturalBound:
    """Rate of metastability for the iteration's trajectory.

    Iterates the residual-search bound through a net of candidate limit
    points: Psi_0(0) = 0, Psi_0(i+1) = Phi(chi_g^M(Psi_0(i), 8k+7), xi~(8k+7)),
    returning Psi_0(P). The sequence is monotone nondecreasing (asserted).
    Values above ``cap`` collapse to the symbolic overflow marker.

    Two exits end the recursion before stage P with the same result. A stage
    that returns its input is a fixed point of the stage map, which reads the
    value alone, so every later stage repeats it. And when each stage provably
    multiplies the value by 2^b (``_growth_bits``), the overflow is returned as
    soon as the stages left must carry the value past the cap.
    """
    e_a = exp_upper(q.A)
    p_nb = total_boundedness_P(k, e_a, sqrt_upper(q.d), q.L, q.d, cap)
    if p_nb.is_overflow:
        return NaturalBound.overflow()
    m = 8 * k + 7
    xt = xi_tilde(m, q.M, e_a, q.xi)
    e_num, e_den = e_a.as_integer_ratio()
    c_num, c_den = Fraction(q.C).as_integer_ratio()
    monotone = g.is_monotone
    p = int(p_nb)
    grow = _growth_bits(g, q, phi_search, m * e_num, e_den)
    # after stage i, Psi_0(P) >= 2^(val.bit_length() - 1 + grow (P - 1 - i)),
    # which passes the cap once val.bit_length() > top
    top = cap.bit_length() - grow * (p - 1)
    val = 0
    for _ in range(p):
        # chi_g^M(val) = max over i <= val of chi(i, g(i), m); chi is monotone
        # in both index slots, so a monotone g needs only the endpoint
        if monotone or val == 0:
            ci = _chi(val, g(val), m, e_num, e_den)
        else:
            ci = max(_chi(i, g(i), m, e_num, e_den) for i in range(val + 1))
        if chi_floor is not None and ci < chi_floor:
            ci = chi_floor
        nxt = _phi_liminf(ci, xt, q, phi_search, c_num, c_den)
        if nxt <= val:  # one test on the exact path: a decrease or a fixed point
            if nxt < val:
                raise InvariantViolation(f"metastability recursion decreased: {val} -> {nxt}")
            break
        val = nxt
        if val > cap or val.bit_length() > top:
            return NaturalBound.overflow()
        top += grow
    return NaturalBound.of(val, cap)


def psi_prime(
    k: int,
    g: Counterfunction,
    q,
    phi_search: PhiSearch,
    *,
    cap: int = DEFAULT_CAP,
) -> NaturalBound:
    """Metastability rate whose window additionally consists of approximate
    solutions: psi at the raised precision k0 = max(k, ceil((om-1)/2)), where
    om = max(varpi(2k+1), omega(k)), and with the stage threshold delta(k)
    floored into every chi evaluation."""
    om = max(q.varpi(2 * k + 1), omega(k, q.M, q.varpi))
    k0 = max(k, ceil_div(om - 1, 2))
    return psi(k0, g, q, phi_search, cap=cap, chi_floor=delta(k))


def kappa(k: int, m_bound: int, b_bound: int) -> int:
    """Membership level at which approximate fixed-point residuals at stage-0
    step size drop below 1/(k+1)."""
    return 4 * (m_bound + 1) * (b_bound * (4 * k + 4) - 1) ** 2 - 1


def kappa_hat(
    k: int,
    m_bound: int,
    b_bound: int,
    b_prime: int,
    varpi_hat: ModulusFn,
) -> int:
    """Membership level controlling the selection-gap functional, derived
    from kappa through the continuity modulus of the subtracted operator."""
    arg = max(varpi_hat(2 * k + 1), bounded_sub(2 ** (b_prime + 1) * (k + 1), 1))
    return kappa(arg, m_bound, b_bound)
