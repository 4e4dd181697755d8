"""Gap functionals and moduli of regularity for Cauchy-rate extraction.

The three gap functionals vanish exactly on the solution set; a modulus of
regularity phi converts "the gap is small" into "the point is near a zero"
on a declared ball. ``theta_generic`` composes phi with the data of an
abstract quasi-Fejer sequence (``GHModuli``: alpha_g, beta_h,
beta_h_prime_at, tau, xi) into a Cauchy modulus. ``theta_moudafi`` is its
instance for the resolvent iteration: alpha_G(x) = x/e^A, beta_H = id,
beta'_H(b+e) the trajectory radius e^A*b + D of ``validate_regularity_ball``,
tau(d, n) = Phi(kappa(ceil(1/d)), n) (kappa_hat with use_kappa_hat) and
xi(x) = xi~(ceil(1/x)).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, EmptyGrid, InvariantViolation, ZeroInfimum
from .fields import FLOATS, RATIONAL, Field, Record, field, list_of, read_form, string
from .fields import write_form
from .iteration import ProblemInstance
from .moduli import (
    DEFAULT_CAP,
    NaturalBound,
    PhiSearch,
    ceil_fraction,
    exp_upper,
    kappa,
    kappa_hat,
    phi_liminf,
    xi_tilde,
)
from .operators import (
    as_point,
    as_rows,
    check_bounds,
    dist_rows,
    least_norm,
    resolvent_rows,
    row_norms,
    value_rows,
)

_GAP_VARIANTS = ("F1", "F2", "FDiff")


class GapFunctional(Record):
    """A nonnegative functional vanishing exactly on the solution set.

    F1(x) = ||x - J^S_{mu_0}(x + mu_0 * T°x)||   (fixed-point gap)
    F2(x) = dist(T°x, Sx)                         (selection gap)
    FDiff(x) = dist(0, Tx - Sx)                   (difference-inclusion gap)
    """

    variant: str
    inst: ProblemInstance

    def __post_init__(self):
        if self.variant not in _GAP_VARIANTS:
            raise ConfigError(f"unknown gap variant {self.variant!r}")


_OUTSIDE = "gap functionals need x in the domain of both operators"


def _in_domain(inst: ProblemInstance, xs: np.ndarray) -> np.ndarray:
    return inst.T.domain_rows(xs) & inst.S.domain_rows(xs)


def eval_gaps(gap: GapFunctional, xs) -> np.ndarray:
    """The gap at every row of an (N, d) array of points, shape (N,).

    Row i equals the single-point evaluation at xs[i] bit for bit: the row
    forms apply the per-point arithmetic elementwise, and distances and
    norms sum in the per-point order.
    """
    inst = gap.inst
    xs = as_rows(xs, inst.dim)
    if not np.all(_in_domain(inst, xs)):
        raise DomainError(_OUTSIDE)
    t_lo, t_hi = value_rows(inst.T, xs)
    if gap.variant == "FDiff":
        s_lo, s_hi = value_rows(inst.S, xs)
        lo, hi = t_lo - s_hi, t_hi - s_lo
        check_bounds(lo, hi)
        return dist_rows(lo, hi, np.zeros_like(xs))
    t_min = least_norm(t_lo, t_hi)  # the minimal selection of T
    if gap.variant == "F2":
        return dist_rows(*value_rows(inst.S, xs), t_min)
    mu0 = inst.schedule.mu(0)
    moved = resolvent_rows(inst.S, np.full(xs.shape[0], mu0), xs + mu0 * t_min)
    return row_norms(xs - moved)


def eval_gap(gap: GapFunctional, x) -> float:
    """The gap at one point: the one-row case of ``eval_gaps``."""
    return float(eval_gaps(gap, as_point(x, gap.inst.dim)[None])[0])


# --------------------------------------------------------------------------
# moduli of regularity
# --------------------------------------------------------------------------


class RegularityModulus(Record):
    """phi with: |F(x)| < phi(eps) implies dist(x, zer F) < eps on B(center; radius).

    ``linear`` is an analytic closed form phi(eps) = scale * eps; ``table``
    holds exact values at the epsilons it was certified for and refuses to
    answer anywhere else. Provenance records the epistemic status: analytic
    moduli are trusted inputs, grid-oracle moduli were checked on a finite
    grid only.
    """

    kind: str
    center: np.ndarray
    radius: Fraction
    provenance: str
    scale: Fraction = Fraction(1)
    entries: tuple = ()

    def __post_init__(self):
        if self.kind not in _REGULARITY_KINDS:
            raise ConfigError(f"unknown regularity modulus kind {self.kind!r}")
        if self.provenance not in ("analytic", "grid-oracle"):
            raise ConfigError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", Fraction(self.radius))
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.radius <= 0:
            raise InvariantViolation("regularity ball radius must be positive")
        if self.kind == "linear" and self.scale <= 0:
            raise InvariantViolation("linear regularity modulus needs scale > 0")
        entries = tuple((Fraction(e), Fraction(p)) for e, p in self.entries)
        object.__setattr__(self, "entries", entries)
        if self.kind == "table":
            if not entries:
                raise InvariantViolation("table regularity modulus needs entries")
            if any(p <= 0 for _, p in entries):
                raise InvariantViolation("regularity modulus values must be positive")

    def phi_value(self, eps: Fraction) -> Fraction:
        """phi(eps), exact; tables answer only at certified epsilons."""
        eps = Fraction(eps)
        if eps <= 0:
            raise DomainError("regularity modulus arguments are positive")
        if self.kind == "linear":
            return self.scale * eps
        for e, p in self.entries:
            if e == eps:
                return p
        raise DomainError(
            f"regularity modulus not certified at eps={eps} "
            f"(certified: {[str(e) for e, _ in self.entries]})"
        )

    def to_json(self) -> dict:
        return {"kind": self.kind, **write_form(self, _REGULARITY_KINDS[self.kind])}

    @classmethod
    def from_json(cls, obj: dict) -> "RegularityModulus":
        kind = field(obj, "kind", string)
        if kind not in _REGULARITY_KINDS:
            raise ConfigError(f"unknown regularity modulus kind {kind!r}")
        form = _REGULARITY_KINDS[kind]
        return cls(kind, **read_form(obj, form, "regularity modulus fields", "kind"))


# the JSON form of each kind of regularity modulus; a table entry (eps, phi)
# is the JSON object {"eps": ..., "phi": ...}
_ENTRY = {"eps": RATIONAL, "phi": RATIONAL}
_ENTRIES = Field(
    list_of(lambda obj: tuple(read_form(obj, _ENTRY, "regularity table entry fields").values())),
    lambda entries: [dict(zip(_ENTRY, map(str, entry))) for entry in entries],
)
_BALL = {"provenance": Field(string), "center": FLOATS, "radius": RATIONAL}
_REGULARITY_KINDS = {"linear": {**_BALL, "scale": RATIONAL},
                     "table": {**_BALL, "entries": _ENTRIES}}


# --------------------------------------------------------------------------
# abstract (G, H) data and the generic Cauchy modulus
# --------------------------------------------------------------------------


class GHModuli(Record):
    """Quantitative data of an abstract quasi-Fejer monotone sequence.

    alpha_g, beta_h: moduli for the transforms G and H (positive,
    nondecreasing eps-maps); beta_h_prime_at: beta'_H(b+e), b bounding
    G(d(x0, z)) and e the accumulated errors, the radius of the ball the
    sequence stays in and on which phi must hold; tau(delta, n) bounds the
    index where the sequence comes within delta of the target set past the
    error-tail index n; xi(delta) is a Cauchy rate for the error series.
    """

    alpha_g: Callable[[Fraction], Fraction]
    beta_h: Callable[[Fraction], Fraction]
    beta_h_prime_at: Fraction
    tau: Callable[[Fraction, int], int]
    xi: Callable[[Fraction], int]

    def __post_init__(self):
        object.__setattr__(self, "beta_h_prime_at", Fraction(self.beta_h_prime_at))


def theta_generic(
    delta: Fraction,
    gh: GHModuli,
    phi_reg: RegularityModulus,
    cap: int = DEFAULT_CAP,
) -> NaturalBound:
    """Cauchy modulus theta(delta) = tau(phi(alpha_G(beta_H(delta/2)/2)),
    xi(beta_H(delta/2)/2)) for an abstract quasi-Fejer sequence; the one place
    where phi's radius is compared with beta'_H(b+e)."""
    if phi_reg.radius < gh.beta_h_prime_at:
        raise DomainError(
            f"regularity ball radius {phi_reg.radius} smaller than the certified "
            f"trajectory radius beta'_H(b+e) = {float(gh.beta_h_prime_at):.6g}"
        )
    delta = Fraction(delta)
    if delta <= 0:
        raise DomainError("Cauchy modulus arguments are positive")
    inner = gh.beta_h(delta / 2) / 2
    if inner <= 0:
        raise DomainError("beta_H must return positive values")
    val = gh.tau(phi_reg.phi_value(gh.alpha_g(inner)), gh.xi(inner))
    if val < 0:
        raise InvariantViolation("tau returned a negative index")
    return NaturalBound.of(val, cap)


# --------------------------------------------------------------------------
# the iteration-specific Cauchy modulus
# --------------------------------------------------------------------------


def theta_moudafi(
    eps: Fraction,
    q,
    phi_search: PhiSearch,
    phi_reg: RegularityModulus,
    radius: Fraction,
    use_kappa_hat: bool = False,
    cap: int = DEFAULT_CAP,
) -> NaturalBound:
    """Cauchy modulus for the resolvent iteration under metric regularity:
    ``theta_generic`` on the iteration's data (see the module docstring), with
    beta'_H(b+e) = radius. kappa converts regularity of the fixed-point gap
    into membership depth; kappa_hat replaces it when phi_reg certifies the
    selection or difference gap (requires the continuity modulus of S).
    """
    e_a = exp_upper(q.A)

    def level(k: int) -> int:
        if not use_kappa_hat:
            return kappa(k, q.M, q.B)
        if q.varpi_hat is None:
            raise ConfigError("kappa_hat needs the continuity modulus of S (varpi_hat)")
        return kappa_hat(k, q.M, q.B, q.Bprime, q.varpi_hat)

    gh = GHModuli(
        alpha_g=lambda x: x / e_a,
        beta_h=lambda x: x,
        beta_h_prime_at=radius,
        tau=lambda d, n: phi_liminf(level(ceil_fraction(1 / d)), n, q, phi_search),
        xi=lambda x: xi_tilde(ceil_fraction(1 / x), q.M, e_a, q.xi),
    )
    return theta_generic(eps, gh, phi_reg, cap)


def validate_regularity_ball(
    inst: ProblemInstance, phi_reg: RegularityModulus, b: Fraction, k_top: int = 1000
) -> Fraction:
    """The radius e^A*b + D of the ball about phi_reg's center z that the
    trajectory stays in, which ``theta_moudafi`` compares with phi_reg's.

    b >= ||x0 - z|| is checked; D bounds the total accumulated step sizes and
    is certified from the Cauchy rate xi as min over k <= k_top of (partial
    sum below xi(k)) + 1/(k+1), all exact rationals. The partial sum only
    grows, so a candidate is made only at the last k of each run of equal
    values of xi's running maximum.
    A closed-form xi is monotone and total, so the end of each run is found
    by bisection over k: power_sum_rate(1, 4) takes 7 values at k <= 1000. A
    table is read at every k, in order, so an error names the first k out of
    its range.
    """
    b = Fraction(b)
    if float(np.linalg.norm(inst.x0 - phi_reg.center)) > float(b) + 1e-12:
        raise DomainError("b must bound the distance from x0 to the ball center")
    xi = inst.quant.xi
    run_ends = []
    partial = Fraction(0)
    upto = k = 0
    while k <= k_top:
        n_k = xi(k)
        if k and upto < n_k:
            run_ends.append(partial + Fraction(1, k))
        while upto < n_k:
            partial += inst.schedule.mu_fraction(upto)
            upto += 1
        # the next k whose value may exceed the largest so far
        k = k + 1 if xi.kind == "table" else bisect_right(range(k_top + 1), upto, lo=k + 1, key=xi)
    return exp_upper(inst.quant.A) * b + min(run_ends + [partial + Fraction(1, k_top + 1)])


# --------------------------------------------------------------------------
# grid-certified regularity moduli
# --------------------------------------------------------------------------


def _ball_grid(z: np.ndarray, r: Fraction, pitch: Fraction) -> np.ndarray:
    """Uniform product grid over the bounding box of B(z; r), filtered to the
    ball, with per-axis spacing <= pitch."""
    r_f = float(r)
    count = ceil_fraction(2 * Fraction(r) / Fraction(pitch)) + 1
    axes = [np.linspace(z[i] - r_f, z[i] + r_f, count) for i in range(z.shape[0])]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.linalg.norm(pts - z[None, :], axis=1) <= r_f + 1e-12
    return pts[keep]


def _zero_distances(pts: np.ndarray, zero_pts: np.ndarray) -> np.ndarray:
    """Distance from each grid point to the nearest declared zero."""
    return np.min(np.linalg.norm(pts[:, None, :] - zero_pts[None, :, :], axis=2), axis=1)


def grid_regularity_oracle(
    gap: GapFunctional,
    zeros: Sequence,
    z,
    r: Fraction,
    eps_list: Sequence[Fraction],
) -> RegularityModulus:
    """Certify a table-backed regularity modulus on a finite grid.

    For each eps: phi(eps) = (1 - 1e-6) * min{ |F(x)| : grid x in B(z;r) with
    dist(x, zeros) >= eps }, on a grid of pitch <= eps/100. The shrink factor
    keeps the defining implication strict on the grid itself.
    """
    z = as_point(z)
    r = Fraction(r)
    eps_list = [Fraction(e) for e in eps_list]
    if r <= 0 or not eps_list:
        raise EmptyGrid("grid oracle needs r > 0 and at least one eps")
    if any(e <= 0 for e in eps_list):
        raise DomainError("eps values must be positive")
    if not zeros:
        raise EmptyGrid("grid oracle needs the analytic zero set")
    zero_pts = np.stack([as_point(p, z.shape[0]) for p in zeros])
    pitch = min(eps_list) / 100
    pts = _ball_grid(z, r, pitch)
    gaps = eval_gaps(gap, pts)
    dists = _zero_distances(pts, zero_pts)
    entries = []
    for eps in eps_list:
        mask = dists >= float(eps)
        if not np.any(mask):
            raise ZeroInfimum(
                f"every grid point is within {eps} of the zero set; "
                "phi is unconstrained at this eps"
            )
        inf_gap = float(np.min(gaps[mask]))
        if inf_gap <= 0:
            raise ZeroInfimum(
                f"gap vanishes at distance >= {eps} from the declared zeros; "
                "no positive phi exists at this eps"
            )
        entries.append((eps, Fraction(inf_gap * (1.0 - 1e-6))))
    return RegularityModulus(
        "table", z, r, "grid-oracle", entries=tuple(entries)
    )


def verify_regularity_on_grid(
    gap: GapFunctional,
    phi_reg: RegularityModulus,
    zeros: Sequence,
    eps: Fraction,
    pitch: Fraction,
) -> bool:
    """Check the defining implication |F(x)| < phi(eps) => dist(x, zeros) < eps
    on an independent grid of the stated pitch.

    False at the first violating grid point; DomainError if a grid point
    outside the domain of T or S comes before it.
    """
    eps = Fraction(eps)
    z = phi_reg.center
    zero_pts = np.stack([as_point(p, z.shape[0]) for p in zeros])
    pts = as_rows(_ball_grid(z, phi_reg.radius, pitch), gap.inst.dim)
    phi_val = float(phi_reg.phi_value(eps))
    inside = _in_domain(gap.inst, pts)
    gaps = eval_gaps(gap, pts[inside])
    far = _zero_distances(pts[inside], zero_pts) >= float(eps)
    violations = np.flatnonzero(inside)[(gaps < phi_val) & far]
    # the grid is checked in order: a point outside the domain is an error
    # only if it comes before the first violation
    outside = np.flatnonzero(~inside)
    if outside.size and (not violations.size or outside[0] < violations[0]):
        raise DomainError(_OUTSIDE)
    return not violations.size
