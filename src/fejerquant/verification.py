"""Empirical certification of the convergence analysis on recorded traces.

Every checker returns a Certificate: an immutable, reproducible record of
what was verified, against which computed bound, and with what outcome.
Certificates never hide failures — a violated inequality is itemized, an
overflowed bound is reported as vacuous, a too-short horizon is a stated
reason, and provenance distinguishes analytic moduli from empirical ones.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import MissingSolutions, ResidualFloor, TableRangeError
from .iteration import (
    ProblemInstance,
    Trace,
    gamma_k_check,
    gamma_witness,
    resolvent_batch_points,
    run,
)
from .moduli import (
    DEFAULT_CAP,
    Counterfunction,
    NaturalBound,
    PhiSearch,
    delta as delta_modulus,
    exp_upper,
    omega as omega_modulus,
    phi_liminf,
    psi,
    psi_prime,
    sqrt_upper,
    total_boundedness_P,
)
from .operators import evaluate, minimal_selection, yosida

_SLACK = 1e-9
_CAUCHY_GUARD = 1e-12


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """An immutable verification record.

    ``sound`` follows the rule: witness within the computed bound, or no
    violations for inequality checks; a bound that overflowed the cap makes
    the certificate vacuously sound and sets ``vacuous``. ``digest`` is a
    SHA-256 over the canonical params JSON, so identical inputs are
    recognizable across runs.
    """

    kind: str
    params: dict
    witness: dict
    bound: Optional[NaturalBound]
    sound: bool
    vacuous: bool = False
    violations: tuple = ()
    provenance: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        blob = json.dumps(self.params, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_json(self) -> dict:
        if self.bound is None:
            bound = None
        else:
            bound = self.bound.to_json()
        return {
            "kind": self.kind,
            "params": self.params,
            "witness_N": self.witness.get("N"),
            "witness": self.witness,
            "bound": bound,
            "sound": self.sound,
            "vacuous": self.vacuous,
            "violations": list(self.violations),
            "provenance": self.provenance,
            "digest": self.digest,
        }


def _instance_params(inst: ProblemInstance) -> dict:
    from .operators import operator_to_json

    return {
        "T": operator_to_json(inst.T),
        "S": operator_to_json(inst.S),
        "x0": [float(v) for v in inst.x0],
        "schedule": inst.schedule.to_json(),
        "quant": inst.quant.to_json(),
    }


# --------------------------------------------------------------------------
# lemma inequality checks
# --------------------------------------------------------------------------


def check_quasi_fejer(
    trace: Trace, inst: ProblemInstance, max_n: int, max_l: int
) -> Certificate:
    """Verify both quasi-Fejer inequalities along the trace.

    For every known solution x* with the exact witness y* = T°x* (membership
    y* in Sx* is itself checked, so the approximation slack of the general
    inequality vanishes):

      product form:  ||x_{n+l} - x*|| <= prod(1 + mu/lambda) ||x_n - x*||
                       + 2||T°x*|| sum mu_k prod_{j>k}(1 + mu/lambda) + 1e-9
      e^A form:      ||x_{n+l} - x*|| <= e^A ||x_n - x*||
                       + (2M+1) e^A sum mu + 1e-9
    """
    if not inst.known_solutions:
        raise MissingSolutions("quasi-Fejer checks need known solutions")
    e_a = float(exp_upper(inst.quant.A).value)
    m_coeff = 2 * inst.quant.M + 1
    steps = trace.steps
    violations = []
    checked = 0
    for x_star in inst.known_solutions:
        y_star = minimal_selection(inst.T, x_star)
        t_norm = float(np.linalg.norm(y_star))
        if not evaluate(inst.S, x_star).contains(y_star, _SLACK):
            violations.append(
                {
                    "form": "premise",
                    "solution": [float(v) for v in x_star],
                    "detail": "T°x* not in Sx*: not an exact solution",
                }
            )
            continue
        dists = np.linalg.norm(trace.points - x_star[None, :], axis=1)
        for n in range(min(max_n, steps) + 1):
            prod = 1.0
            acc = 0.0
            musum = 0.0
            base = dists[n]
            top = min(max_l, steps - n)
            for l in range(top + 1):
                lhs = dists[n + l]
                rhs_prod = prod * base + 2.0 * t_norm * acc + _SLACK
                rhs_exp = e_a * base + m_coeff * e_a * musum + _SLACK
                checked += 1
                if lhs > rhs_prod:
                    violations.append(
                        {
                            "form": "product",
                            "solution": [float(v) for v in x_star],
                            "n": n,
                            "l": l,
                            "lhs": lhs,
                            "rhs": rhs_prod,
                        }
                    )
                if lhs > rhs_exp:
                    violations.append(
                        {
                            "form": "exp",
                            "solution": [float(v) for v in x_star],
                            "n": n,
                            "l": l,
                            "lhs": lhs,
                            "rhs": rhs_exp,
                        }
                    )
                if l < top:
                    mu = trace.mus[n + l]
                    rho = 1.0 + mu / trace.lambdas[n + l]
                    prod *= rho
                    acc = acc * rho + mu
                    musum += mu
    return Certificate(
        kind="lemma-inequality",
        params={
            "lemma": "quasi-fejer",
            "max_n": max_n,
            "max_l": max_l,
            **_instance_params(inst),
        },
        witness={"checked": checked},
        bound=None,
        sound=not violations,
        violations=tuple(violations[:50]),
        provenance={"slack": _SLACK, "witnesses": "exact minimal selections"},
    )


def check_approx_error(
    trace: Trace, inst: ProblemInstance, max_n: int, max_i: int
) -> Certificate:
    """Verify the cross-stage resolvent error bound
    ||x_n - J^S_{mu_i}(x_n + mu_i T_{lam_n} x_n)||
      <= ||x_n - x_{n+1}|| + |mu_n - mu_i| ||x_n - x_{n+1}|| / mu_n + 1e-9.

    The bound relates x_n to its exact stage image, so the ratio
    ||x_n - x_{n+1}|| / mu_n is evaluated as ||S_{mu_n}(x_n + mu_n t_n) - t_n||
    via the Yosida map of S, which is the same quantity without the rounding
    of a stored x_{n+1}; differencing recorded points instead injects an
    error of order ulp(x)/mu_n, well above the slack once mu_n is small.
    """
    steps = trace.steps
    mus_all = inst.schedule.mus(0, max_i + 1)
    violations = []
    checked = 0
    max_overshoot: Optional[float] = None
    for n in range(min(max_n, steps - 1) + 1):
        x_n = trace.points[n]
        t_n = yosida(inst.T, trace.lambdas[n], x_n)
        mu_n = trace.mus[n]
        rate = float(np.linalg.norm(yosida(inst.S, mu_n, x_n + mu_n * t_n) - t_n))
        shifted = x_n[None, :] + mus_all[:, None] * t_n[None, :]
        moved = resolvent_batch_points(inst.S, mus_all, shifted)
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
        params={
            "lemma": "approx-error",
            "max_n": max_n,
            "max_i": max_i,
            **_instance_params(inst),
        },
        witness={"checked": checked, "max_overshoot": max_overshoot},
        bound=None,
        sound=not violations,
        violations=tuple(violations[:50]),
        provenance={"slack": _SLACK},
    )


# --------------------------------------------------------------------------
# metastability
# --------------------------------------------------------------------------


def find_metastable(trace: Trace, k: int, g: Counterfunction) -> Optional[int]:
    """Smallest N whose window [N, N + g(N)] has diameter <= 1/(k+1)
    (nonstrict, matching the certified conclusion); None when no candidate
    window fits in the trace."""
    bound = 1.0 / (k + 1)
    for n in range(trace.steps + 1):
        width = g(n)
        if n + width > trace.steps:
            continue
        if trace.window_diameter(n, n + width) <= bound:
            return n
    return None


def _window_in_gamma(inst: ProblemInstance, trace: Trace, k: int, a: int, b: int) -> bool:
    for i in range(a, b + 1):
        lam = trace.lambdas[i] if i < trace.steps else inst.schedule.lam(i)
        y = gamma_witness(inst, trace.points[i], lam)
        if not gamma_k_check(inst, trace.points[i], k, y):
            return False
    return True


def certify_metastability(
    inst: ProblemInstance,
    k: int,
    g: Counterfunction,
    phi_search: PhiSearch,
    horizon: int,
    *,
    trace: Optional[Trace] = None,
    use_psi_prime: bool = False,
    check_gamma: bool = False,
    cap: int = DEFAULT_CAP,
    phi_provenance: str = "analytic",
) -> Certificate:
    """Certify the metastability bound on a concrete run.

    Finds the first metastable window empirically, computes the rate Psi in
    exact big-integer arithmetic, and reports N <= Psi. Optionally also
    evaluates the strengthened rate Psi' and checks that the window consists
    of approximate solutions (membership via canonical Yosida witnesses).
    """
    if trace is None:
        trace = run(inst, horizon)
    n_found = find_metastable(trace, k, g)
    bound = psi(k, g, inst.quant, phi_search, cap=cap)
    p_nb = total_boundedness_P(
        k, exp_upper(inst.quant.A), sqrt_upper(inst.quant.d), inst.quant.L,
        inst.quant.d, cap,
    )
    violations = []
    witness: dict = {"N": n_found, "P": p_nb.to_json()}
    if n_found is None:
        violations.append({"reason": "horizon too short: no metastable window found"})
        sound = bound.is_overflow
    else:
        witness["window"] = [n_found, n_found + g(n_found)]
        sound = bound.is_overflow or n_found <= int(bound)
    vacuous = bound.is_overflow
    bound_prime: Optional[NaturalBound] = None
    if use_psi_prime:
        bound_prime = psi_prime(k, g, inst.quant, phi_search, cap=cap)
        witness["psi_prime"] = bound_prime.to_json()
        if bound_prime.is_overflow:
            vacuous = True
    if check_gamma:
        # second conclusion: some window within the strengthened rate consists
        # entirely of level-k approximate solutions
        n_gamma = None
        bnd = 1.0 / (k + 1)
        for n in range(trace.steps + 1):
            width = g(n)
            if n + width > trace.steps:
                continue
            if trace.window_diameter(n, n + width) <= bnd and _window_in_gamma(
                inst, trace, k, n, n + width
            ):
                n_gamma = n
                break
        witness["N_gamma"] = n_gamma
        ref = bound_prime if bound_prime is not None else bound
        if n_gamma is None:
            violations.append({"reason": "no window of approximate solutions found"})
            if not ref.is_overflow:
                sound = False
        elif not ref.is_overflow and n_gamma > int(ref):
            violations.append(
                {"reason": "approximate-solution window beyond the computed rate"}
            )
            sound = False
    return Certificate(
        kind="metastability",
        params={
            "k": k,
            "g": g.to_json(),
            "horizon": horizon,
            "use_psi_prime": use_psi_prime,
            "check_gamma": check_gamma,
            **_instance_params(inst),
        },
        witness=witness,
        bound=bound,
        sound=sound,
        vacuous=vacuous,
        violations=tuple(violations),
        provenance={"phi_search": phi_provenance},
    )


# --------------------------------------------------------------------------
# empirical residual-search modulus
# --------------------------------------------------------------------------


def monotonize_table(table: np.ndarray) -> np.ndarray:
    """Cumulative max along both axes: the smallest pointwise-dominating
    table that is monotone nondecreasing in k (axis 0) and n (axis 1)."""
    out = np.array(table, dtype=np.int64, copy=True)
    np.maximum.accumulate(out, axis=0, out=out)
    np.maximum.accumulate(out, axis=1, out=out)
    return out


@dataclass(frozen=True, eq=False)
class EmpiricalPhi:
    """Residual-search modulus built from a trace.

    ``table[k, n]`` is the first index N >= n whose step residual is below
    1/(k+1), monotone in both arguments. Queries beyond the tested rectangle
    are answered as max(n, stationary_from) when the trace tail was verified
    stationary at a point every stage map fixes; otherwise they raise, since
    an empirical modulus must not extrapolate.
    """

    table: np.ndarray
    k_max: int
    n_max: int
    stationary_from: Optional[int]
    provenance: str

    def __call__(self, k: int, n: int) -> int:
        if k < 0 or n < 0:
            raise ValueError("modulus arguments are naturals")
        if k <= self.k_max and n <= self.n_max:
            return int(self.table[k, n])
        if self.stationary_from is not None:
            return max(n, self.stationary_from)
        raise TableRangeError(
            f"empirical residual modulus queried at (k={k}, n={n}) outside "
            f"the tested rectangle [0,{self.k_max}]x[0,{self.n_max}] "
            "and the trace tail is not verified stationary"
        )

    def describe(self) -> dict:
        return {
            "provenance": self.provenance,
            "k_max": self.k_max,
            "n_max": self.n_max,
            "stationary_from": self.stationary_from,
        }


def _verified_stage_fixed_point(inst: ProblemInstance, x_bar: np.ndarray) -> bool:
    """True when x_bar is provably fixed by every stage map of the schedule.

    A stage map fixes x_bar iff the Yosida value of T at x_bar lies in the
    value set S(x_bar) (the step-size drops out for the whole catalog). Two
    certifiable cases: the Yosida value is identically zero because 0 is in
    T(x_bar) exactly, and 0 in S(x_bar); or T is diagonal affine, so each
    Yosida coordinate varies monotonically with constant sign between its
    endpoints, and both endpoints (lambda -> 0 and lambda = B) lie in the
    closed interval S(x_bar).
    """
    from .operators import AffinePSD

    s_val = evaluate(inst.S, x_bar)
    zero = np.zeros(inst.dim)
    if evaluate(inst.T, x_bar).contains(zero) and s_val.contains(zero):
        return True
    if isinstance(inst.T, AffinePSD) and inst.T.is_diagonal:
        limit = inst.T.matrix @ x_bar + inst.T.offset
        at_b = yosida(inst.T, float(inst.quant.B), x_bar)
        return s_val.contains(limit) and s_val.contains(at_b)
    return False


def build_empirical_phi(
    trace: Trace,
    k_max: int,
    n_max: Optional[int] = None,
    inst: Optional[ProblemInstance] = None,
) -> EmpiricalPhi:
    """Tabulate the residual-search modulus phi(k, n) from a trace.

    Raises ResidualFloor at the first (k, n) for which no trace index
    qualifies. When the trace tail is bit-constant and ``inst`` certifies the
    tail point as a universal stage fixed point, the modulus additionally
    answers out-of-rectangle queries via the stationary completion.
    """
    res = trace.residuals
    steps = trace.steps
    if steps < 1:
        raise ResidualFloor(0, 0, float("inf"))
    if n_max is None:
        n_max = steps - 1
    n_max = min(n_max, steps - 1)
    raw = np.empty((k_max + 1, n_max + 1), dtype=np.int64)
    head = np.arange(n_max + 1, dtype=np.int64)
    for k in range(k_max + 1):
        # the first index at or after n whose residual qualifies, `steps` if
        # none: a reversed running minimum over n <= n_max, seeded with the
        # first qualifying index beyond n_max
        below = res < 1.0 / (k + 1)
        beyond = below[n_max + 1 :]
        after = n_max + 1 + int(np.argmax(beyond)) if beyond.any() else steps
        qualifying = np.where(below[: n_max + 1], head, after)
        next_qual = np.minimum.accumulate(qualifying[::-1])[::-1]
        missing = np.flatnonzero(next_qual == steps)
        if missing.size:
            n = int(missing[0])
            raise ResidualFloor(k, n, float(np.min(res[n:])))
        raw[k] = next_qual
    table = monotonize_table(raw)
    stationary_from: Optional[int] = None
    tail = trace.points[-1]
    same = np.all(trace.points == tail[None, :], axis=1)
    if bool(same[-1]):
        first = steps
        while first > 0 and same[first - 1]:
            first -= 1
        if first < steps and inst is not None and _verified_stage_fixed_point(inst, tail):
            stationary_from = first
    provenance = "empirical+stationary" if stationary_from is not None else "empirical"
    return EmpiricalPhi(table, k_max, n_max, stationary_from, provenance)


# --------------------------------------------------------------------------
# Cauchy moduli on traces
# --------------------------------------------------------------------------


def check_cauchy_modulus(
    trace: Trace,
    theta_eval: Callable[[Fraction], NaturalBound],
    eps_list: Sequence[Fraction],
) -> Certificate:
    """Verify that theta is a Cauchy modulus on the trace: for each eps,
    all points from theta(eps) to the end stay strictly within eps of each
    other (strictness via a 1e-12 guard on the window diameter). Epsilons
    whose bound overflows or exceeds the trace are reported vacuous."""
    results = {}
    violations = []
    any_vacuous = False
    for eps in eps_list:
        eps = Fraction(eps)
        bound = theta_eval(eps)
        entry = {"theta": bound.to_json()}
        if bound.is_overflow or int(bound) > trace.steps:
            entry["status"] = "vacuous"
            any_vacuous = True
        else:
            start = int(bound)
            diam = trace.window_diameter(start, trace.steps)
            ok = diam <= float(eps) - _CAUCHY_GUARD
            entry["status"] = "pass" if ok else "fail"
            entry["diameter"] = diam
            if not ok:
                violations.append(
                    {"eps": str(eps), "theta": start, "diameter": diam}
                )
        results[str(eps)] = entry
    return Certificate(
        kind="cauchy-modulus",
        params={"eps_list": [str(Fraction(e)) for e in eps_list]},
        witness={"per_eps": results, "trace_steps": trace.steps},
        bound=None,
        sound=not violations,
        vacuous=any_vacuous,
        violations=tuple(violations),
        provenance={"strictness_guard": _CAUCHY_GUARD},
    )


def check_liminf_witness(
    inst: ProblemInstance,
    trace: Trace,
    k: int,
    n: int,
    phi_search: PhiSearch,
) -> Certificate:
    """Search [n, Phi(k, n)] for an iterate that is a level-k approximate
    solution with its canonical Yosida witness."""
    bound_val = phi_liminf(k, n, inst.quant, phi_search)
    bound = NaturalBound.of(bound_val)
    top = min(bound_val, trace.steps)
    found = None
    for i in range(n, top + 1):
        lam = trace.lambdas[i] if i < trace.steps else inst.schedule.lam(i)
        y = gamma_witness(inst, trace.points[i], lam)
        if gamma_k_check(inst, trace.points[i], k, y):
            found = i
            break
    vacuous = bound_val > trace.steps and found is None
    violations = ()
    if found is None:
        violations = (
            {
                "reason": "no approximate solution found in the search range",
                "range": [n, top],
            },
        )
    return Certificate(
        kind="liminf-witness",
        params={"k": k, "n": n, **_instance_params(inst)},
        witness={"N": found},
        bound=bound,
        sound=found is not None,
        vacuous=vacuous,
        violations=violations,
        provenance={"witness": "yosida at the iterate's own stage parameter"},
    )


def check_uniform_closedness(
    inst: ProblemInstance, samples: Sequence, k: int
) -> Certificate:
    """Sample the uniform closedness of the approximate-solution strata:
    whenever q is a level-delta(k) member (witness T°q) and p is within
    1/(omega(k)+1) of q, then p is a level-k member with the same witness."""
    dlt = delta_modulus(k)
    om = omega_modulus(k, inst.quant.M, inst.quant.varpi)
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
