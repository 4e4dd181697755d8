"""Empirical certification of the convergence analysis on recorded traces.

Every checker returns a Certificate: an immutable, reproducible record of
what was verified, against which computed bound, and with what outcome.
Certificates never hide failures — a violated inequality is itemized, an
overflowed bound is reported as vacuous, a too-short horizon is a stated
reason, and provenance distinguishes analytic moduli from empirical ones.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import MissingSolutions, ResidualFloor, TableRangeError
from .fields import Record
from .iteration import ProblemInstance, Trace, gamma_k_check
from .moduli import (
    DEFAULT_CAP,
    Counterfunction,
    NaturalBound,
    PhiSearch,
    exp_upper,
    float_upper,
    psi,
    psi_prime,
    sqrt_upper,
    total_boundedness_P,
)
from .operators import (
    TILE,
    evaluate,
    in_box,
    minimal_selection,
    resolvent_rows,
    row_norms,
    yosida,
    yosida_rows,
)

# The interpreter's builtin SHA-256, as random.py takes _sha512: hashlib would
# load OpenSSL's libcrypto into every certificate process (README, "What each
# task loads")
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # a build without the builtin hash modules
        from hashlib import sha256

_SLACK = 1e-9
_CAUCHY_GUARD = 1e-12


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------


class Certificate(Record, eq=True):
    """An immutable verification record.

    ``sound`` follows the rule: witness within the computed bound, or no
    violations for inequality checks; a bound that overflowed the cap makes
    the certificate vacuously sound and sets ``vacuous``. ``digest`` is a
    SHA-256 over the canonical params JSON only. It names the configuration
    checked, not the trace nor the outcome: a sound certificate and its twin
    on a fault-injected trace of the same config share it.
    """

    kind: str
    params: dict
    witness: dict
    bound: Optional[NaturalBound]
    sound: bool
    vacuous: bool = False
    violations: tuple = ()
    provenance: dict

    @property
    def digest(self) -> str:
        blob = json.dumps(self.params, sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode()).hexdigest()

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
    """The instance's config form, its problem inlined without the known solutions."""
    cfg = inst.to_json()
    problem = cfg.pop("problem")
    del problem["known_solutions"]
    return {**problem, **cfg}


# --------------------------------------------------------------------------
# lemma inequality checks
# --------------------------------------------------------------------------


# violation forms, in the order they are listed for one (solution, n, l)
_PREMISE = -1
_FORMS = ("product", "exp")


def _first_listed(found: list) -> tuple:
    """The first 50 violation records of ``found``, a list of record arrays
    (solution, n, l, form, lhs, rhs), in (solution, n, l, form) order."""
    columns = [np.concatenate(c) for c in zip(*found)]
    first = np.lexsort(columns[3::-1])[:50]  # the last key sorts first
    return tuple(c[first] for c in columns)


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

    for n <= max_n and l <= max_l within the trace. The running product and
    the two mu sums do not depend on x*: each is one row over n, advanced in
    place from offset l - 1 to l with the scalar recurrence's operations
    element by element. The sweep handles one offset at a time: it advances
    the rows, builds both right-hand sides for every solution and compares
    them with the distances at n + l, which are padded with -inf past the
    trace, so a pair with n + l > steps never counts. The right-hand sides
    are the ones of a loop over (n, l) bit for bit. Violations are listed in
    (solution, n, l, form) order, the first 50 of them; after each offset
    that finds one, only the first 50 found so far are kept.

    A row retires once it is decided. When every rho >= 1 and every mu >= 0,
    as in every trace that ``run`` makes, each running product and e^A is
    >= 1 and every added term is >= 0, so by monotone rounding the computed
    right-hand sides of a row do not decrease in l. At offset l, a row whose
    two right-hand sides are, for every solution, >= the largest distance
    from step n + l + 1 on can hold no violation at a later offset (a NaN
    retires nothing). The sweep runs over the rows from the first one not
    retired to the last, and stops when none is left. The argument needs
    only a slack >= 0 and added terms >= 0, so it still holds when a series
    of rounding errors replaces the slack.
    """
    if not inst.known_solutions:
        raise MissingSolutions("quasi-Fejer checks need known solutions")
    e_a = float_upper(exp_upper(inst.quant.A))
    coef = (2 * inst.quant.M + 1) * e_a
    steps = trace.steps
    # violation records: arrays of solution index, n, l, form, lhs, rhs
    found = []
    kept, dists, t2 = [], [], []
    for i, x_star in enumerate(inst.known_solutions):
        y_star = minimal_selection(inst.T, x_star)
        if in_box(*evaluate(inst.S, x_star), y_star, _SLACK):
            kept.append(i)
            dists.append(np.linalg.norm(trace.points - x_star[None, :], axis=1))
            t2.append(2.0 * float(np.linalg.norm(y_star)))
        else:
            found.append(tuple(np.array([v]) for v in (i, 0, 0, _PREMISE, np.nan, np.nan)))
    # clamped as Python ints: max_n and max_l may be any natural
    n_top = min(max_n, steps)
    l_top = min(max_l, steps)
    checked = 0
    if kept and n_top >= 0 and l_top >= 0:
        cols = n_top + 1
        # the last offset checked from row n is min(max_l, steps - n)
        checked = len(kept) * sum(min(l_top, steps - n) + 1 for n in range(cols))
        reach = n_top + l_top  # the last step to offset l_top reads rho[reach - 1]
        live = min(reach, steps)
        # one column past reach: a row retiring at l_top reads top[:, reach + 1]
        dist = np.full((len(kept), reach + 2), -np.inf)
        dist[:, : live + 1] = np.stack(dists)[:, : live + 1]
        # past the trace a row keeps its last values: finite, never compared
        rho = np.ones(reach)
        rho[:live] = 1.0 + trace.mus[:live] / trace.lambdas[:live]
        mus = np.zeros(reach)
        mus[:live] = trace.mus[:live]
        if np.all(rho >= 1.0) and np.all(mus >= 0.0):
            # the largest distance from each step on, padding included
            top = np.maximum.accumulate(dist[:, ::-1], axis=1)[:, ::-1]
        else:  # right-hand sides that may decrease retire no row
            top = np.full_like(dist, np.nan)
        sol = np.array(kept)
        base = dist[:, :cols]
        e_base = e_a * base
        t2 = np.array(t2)[:, None]
        prod, acc, musum = np.ones(cols), np.zeros(cols), np.zeros(cols)
        a, b = 0, cols  # the rows from the first one not retired to the last
        # the views over [a, b), made once per span: on a narrow sweep a view
        # per offset costs more than the arithmetic
        prod_ab, acc_ab, musum_ab, base_ab, e_base_ab = prod, acc, musum, base, e_base
        for l in range(l_top + 1):
            if l:
                step_rho, step_mu = rho[a + l - 1 : b + l - 1], mus[a + l - 1 : b + l - 1]
                np.multiply(prod_ab, step_rho, out=prod_ab)
                np.multiply(acc_ab, step_rho, out=acc_ab)
                np.add(acc_ab, step_mu, out=acc_ab)
                np.add(musum_ab, step_mu, out=musum_ab)
            lhs = dist[:, a + l : b + l]
            rhs_prod = prod_ab * base_ab
            rhs_prod += t2 * acc_ab
            rhs_prod += _SLACK
            rhs_exp = e_base_ab + coef * musum_ab
            rhs_exp += _SLACK
            for form, rhs in enumerate((rhs_prod, rhs_exp)):
                above = lhs > rhs
                if above.any():
                    s, n = np.nonzero(above)
                    at = np.full(s.size, l)
                    found.append((sol[s], a + n, at, np.full(s.size, form), lhs[s, n], rhs[s, n]))
            if len(found) > 1:
                found = [_first_listed(found)]
            later = top[:, a + l + 1 : b + l + 1]
            retired = (rhs_prod >= later) & (rhs_exp >= later)
            left = np.flatnonzero(~retired.all(axis=0))
            if not left.size:
                break
            span = a + int(left[0]), a + int(left[-1]) + 1
            if span != (a, b):
                a, b = span
                prod_ab, acc_ab, musum_ab = prod[a:b], acc[a:b], musum[a:b]
                base_ab, e_base_ab = base[:, a:b], e_base[:, a:b]
    violations = []
    if found:
        sols, ns, ls, forms, lhss, rhss = _first_listed(found)
        for j in range(sols.size):
            solution = [float(v) for v in inst.known_solutions[sols[j]]]
            if forms[j] == _PREMISE:
                entry = {"form": "premise", "solution": solution,
                         "detail": "T°x* not in Sx*: not an exact solution"}
            else:
                entry = {"form": _FORMS[forms[j]], "solution": solution, "n": int(ns[j]),
                         "l": int(ls[j]), "lhs": float(lhss[j]), "rhs": float(rhss[j])}
            violations.append(entry)
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
        sound=not found,
        violations=tuple(violations),
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

    The (n, i) pairs are evaluated in tiles of as many rows n as fit TILE
    elements with every stage i, one resolvent_rows call per tile. Each
    row's largest gap is folded into ``max_overshoot`` in row order, so a
    NaN in the first row is kept and a later one is passed over, as a loop
    over n does.
    """
    top = max(min(max_n, trace.steps - 1) + 1, 0)
    xs, mus = trace.points[:top], trace.mus[:top, None]
    ts = yosida_rows(inst.T, trace.lambdas[:top], xs)
    rates = row_norms(yosida_rows(inst.S, mus[:, 0], xs + mus * ts) - ts)[:, None]
    mus_all = inst.schedule.mus(0, max_i + 1)
    stages = mus_all.shape[0]
    height = max(1, TILE // max(stages * xs.shape[1], 1))
    lams = np.tile(mus_all, height)
    violations = []
    max_overshoot = None
    for n0 in range(0, top, height):
        x, t = xs[n0 : n0 + height, None, :], ts[n0 : n0 + height, None, :]
        mu, rate = mus[n0 : n0 + height], rates[n0 : n0 + height]
        shifted = x + mus_all[:, None] * t  # [n, i] = x_n + mu_i t_n
        rows = shifted.shape[0] * stages
        moved = resolvent_rows(inst.S, lams[:rows], shifted.reshape(rows, -1))
        lhs = np.linalg.norm(moved.reshape(shifted.shape) - x, axis=2)
        rhs = mu * rate + np.abs(mu - mus_all) * rate
        gaps = lhs - rhs
        worst = np.max(gaps, axis=1)
        if max_overshoot is None:
            max_overshoot = worst[0]
        above = worst[worst > max_overshoot]
        if above.size:
            max_overshoot = np.max(above)
        for n, i in np.argwhere(gaps > _SLACK)[: 50 - len(violations)]:
            violations.append(
                {"n": n0 + int(n), "i": int(i), "lhs": float(lhs[n, i]),
                 "rhs": float(rhs[n, i] + _SLACK)}
            )
    return Certificate(
        kind="lemma-inequality",
        params={
            "lemma": "approx-error",
            "max_n": max_n,
            "max_i": max_i,
            **_instance_params(inst),
        },
        witness={
            "checked": top * stages,
            "max_overshoot": None if max_overshoot is None else float(max_overshoot),
        },
        bound=None,
        sound=not violations,
        violations=tuple(violations),
        provenance={"slack": _SLACK},
    )


# --------------------------------------------------------------------------
# metastability
# --------------------------------------------------------------------------


def _metastable_windows(trace: Trace, k: int, g: Counterfunction):
    """The windows [n, n + g(n)] within the trace of diameter <= 1/(k+1)
    (nonstrict, matching the certified conclusion), in order of n."""
    bound = 1 / (k + 1)  # exact int division: no OverflowError for a huge k
    for n in range(trace.steps + 1):
        end = n + g(n)
        if end <= trace.steps and trace.window_diameter(n, end) <= bound:
            yield n, end


def find_metastable(trace: Trace, k: int, g: Counterfunction) -> Optional[int]:
    """Smallest N whose window [N, N + g(N)] has diameter <= 1/(k+1); None
    when no candidate window fits in the trace."""
    return next((n for n, _ in _metastable_windows(trace, k, g)), None)


def _in_gamma(inst: ProblemInstance, trace: Trace, k: int, i: int) -> bool:
    """Whether iterate i is a level-k approximate solution with its canonical
    Yosida witness at its own stage parameter."""
    lam = trace.lambdas[i] if i < trace.steps else inst.schedule.lam(i)
    return gamma_k_check(inst, trace.points[i], k, yosida(inst.T, lam, trace.points[i]))


def certify_metastability(
    inst: ProblemInstance,
    k: int,
    g: Counterfunction,
    phi_search: PhiSearch,
    trace: Trace,
    *,
    use_psi_prime: bool = False,
    check_gamma: bool = False,
    cap: int = DEFAULT_CAP,
) -> Certificate:
    """Certify the metastability bound on a recorded run.

    Finds the first metastable window of the trace, computes the rate Psi in
    exact big-integer arithmetic, and reports N <= Psi. Optionally also
    evaluates the strengthened rate Psi' and checks that the window consists
    of approximate solutions (membership via canonical Yosida witnesses).
    The certificate's ``phi_search`` provenance is the modulus's own
    ``provenance`` (an ``EmpiricalPhi``), else "analytic". The trace's step
    count is written as the ``horizon`` param.
    """
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
        for n, end in _metastable_windows(trace, k, g):
            if all(_in_gamma(inst, trace, k, i) for i in range(n, end + 1)):
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
            "horizon": trace.steps,
            "use_psi_prime": use_psi_prime,
            "check_gamma": check_gamma,
            **_instance_params(inst),
        },
        witness=witness,
        bound=bound,
        sound=sound,
        vacuous=vacuous,
        violations=tuple(violations),
        provenance={"phi_search": getattr(phi_search, "provenance", "analytic")},
    )


# --------------------------------------------------------------------------
# empirical residual-search modulus
# --------------------------------------------------------------------------


class EmpiricalPhi(Record):
    """Residual-search modulus of a trace, computed when queried.

    phi(k, n) is the first index N >= n whose step residual is below 1/(k+1).
    The search reads ``residuals``, the trace's residuals before its
    bit-constant tail: the tail's 0.0 residuals stand for convergence only
    when the tail point is verified fixed by every stage map, and then
    ``stationary_from`` is set and phi answers max(n, stationary_from) past
    the search. Otherwise phi raises where the search ends, since an
    empirical modulus must not extrapolate: ResidualFloor on a trace that
    moves to its last step, TableRangeError past the trace or at its
    unverified tail. Every answer is at least n, and the answers are
    monotone in both arguments.
    """

    residuals: np.ndarray
    steps: int
    stationary_from: Optional[int]

    def __call__(self, k: int, n: int) -> int:
        if k < 0 or n < 0:
            raise ValueError("modulus arguments are naturals")
        moving = self.residuals
        if n < moving.shape[0]:
            below = moving[n:] < 1 / (k + 1)  # exact int division: no OverflowError for a huge k
            hit = int(np.argmax(below))
            if below[hit]:
                return n + hit
        if self.stationary_from is not None:
            return max(n, self.stationary_from)
        if n < moving.shape[0] == self.steps:
            raise ResidualFloor(k, n, float(np.min(moving[n:])))
        where = f"past the trace's {self.steps} steps"
        if n < self.steps:
            where = f"finds no residual below 1/{k + 1} up to the constant tail at {len(moving)}"
        raise TableRangeError(
            f"empirical residual modulus queried at (k={k}, n={n}) {where}, "
            "and the trace tail is not verified stationary"
        )

    @property
    def answers_every_query(self) -> bool:
        """Whether the stationary completion answers every query past the
        search. Every answer is then at least n, and phi is monotone."""
        return self.stationary_from is not None

    @property
    def provenance(self) -> str:
        """The certificate's name for the modulus: "empirical", with
        "+stationary" when the stationary completion answers past the search."""
        return "empirical+stationary" if self.answers_every_query else "empirical"


def _verified_stage_fixed_point(inst: ProblemInstance, x_bar: np.ndarray) -> bool:
    """True when x_bar is provably fixed by every stage map of the schedule.

    A stage map fixes x_bar iff the Yosida value of T at x_bar lies in the
    value set S(x_bar) (the step-size drops out for the whole catalog). Two
    certifiable cases: the Yosida value is identically zero because 0 is in
    T(x_bar) exactly, and 0 in S(x_bar); or T bounds its Yosida values for
    lambda in (0, B] coordinatewise by two points (``yosida_ends``: lambda
    -> 0 and lambda = B), and both lie in the box S(x_bar).
    """
    s_lo, s_hi = evaluate(inst.S, x_bar)
    zero = np.zeros(inst.dim)
    if in_box(*evaluate(inst.T, x_bar), zero) and in_box(s_lo, s_hi, zero):
        return True
    ends = inst.T.yosida_ends(float(inst.quant.B), x_bar)
    return ends is not None and in_box(s_lo, s_hi, ends[0]) and in_box(s_lo, s_hi, ends[1])


def build_empirical_phi(trace: Trace, inst: ProblemInstance) -> EmpiricalPhi:
    """The residual-search modulus phi(k, n) of a trace of ``inst`` (see
    ``EmpiricalPhi``).

    The search stops before the trace's bit-constant tail, the run of rows
    equal to the last one. When ``inst`` certifies the tail point as a
    universal stage fixed point, the tail is stationary and phi answers
    every query past the search by the stationary completion.
    """
    steps = trace.steps
    tail = trace.points[-1]
    # the constant tail starts after the last row that differs from it; a
    # last row with a NaN differs from itself, and the search reads every step
    differ = np.flatnonzero(~np.all(trace.points == tail[None, :], axis=1))
    first = int(differ[-1]) + 1 if differ.size else 0
    stationary = first < steps and _verified_stage_fixed_point(inst, tail)
    return EmpiricalPhi(trace.residuals[:first], steps, first if stationary else None)


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
