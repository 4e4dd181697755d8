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
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import MissingSolutions, ResidualFloor, TableRangeError
from .iteration import (
    ProblemInstance,
    Trace,
    gamma_k_check,
    run,
)
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
    AffinePSD,
    evaluate,
    in_box,
    minimal_selection,
    resolvent_rows,
    row_norms,
    yosida,
    yosida_rows,
)

_SLACK = 1e-9
# float64 elements in one temporary of the lemma kernels (64 KB), whatever the
# trace length; larger tiles run the quasi-Fejer check faster but raise the
# process's peak memory (README, "The quasi-Fejér and approx-error tiles")
_TILE = 2**13
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
    the two mu sums do not depend on x*: each is one row over n, advanced
    offset by offset, with the scalar recurrence's operations element by
    element, into a buffer of as many offsets as fit a tile of _TILE
    elements for all solutions. A full buffer is compared with the distances
    for every solution in one step; the distances are padded with -inf past
    the trace, so a pair with n + l > steps never counts. The right-hand
    sides are the ones of a loop over (n, l) bit for bit. Violations are
    listed in (solution, n, l, form) order, the first 50 of them.
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
        t_norm = float(np.linalg.norm(y_star))
        if not in_box(*evaluate(inst.S, x_star), y_star, _SLACK):
            found.append(tuple(np.array([v]) for v in (i, 0, 0, _PREMISE, np.nan, np.nan)))
            continue
        kept.append(i)
        dists.append(np.linalg.norm(trace.points - x_star[None, :], axis=1))
        t2.append(2.0 * t_norm)
    # clamped as Python ints: max_n and max_l may be any natural
    n_top = min(max_n, steps)
    l_top = min(max_l, steps)
    checked = 0
    if kept and n_top >= 0 and l_top >= 0:
        cols = n_top + 1
        # the last offset checked from row n is min(max_l, steps - n)
        checked = len(kept) * sum(min(l_top, steps - n) + 1 for n in range(cols))
        sol = np.array(kept)
        reach = n_top + l_top  # the last step to offset l_top reads rho[reach - 1]
        live = min(reach, steps)
        dist = np.full((len(kept), reach + 1), -np.inf)
        dist[:, : live + 1] = np.stack(dists)[:, : live + 1]
        lhs_of = sliding_window_view(dist, cols, axis=1)  # [s, l, n] = dist[s, n + l]
        base = dist[:, None, :cols]
        e_base = e_a * base
        t2 = np.array(t2)[:, None, None]
        # past the trace a row keeps its last values: finite, never compared
        rho = np.ones(reach)
        rho[:live] = 1.0 + trace.mus[:live] / trace.lambdas[:live]
        mus = np.zeros(reach)
        mus[:live] = trace.mus[:live]
        height = max(1, _TILE // (len(kept) * cols))
        prod = np.empty((height, cols))
        acc = np.empty((height, cols))
        musum = np.empty((height, cols))
        prod[0], acc[0], musum[0] = 1.0, 0.0, 0.0
        for l in range(l_top + 1):
            j = l % height  # the buffer row of offset l
            if l:
                p = j - 1 if j else height - 1
                step_rho, step_mu = rho[l - 1 : l - 1 + cols], mus[l - 1 : l - 1 + cols]
                np.multiply(prod[p], step_rho, out=prod[j])
                np.multiply(acc[p], step_rho, out=acc[j])
                acc[j] += step_mu
                np.add(musum[p], step_mu, out=musum[j])
            if j < height - 1 and l < l_top:
                continue
            first = l - j  # the buffer holds offsets first..l
            lhs = lhs_of[:, first : l + 1]
            rhs_prod = prod[: j + 1] * base
            rhs_prod += t2 * acc[: j + 1]
            rhs_prod += _SLACK
            rhs_exp = e_base + coef * musum[: j + 1]
            rhs_exp += _SLACK
            for form, rhs in enumerate((rhs_prod, rhs_exp)):
                above = lhs > rhs
                if above.any():
                    s, at, n = np.nonzero(above)
                    of_form = np.full(s.size, form)
                    found.append((sol[s], n, first + at, of_form, lhs[s, at, n], rhs[s, at, n]))
    violations = []
    if found:
        sols, ns, ls, forms, lhss, rhss = (np.concatenate(c) for c in zip(*found))
        for j in np.lexsort((forms, ls, ns, sols))[:50]:
            solution = [float(v) for v in inst.known_solutions[sols[j]]]
            if forms[j] == _PREMISE:
                violations.append(
                    {
                        "form": "premise",
                        "solution": solution,
                        "detail": "T°x* not in Sx*: not an exact solution",
                    }
                )
                continue
            violations.append(
                {
                    "form": _FORMS[forms[j]],
                    "solution": solution,
                    "n": int(ns[j]),
                    "l": int(ls[j]),
                    "lhs": float(lhss[j]),
                    "rhs": float(rhss[j]),
                }
            )
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

    The (n, i) pairs are evaluated in tiles of as many rows n as fit _TILE
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
    height = max(1, _TILE // max(stages * xs.shape[1], 1))
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
    horizon: int,
    *,
    trace: Optional[Trace] = None,
    use_psi_prime: bool = False,
    check_gamma: bool = False,
    cap: int = DEFAULT_CAP,
) -> Certificate:
    """Certify the metastability bound on a concrete run.

    Finds the first metastable window empirically, computes the rate Psi in
    exact big-integer arithmetic, and reports N <= Psi. Optionally also
    evaluates the strengthened rate Psi' and checks that the window consists
    of approximate solutions (membership via canonical Yosida witnesses).
    The certificate's ``phi_search`` provenance is the modulus's own
    ``provenance`` (an ``EmpiricalPhi``), else "analytic".
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
        provenance={"phi_search": getattr(phi_search, "provenance", "analytic")},
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
    s_lo, s_hi = evaluate(inst.S, x_bar)
    zero = np.zeros(inst.dim)
    if in_box(*evaluate(inst.T, x_bar), zero) and in_box(s_lo, s_hi, zero):
        return True
    if isinstance(inst.T, AffinePSD) and inst.T.is_diagonal:
        limit = inst.T.matrix @ x_bar + inst.T.offset
        at_b = yosida(inst.T, float(inst.quant.B), x_bar)
        return in_box(s_lo, s_hi, limit) and in_box(s_lo, s_hi, at_b)
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
    k = 0
    while k <= k_max:
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
        # A residual qualifies at a prefix of the levels, so the row holds
        # until the largest qualifying residual drops out: at most one row is
        # computed per distinct residual, the levels between get copies.
        top = float(np.max(res, where=below, initial=-np.inf))
        end = bisect_left(range(k_max + 1), True, lo=k + 1, key=lambda j: not top < 1.0 / (j + 1))
        raw[k:end] = next_qual
        k = end
    table = monotonize_table(raw)
    stationary_from: Optional[int] = None
    tail = trace.points[-1]
    same = np.all(trace.points == tail[None, :], axis=1)
    if bool(same[-1]):
        # the constant tail starts after the last row that differs from it
        differ = np.flatnonzero(~same)
        first = int(differ[-1]) + 1 if differ.size else 0
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
