"""The inertial resolvent iteration and its recorded trajectories.

One step moves x to J^S_mu(x + mu * T_lam(x)), where T_lam is the Yosida
approximant of the first operator and J^S_mu the resolvent of the subtracted
one. Runs are deterministic float64; a Trace stores every iterate together
with the step parameters and the normalized step residuals that all
certificates are built from.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    HorizonExceeded,
    InvariantViolation,
    MissingSolutions,
    NonPositiveParameter,
    ScheduleError,
)
from .moduli import ModulusFn
from .operators import (
    NormalConeBox,
    ValueSet,
    as_point,
    domain_contains,
    evaluate,
    hstar_check,
    minimal_selection,
    resolvent,
    yosida,
)

_MU_FLOOR = 1e-300
_RESIDUAL_RECOMPUTE_TOL = 1e-12
_CLAUSE_TOL = 1e-12
_EXACT_DIAMETER_MAX_STEPS = 20000


# --------------------------------------------------------------------------
# parameter schedules
# --------------------------------------------------------------------------


def _int64_max_base(p: int) -> int:
    """The largest base m with m**p < 2**63, so bases up to m power exactly in int64."""
    if p == 0:
        return 2**63 - 1
    m = int(2 ** (63 / p))
    while m**p >= 2**63:
        m -= 1
    while (m + 1) ** p < 2**63:
        m += 1
    return m


def _float_or_inf(i: int) -> float:
    try:
        return float(i)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PowerRule:
    """n -> c / (n+1)^p with rational c > 0 and integer p >= 0."""

    c: Fraction
    p: int

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        if self.c <= 0:
            raise ScheduleError("power rule needs c > 0")
        if self.p < 0:
            raise ScheduleError("power rule needs p >= 0")

    def value(self, n: int) -> float:
        try:
            return float(self.c) / float((n + 1) ** self.p)
        except OverflowError:
            # denominator beyond float range: the value has underflowed
            return 0.0

    def value_array(self, n0: int, n1: int) -> np.ndarray:
        """value(n) for n0 <= n < n1, bit for bit.

        The powers (n+1)^p are exact integers rounded once to float, as in
        value(): int64 while below 2^63, Python ints beyond. A float power
        would round differently.
        """
        try:
            c = float(self.c)
        except OverflowError:
            return np.zeros(n1 - n0)
        # stage n has base n + 1, so stages below the largest int64 base fit
        cut = min(n1, max(n0, _int64_max_base(self.p)))
        small = np.arange(n0 + 1, cut + 1, dtype=np.int64) ** self.p
        big = np.array([_float_or_inf((n + 1) ** self.p) for n in range(cut, n1)])
        # an infinite denominator gives the 0.0 of value()'s overflow case
        return c / np.concatenate([small.astype(float), big])

    def value_fraction(self, n: int) -> Fraction:
        return self.c / (n + 1) ** self.p

    def to_json(self) -> dict:
        c = self.c
        return {"rule": "power", "c": int(c) if c.denominator == 1 else str(c), "p": self.p}


@dataclass(frozen=True, eq=False)
class TableRule:
    """Explicit per-stage values; indices beyond the table are errors."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ScheduleError("table rule needs at least one value")
        if any(not v > 0 for v in vals):
            raise ScheduleError("schedule values must be > 0")

    def value(self, n: int) -> float:
        if n >= len(self.values):
            raise HorizonExceeded(f"stage {n} beyond table of length {len(self.values)}")
        return self.values[n]

    def value_array(self, n0: int, n1: int) -> np.ndarray:
        """value(n) for n0 <= n < n1."""
        if n1 > len(self.values):
            raise HorizonExceeded(f"stage {n1 - 1} beyond table of length {len(self.values)}")
        return np.array(self.values[n0:n1], dtype=float)

    def value_fraction(self, n: int) -> Fraction:
        return Fraction(self.value(n))

    def to_json(self) -> dict:
        return {"rule": "table", "values": list(self.values)}


def rule_from_json(obj: dict):
    if not isinstance(obj, dict) or "rule" not in obj:
        raise ScheduleError(f"not a serialized schedule rule: {obj!r}")
    kind = obj["rule"]
    if kind == "power":
        extra = set(obj) - {"rule", "c", "p"}
        if extra:
            raise ScheduleError(f"unknown rule fields {sorted(extra)}")
        return PowerRule(Fraction(str(obj["c"])), int(obj["p"]))
    if kind == "table":
        extra = set(obj) - {"rule", "values"}
        if extra:
            raise ScheduleError(f"unknown rule fields {sorted(extra)}")
        return TableRule(tuple(obj["values"]))
    raise ScheduleError(f"unknown schedule rule {kind!r}")


@dataclass(frozen=True)
class ParameterSchedule:
    """Per-stage Yosida parameters lambda_n and step sizes mu_n up to a horizon."""

    lam_rule: object
    mu_rule: object
    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ScheduleError("horizon must be >= 1")
        # positivity is checked by the rules; the underflow guard needs the
        # minimum over stages 0..horizon, which power rules attain at the end
        for rule in (self.lam_rule, self.mu_rule):
            if isinstance(rule, TableRule) and len(rule.values) < self.horizon + 1:
                raise ScheduleError("table rule shorter than the horizon")
        if isinstance(self.mu_rule, PowerRule):
            if self.mu_rule.value(self.horizon) < _MU_FLOOR:
                raise ScheduleError("mu underflows 1e-300 within the horizon")
        else:
            if min(self.mu_rule.values[: self.horizon + 1]) < _MU_FLOOR:
                raise ScheduleError("mu underflows 1e-300 within the horizon")

    def lam(self, n: int) -> float:
        self._check(n)
        return self.lam_rule.value(n)

    def mu(self, n: int) -> float:
        self._check(n)
        return self.mu_rule.value(n)

    def mu_fraction(self, n: int) -> Fraction:
        self._check(n)
        return self.mu_rule.value_fraction(n)

    def lams(self, n0: int, n1: int) -> np.ndarray:
        """lam(n) for the stages n0 <= n < n1."""
        self._check_range(n0, n1)
        return self.lam_rule.value_array(n0, n1)

    def mus(self, n0: int, n1: int) -> np.ndarray:
        """mu(n) for the stages n0 <= n < n1."""
        self._check_range(n0, n1)
        return self.mu_rule.value_array(n0, n1)

    def _check(self, n: int):
        if n < 0:
            raise ValueError("stage indices are naturals")
        if n > self.horizon:
            raise HorizonExceeded(f"stage {n} beyond horizon {self.horizon}")

    def _check_range(self, n0: int, n1: int):
        if n1 < n0:
            raise ValueError(f"bad stage range [{n0}, {n1})")
        if n1 > n0:
            self._check(n0)
            self._check(n1 - 1)

    def to_json(self) -> dict:
        return {
            "lambda": self.lam_rule.to_json(),
            "mu": self.mu_rule.to_json(),
            "horizon": self.horizon,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ParameterSchedule":
        keys = {"lambda", "mu", "horizon"}
        extra = set(obj) - keys
        if extra:
            raise ScheduleError(f"unknown schedule fields {sorted(extra)}")
        missing = keys - set(obj)
        if missing:
            raise ScheduleError(f"missing schedule fields {sorted(missing)}")
        return cls(
            rule_from_json(obj["lambda"]),
            rule_from_json(obj["mu"]),
            int(obj["horizon"]),
        )


def theta_from_rule(rule) -> ModulusFn:
    """Convergence rate of a power rule toward 0, exact."""
    if not isinstance(rule, PowerRule) or rule.p < 1:
        raise ScheduleError("a closed-form rate needs a decaying power rule")
    return ModulusFn.power_rate(rule.c, rule.p)


def xi_from_rule(rule) -> ModulusFn:
    """Cauchy rate for the partial sums of a power rule, exact (needs p >= 2)."""
    if not isinstance(rule, PowerRule):
        raise ScheduleError("a closed-form Cauchy rate needs a power rule")
    return ModulusFn.power_sum_rate(rule.c, rule.p)


# --------------------------------------------------------------------------
# certified constants
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantitativeData:
    """User-certified constants and moduli for one problem instance.

    A >= sum mu_n/lambda_n;  B >= sup lambda_n and B >= mu_0;
    mu_0 >= 2^-Bprime;  C >= sup mu_n and C >= sup |mu_n - mu_m|;
    M >= sup of the minimal selection norm of T over the search region;
    L >= diameter of the trajectory; d is the ambient dimension.
    theta: rate of lambda_n -> 0; xi: Cauchy rate of sum mu_n;
    varpi (and optional varpi_hat): monotone continuity moduli for T (and S).
    """

    A: Fraction
    B: int
    Bprime: int
    C: Fraction
    M: int
    L: Fraction
    d: int
    theta: ModulusFn
    xi: ModulusFn
    varpi: ModulusFn
    varpi_hat: Optional[ModulusFn] = None

    def __post_init__(self):
        object.__setattr__(self, "A", Fraction(self.A))
        object.__setattr__(self, "C", Fraction(self.C))
        object.__setattr__(self, "L", Fraction(self.L))
        for name in ("B", "Bprime", "M", "d"):
            v = Fraction(getattr(self, name))
            if v.denominator != 1:
                raise InvariantViolation(f"{name} must be a natural number, got {v}")
            object.__setattr__(self, name, int(v))
        if self.A < 0 or self.C < 1 or self.L < 0:
            raise InvariantViolation("constants A >= 0, C >= 1, L >= 0 required")
        if self.B < 1 or self.M < 1 or self.d < 1 or self.Bprime < 0:
            raise InvariantViolation("constants B, M >= 1, d >= 1, Bprime >= 0 required")

    def validate_against(self, schedule: ParameterSchedule, spot_k: int = 50) -> None:
        """Spot-check the certified constants against the stored horizon.

        These are necessary-condition checks on the realized finite schedule;
        certification of the full-sum constants remains the caller's claim.
        """
        h = schedule.horizon
        lams = schedule.lams(0, h + 1)
        mus = schedule.mus(0, h + 1)
        if float(np.sum(mus / lams)) > float(self.A) + 1e-9:
            raise InvariantViolation("partial sums of mu/lambda exceed A on the horizon")
        if float(np.max(lams)) > self.B + 1e-12 or mus[0] > self.B + 1e-12:
            raise InvariantViolation("B does not dominate sup lambda and mu_0")
        if mus[0] < 2.0 ** (-self.Bprime) - 1e-12:
            raise InvariantViolation("mu_0 < 2^-Bprime")
        if float(np.max(mus)) > float(self.C) + 1e-12:
            raise InvariantViolation("C does not dominate sup mu")
        if float(np.max(mus) - np.min(mus)) > float(self.C) + 1e-12:
            raise InvariantViolation("C does not dominate the spread of mu")
        suffix = np.concatenate([np.cumsum(mus[::-1])[::-1], [0.0]])
        running_max = np.maximum.accumulate(lams[::-1])[::-1]
        prev = -1
        for k in range(spot_k + 1):
            t = self.theta(k)
            if t <= h and running_max[t] > 1.0 / (k + 1) + 1e-12:
                raise InvariantViolation(f"theta({k}) misses the lambda rate")
            x = self.xi(k)
            if x <= h and suffix[x] >= 1.0 / (k + 1):
                raise InvariantViolation(f"xi({k}) misses the Cauchy rate on the horizon")
            w = self.varpi(k)
            if w < prev:
                raise InvariantViolation("varpi must be monotone nondecreasing")
            prev = w

    def to_json(self) -> dict:
        out = {
            "A": str(self.A),
            "B": self.B,
            "Bprime": self.Bprime,
            "C": str(self.C),
            "M": self.M,
            "L": str(self.L),
            "d": self.d,
            "theta": self.theta.to_json(),
            "xi": self.xi.to_json(),
            "varpi": self.varpi.to_json(),
        }
        if self.varpi_hat is not None:
            out["varpi_hat"] = self.varpi_hat.to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "QuantitativeData":
        known = {"A", "B", "Bprime", "C", "M", "L", "d", "theta", "xi", "varpi", "varpi_hat"}
        extra = set(obj) - known
        if extra:
            raise ConfigError(f"unknown quantitative-data fields {sorted(extra)}")
        missing = known - {"varpi_hat"} - set(obj)
        if missing:
            raise ConfigError(f"missing quantitative-data fields {sorted(missing)}")
        vh = obj.get("varpi_hat")
        return cls(
            A=Fraction(str(obj["A"])),
            B=int(obj["B"]),
            Bprime=int(obj["Bprime"]),
            C=Fraction(str(obj["C"])),
            M=int(obj["M"]),
            L=Fraction(str(obj["L"])),
            d=int(obj["d"]),
            theta=ModulusFn.from_json(obj["theta"]),
            xi=ModulusFn.from_json(obj["xi"]),
            varpi=ModulusFn.from_json(obj["varpi"]),
            varpi_hat=None if vh is None else ModulusFn.from_json(vh),
        )


# --------------------------------------------------------------------------
# problem instances and traces
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Two catalog operators, a start point, a schedule, certified constants,
    and (optionally) the known solution set for oracle checks."""

    T: object
    S: object
    x0: np.ndarray
    schedule: ParameterSchedule
    quant: QuantitativeData
    known_solutions: tuple = ()

    def __post_init__(self):
        x0 = as_point(self.x0)
        object.__setattr__(self, "x0", x0)
        sols = tuple(as_point(s, x0.shape[0]) for s in self.known_solutions)
        object.__setattr__(self, "known_solutions", sols)
        d = self.S.dim
        if self.T.dim != d or x0.shape[0] != d or self.quant.d != d:
            raise DimensionMismatch("operators, start point and constants disagree on d")
        if isinstance(self.T, NormalConeBox):
            # structural dom S subset dom T check: S must confine iterates to T's box
            if not (
                isinstance(self.S, NormalConeBox)
                and np.all(self.S.lo >= self.T.lo)
                and np.all(self.S.hi <= self.T.hi)
            ):
                raise DomainError("domain of S must be contained in domain of T")
        if not domain_contains(self.S, x0):
            raise DomainError("start point outside the domain of S")

    @property
    def dim(self) -> int:
        return self.x0.shape[0]

    def in_search_region(self, x, tol: float = _CLAUSE_TOL) -> bool:
        """Membership in the ball of radius L around x0 intersected with the
        closure of the domain of S."""
        x = as_point(x, self.dim)
        if float(np.linalg.norm(x - self.x0)) > float(self.quant.L) + tol:
            return False
        return domain_contains(self.S, x, tol=tol)


@dataclass(frozen=True, eq=False)
class Trace:
    """A recorded run: iterates x_0..x_N, stage parameters, step residuals.

    residuals[n] = ||x_n - x_{n+1}|| / mu_n, the quantity every certificate
    searches; it is recomputable from the stored data to 1e-12.
    """

    points: np.ndarray
    lambdas: np.ndarray
    mus: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        for name in ("lambdas", "mus", "residuals"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = pts.shape[0] - 1
        if self.lambdas.shape[0] != n or self.mus.shape[0] != n or self.residuals.shape[0] != n:
            raise DimensionMismatch("trace arrays disagree on the number of steps")

    @property
    def steps(self) -> int:
        return self.points.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def validate_residuals(self) -> None:
        if self.steps == 0:
            return
        diffs = np.linalg.norm(self.points[:-1] - self.points[1:], axis=1)
        recomputed = diffs / self.mus
        if float(np.max(np.abs(recomputed - self.residuals), initial=0.0)) > _RESIDUAL_RECOMPUTE_TOL:
            raise InvariantViolation("stored residuals do not match recomputation")

    def window_diameter(self, a: int, b: int) -> float:
        """Exact max pairwise distance over points a..b inclusive."""
        if a < 0 or b > self.steps or a > b:
            raise ValueError(f"bad window [{a}, {b}]")
        w = self.points[a : b + 1]
        if self.dim == 1:
            return float(np.max(w) - np.min(w))
        best = 0.0
        for i in range(w.shape[0] - 1):
            d = np.linalg.norm(w[i + 1 :] - w[i], axis=1)
            best = max(best, float(np.max(d)))
        return best

    def to_jsonl(self) -> str:
        lines = []
        for n in range(self.steps):
            lines.append(
                json.dumps(
                    {
                        "n": n,
                        "x": [float(v) for v in self.points[n]],
                        "lambda": float(self.lambdas[n]),
                        "mu": float(self.mus[n]),
                        "residual": float(self.residuals[n]),
                    },
                    sort_keys=True,
                )
            )
        lines.append(
            json.dumps(
                {
                    "n": self.steps,
                    "x": [float(v) for v in self.points[self.steps]],
                    "lambda": None,
                    "mu": None,
                    "residual": None,
                },
                sort_keys=True,
            )
        )
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# stepping
# --------------------------------------------------------------------------


def run(inst: ProblemInstance, n_steps: int, validate_l: bool = True) -> Trace:
    """Run the iteration for n_steps stages and record the trace.

    In one dimension the stages step on plain floats through the operators'
    scalar forms, which round exactly like the array formulas of
    ``resolvent`` and ``yosida``; higher dimensions step on arrays.
    """
    if n_steps < 0:
        raise ValueError("step count must be >= 0")
    if n_steps > inst.schedule.horizon:
        raise HorizonExceeded(
            f"{n_steps} steps requested beyond horizon {inst.schedule.horizon}"
        )
    lams = inst.schedule.lams(0, n_steps)
    mus = inst.schedule.mus(0, n_steps)
    # stepping stops before the first non-positive parameter (a lambda that
    # underflowed) and raises there, after any error of the earlier stages
    positive = (lams > 0) & (mus > 0)
    stop = n_steps if positive.all() else int(np.argmin(positive))
    stepper = _run_1d if inst.dim == 1 else _run_nd
    pts, res = stepper(inst, memoryview(lams[:stop]), memoryview(mus[:stop]))
    if not np.all(np.isfinite(pts[-1])):
        raise DomainError(f"iterate at stage {stop} is not finite")
    if stop < n_steps:
        raise NonPositiveParameter(
            f"stage {stop} has lambda={float(lams[stop])!r}, mu={float(mus[stop])!r}; "
            "both must be > 0"
        )
    trace = Trace(pts, lams, mus, res)
    if validate_l and n_steps > 0:
        _check_diameter(inst, trace)
    return trace


def _run_1d(inst: ProblemInstance, lams, mus):
    yosida_t = inst.T.yosida1
    resolvent_s = inst.S.resolvent1
    isfinite, sqrt = math.isfinite, math.sqrt
    x = float(inst.x0[0])
    pts = array("d", [x])
    res = array("d")
    for lam, mu in zip(lams, mus):
        shifted = x + mu * yosida_t(lam, x)
        if not isfinite(shifted):
            raise DomainError("points must have finite coordinates")
        nxt = resolvent_s(mu, shifted)
        dx = x - nxt
        # sqrt(dx*dx) is np.linalg.norm's arithmetic, under- and overflow included
        res.append(sqrt(dx * dx) / mu)
        pts.append(nxt)
        x = nxt
    return np.frombuffer(pts).reshape(-1, 1), np.frombuffer(res)


def _run_nd(inst: ProblemInstance, lams, mus):
    pts = np.empty((len(lams) + 1, inst.dim))
    res = np.empty(len(lams))
    x = inst.x0.copy()
    pts[0] = x
    for n, (lam, mu) in enumerate(zip(lams, mus)):
        nxt = resolvent(inst.S, mu, x + mu * yosida(inst.T, lam, x))
        res[n] = float(np.linalg.norm(x - nxt)) / mu
        pts[n + 1] = nxt
        x = nxt
    return pts, res


def _check_diameter(inst: ProblemInstance, trace: Trace) -> None:
    """Compare the trajectory diameter with the certified L.

    The bounding-box diagonal bounds the diameter from above and is exact in
    one dimension. In higher dimensions the exact diameter replaces it when
    the trace is short enough for the pairwise scan.
    """
    limit = float(inst.quant.L) + 1e-12
    pts = trace.points
    diag = float(np.linalg.norm(np.max(pts, axis=0) - np.min(pts, axis=0)))
    if diag <= limit:
        return
    if trace.dim == 1 or trace.steps <= _EXACT_DIAMETER_MAX_STEPS:
        what = "realized trajectory diameter"
        value = diag if trace.dim == 1 else trace.window_diameter(0, trace.steps)
    else:
        what = (
            "bounding-box diagonal, an upper bound on the trajectory diameter "
            f"(not computed exactly beyond {_EXACT_DIAMETER_MAX_STEPS} steps),"
        )
        value = diag
    if value > limit:
        raise InvariantViolation(f"{what} {value:.6g} exceeds certified L={inst.quant.L}")


# --------------------------------------------------------------------------
# stratified approximate-solution membership
# --------------------------------------------------------------------------


def gamma_witness(inst: ProblemInstance, x, lam: float) -> np.ndarray:
    """Canonical membership witness: the Yosida approximant of T at x."""
    return yosida(inst.T, lam, x)


def gamma_k_check(inst: ProblemInstance, x, k: int, y, tol: float = _CLAUSE_TOL) -> bool:
    """Membership of x in the k-th approximate solution stratum with witness y.

    Three clauses, each with additive tolerance ``tol``:
    (i)  the witness norm matches the minimal selection norm of T to 1/(k+1);
    (ii) the witness lies within 1/(k+1) of the value set T(x) (one-sided
         Hausdorff excess of the singleton);
    (iii) for every stage i <= k, x moves by at most 1/(k+1) under the stage-i
          resolvent step driven by y.
    """
    x = as_point(x, inst.dim)
    y = as_point(y, inst.dim)
    if k < 0:
        raise ValueError("stratum index is a natural")
    if not inst.in_search_region(x):
        raise DomainError("point outside the search region (L-ball and domain of S)")
    if k > inst.schedule.horizon:
        raise HorizonExceeded(f"stratum {k} needs stages beyond the horizon")
    bound = 1.0 / (k + 1)
    t_min = minimal_selection(inst.T, x)
    if abs(float(np.linalg.norm(y)) - float(np.linalg.norm(t_min))) > bound + tol:
        return False
    if not hstar_check(ValueSet.singleton(y), evaluate(inst.T, x), bound + tol):
        return False
    mus = inst.schedule.mus(0, k + 1)
    shifted = x[None, :] + mus[:, None] * y[None, :]
    moved = resolvent_batch_points(inst.S, mus, shifted)
    dists = np.linalg.norm(moved - x[None, :], axis=1)
    return bool(np.all(dists <= bound + tol))


def resolvent_batch_points(op, lams: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Resolvents of many points at matching parameters, shape (m, d)."""
    from .operators import (  # local import keeps the catalog dispatch in one place
        AffinePSD,
        SubdiffAbsSum,
        ZeroOperator,
    )

    lams = np.asarray(lams, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if isinstance(op, SubdiffAbsSum):
        return np.sign(xs) * np.maximum(np.abs(xs) - lams[:, None], 0.0)
    if isinstance(op, NormalConeBox):
        return np.minimum(np.maximum(xs, op.lo), op.hi)
    if isinstance(op, ZeroOperator):
        return xs.copy()
    if isinstance(op, AffinePSD):
        return np.stack(
            [resolvent(op, float(l), xs[i]) for i, l in enumerate(lams)]
        )
    raise TypeError(f"unknown operator {op!r}")


def nearest_known_solution_distance(inst: ProblemInstance, x) -> float:
    if not inst.known_solutions:
        raise MissingSolutions("instance has no known solutions")
    x = as_point(x, inst.dim)
    return min(float(np.linalg.norm(x - s)) for s in inst.known_solutions)
