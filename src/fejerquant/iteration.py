"""The inertial resolvent iteration and its recorded trajectories.

One step moves x to J^S_mu(x + mu * T_lam(x)), where T_lam is the Yosida
approximant of the first operator and J^S_mu the resolvent of the subtracted
one. Runs are deterministic float64; a Trace stores every iterate together
with the step parameters and the normalized step residuals that all
certificates are built from.
"""

from __future__ import annotations

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
    FejerQuantError,
    HorizonExceeded,
    InvariantViolation,
    NonPositiveParameter,
    ScheduleError,
    SingularSystem,
    UnknownPreset,
)
from .fields import FLOATS, INTEGER, RATIONAL, Field, field, list_of, number, rational, read_form
from .fields import json_of, string, tolist, write_form
from .moduli import ModulusFn, constant
from .operators import (
    NormalConeBox,
    SignedZeroSolve,
    as_point,
    dist_sq_rows,
    domain_contains,
    evaluate,
    least_norm,
    operator_from_json,
    operator_to_json,
    resolvent,
    resolvent_rows,
    row_norms,
    yosida,
)

_MU_FLOOR = 1e-300
# a schedule has at most 2**24 stages: its float64 arrays stay within 128 MiB
_MAX_HORIZON = 2**24
_CLAUSE_TOL = 1e-12
# rows per block of the trace writer: few enough that the block's Python
# floats stay small next to the trace arrays
_JSONL_BLOCK_ROWS = 4096
# windows of up to 16 rows are scanned pairwise: that costs less than the
# pruned scan's set-up, about 0.2 ms
_PAIRWISE_MAX_ROWS = 16
# the pruned scan bounds distances by the boxes of chunks of consecutive rows
_CHUNK_ROWS = 64
# ``_fixed_stages``: its first tile of stages, also the skip below which the
# next check waits for twice as many repeats, and its largest tile
_FIXED_BACKOFF = 64
_FIXED_TILE_CAP = 8192
# the JSON forms of the catalog operators and moduli in a config
_OPERATOR = Field(operator_from_json, operator_to_json)
_MODULUS = Field(ModulusFn.from_json, json_of)


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

    rule = "power"
    json_fields = {"c": Field(rational, lambda c: int(c) if c.denominator == 1 else str(c)),
                   "p": INTEGER}

    c: Fraction
    p: int

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        if self.c <= 0:
            raise ScheduleError("power rule needs c > 0")
        if self.p < 0:
            raise ScheduleError("power rule needs p >= 0")
        # c and (n+1)^p at n = 1 are finite float64s: past p = 1023 every stage
        # n >= 1 would have the value 0
        if self.p > 1023:
            raise ConfigError("p: must be at most 1023")
        try:
            float(self.c)
        except OverflowError:
            raise ConfigError("c: number out of float range") from None

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
        c = float(self.c)
        # stage n has base n + 1, so stages below the largest int64 base fit
        cut = min(n1, max(n0, _int64_max_base(self.p)))
        small = np.arange(n0 + 1, cut + 1, dtype=np.int64) ** self.p
        big = np.array([_float_or_inf((n + 1) ** self.p) for n in range(cut, n1)])
        # an infinite denominator gives the 0.0 of value()'s overflow case
        return c / np.concatenate([small.astype(float), big])

    def value_fraction(self, n: int) -> Fraction:
        return self.c / (n + 1) ** self.p

    def to_json(self) -> dict:
        return {"rule": self.rule, **write_form(self, self.json_fields)}


@dataclass(frozen=True, eq=False)
class TableRule:
    """Explicit per-stage values; indices beyond the table are errors."""

    rule = "table"
    json_fields = {"values": Field(list_of(number), list)}

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
        return {"rule": self.rule, **write_form(self, self.json_fields)}


_RULES = {cls.rule: cls for cls in (PowerRule, TableRule)}


def rule_from_json(obj: dict):
    kind = field(obj, "rule", string)
    if kind not in _RULES:
        raise ScheduleError(f"unknown schedule rule {kind!r}")
    cls = _RULES[kind]
    return cls(**read_form(obj, cls.json_fields, "rule fields", "rule"))


@dataclass(frozen=True)
class ParameterSchedule:
    """Per-stage Yosida parameters lambda_n and step sizes mu_n up to a horizon."""

    json_fields = {"lambda": Field(rule_from_json, json_of, attr="lam_rule"),
                   "mu": Field(rule_from_json, json_of, attr="mu_rule"), "horizon": INTEGER}

    lam_rule: object
    mu_rule: object
    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ScheduleError("horizon must be >= 1")
        # validate_against builds arrays over stages 0..horizon
        if self.horizon > _MAX_HORIZON:
            raise ConfigError(f"horizon: must be at most {_MAX_HORIZON}")
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
        return write_form(self, self.json_fields)

    @classmethod
    def from_json(cls, obj: dict) -> "ParameterSchedule":
        return cls(**read_form(obj, cls.json_fields, "schedule fields"))


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

    json_fields = {"A": RATIONAL, "B": INTEGER, "Bprime": INTEGER, "C": RATIONAL, "M": INTEGER,
                   "L": RATIONAL, "d": INTEGER, "theta": _MODULUS, "xi": _MODULUS,
                   "varpi": _MODULUS, "varpi_hat": Field(ModulusFn.from_json, json_of, None)}

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
        for name in ("A", "B", "Bprime", "C", "L", "M"):
            constant(name, getattr(self, name))

    def validate_against(self, schedule: ParameterSchedule) -> None:
        """Spot-check the certified constants against the stored horizon, and
        the moduli at k = 0..50.

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
        for k in range(51):
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
        return write_form(self, self.json_fields)

    @classmethod
    def from_json(cls, obj: dict) -> "QuantitativeData":
        return cls(**read_form(obj, cls.json_fields, "quantitative-data fields"))


# --------------------------------------------------------------------------
# problem instances and traces
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Two catalog operators, a start point, a schedule, certified constants,
    and (optionally) the known solution set for oracle checks."""

    # the JSON form of a config's problem object
    json_fields = {"T": _OPERATOR, "S": _OPERATOR, "x0": FLOATS,
                   "known_solutions": Field(list_of(FLOATS.read), tolist, ())}

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

    @classmethod
    def from_json(cls, cfg: dict) -> "ProblemInstance":
        """The instance of a config's problem, schedule and quant. A preset name
        stands for the preset's document, whose schedule and quant the config's
        own replace; an inline problem object needs both."""
        problem = cfg.get("problem", DEFAULT_PRESET)
        if isinstance(problem, str):
            if problem not in PRESETS:
                raise UnknownPreset(f"unknown preset {problem!r} (have: {', '.join(PRESETS)})")
            cfg = {**PRESETS[problem], **cfg, "problem": PRESETS[problem]["problem"]}
        elif not isinstance(problem, dict):
            raise ConfigError(f"problem must be a preset name or an object, got {problem!r}")
        elif "schedule" not in cfg or "quant" not in cfg:
            raise ConfigError("inline problems need explicit schedule and quant")
        return cls(
            **field(cfg, "problem", lambda obj: read_form(obj, cls.json_fields, "problem fields")),
            schedule=field(cfg, "schedule", ParameterSchedule.from_json),
            quant=field(cfg, "quant", QuantitativeData.from_json),
        )

    def to_json(self) -> dict:
        """The config form of the instance: its problem object, schedule and quant."""
        schedule, quant = self.schedule.to_json(), self.quant.to_json()
        return {"problem": write_form(self, self.json_fields), "schedule": schedule, "quant": quant}

    def in_search_region(self, x) -> bool:
        """Membership in the ball of radius L around x0 intersected with the
        closure of the domain of S, each to within _CLAUSE_TOL."""
        x = as_point(x, self.dim)
        if float(np.linalg.norm(x - self.x0)) > float(self.quant.L) + _CLAUSE_TOL:
            return False
        return domain_contains(self.S, x, tol=_CLAUSE_TOL)


# the catalog problems with certified quantitative data, as the config
# documents that ProblemInstance.from_json reads
PRESETS = {
    # zeros of Id - d|.|: the difference inclusion has solutions -1, 0, 1
    "dc-abs-1d": {
        "problem": {"T": {"kind": "affine_psd", "matrix": [[1.0]], "offset": [0.0]},
                    "S": {"kind": "subdiff_abs", "dim": 1},
                    "x0": [0.5], "known_solutions": [[-1.0], [0.0], [1.0]]},
        "schedule": {"lambda": {"rule": "power", "c": 1, "p": 1},
                     "mu": {"rule": "power", "c": 1, "p": 3}, "horizon": 100000},
        "quant": {"A": "2", "B": 1, "Bprime": 0, "C": "1", "M": 2, "L": "4", "d": 1,
                  "theta": {"kind": "power_rate", "c": "1", "p": 1},
                  "xi": {"kind": "power_sum_rate", "c": "1", "p": 3},
                  "varpi": {"kind": "identity"}, "varpi_hat": {"kind": "identity"}},
    },
    # T = 2I, S = I: (T - S)x = x, unique zero at the origin
    "affine-affine-nd": {
        "problem": {"T": {"kind": "affine_psd", "matrix": [[2.0, 0.0], [0.0, 2.0]],
                          "offset": [0.0, 0.0]},
                    "S": {"kind": "affine_psd", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                          "offset": [0.0, 0.0]},
                    "x0": [1.0, 1.0], "known_solutions": [[0.0, 0.0]]},
        "schedule": {"lambda": {"rule": "power", "c": 1, "p": 1},
                     "mu": {"rule": "power", "c": 1, "p": 3}, "horizon": 2000},
        "quant": {"A": "2", "B": 1, "Bprime": 0, "C": "1", "M": 11, "L": "2", "d": 2,
                  "theta": {"kind": "power_rate", "c": "1", "p": 1},
                  "xi": {"kind": "power_sum_rate", "c": "1", "p": 3},
                  "varpi": {"kind": "affine", "a": 2, "b": 1},
                  "varpi_hat": {"kind": "affine", "a": 2, "b": 1}},
    },
    # stationarity of x + (-2, 1) over the unit box: solution (0, 1)
    "box-affine-nd": {
        "problem": {"T": {"kind": "affine_psd", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                          "offset": [-2.0, 1.0]},
                    "S": {"kind": "normal_cone_box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
                    "x0": [0.5, 0.5], "known_solutions": [[0.0, 1.0]]},
        "schedule": {"lambda": {"rule": "power", "c": 1, "p": 1},
                     "mu": {"rule": "power", "c": 1, "p": 3}, "horizon": 2000},
        "quant": {"A": "2", "B": 1, "Bprime": 0, "C": "1", "M": 3, "L": "2", "d": 2,
                  "theta": {"kind": "power_rate", "c": "1", "p": 1},
                  "xi": {"kind": "power_sum_rate", "c": "1", "p": 3},
                  "varpi": {"kind": "identity"}},
    },
}
#: the problem of a config that names none
DEFAULT_PRESET = "dc-abs-1d"


def preset(name: str) -> ProblemInstance:
    """A catalog problem instance with certified quantitative data."""
    return ProblemInstance.from_json({"problem": name})


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

    def window_diameter(self, a: int, b: int) -> float:
        """The largest distance between points a..b inclusive: the maximum of
        np.linalg.norm(w[i + 1 :] - w[i], axis=1) over the window's rows i,
        bit for bit. A window of more than 16 points in d > 1 skips the rows
        that provably end no farthest pair (see ``_diameter_scan_order``)."""
        if a < 0 or b > self.steps or a > b:
            raise ValueError(f"bad window [{a}, {b}]")
        w = self.points[a : b + 1]
        if self.dim == 1:
            return float(np.max(w) - np.min(w))
        if w.shape[0] > _PAIRWISE_MAX_ROWS:
            w, limits = _diameter_scan_order(w)
        else:
            limits = [math.inf] * w.shape[0]
        best = 0.0
        for i in range(w.shape[0] - 1):
            if limits[i] <= best:
                break
            best = max(best, float(np.max(np.linalg.norm(w[i + 1 :] - w[i], axis=1))))
        return best

    def to_jsonl(self) -> str:
        """One JSON line per point, as json.dumps(..., sort_keys=True) writes
        it: x_n with lambda_n, mu_n and residual_n, then the last point with
        nulls. Rows are formatted by a fixed template in blocks, one tolist()
        per array per block; repr() is JSON's float text except for inf and
        nan, which are respelled as JSON's Infinity and NaN."""
        x = "[" + ", ".join(["%r"] * self.dim) + "]}\n"
        step = '{"lambda": %r, "mu": %r, "n": %d, "residual": %r, "x": ' + x
        blocks = []
        for s in range(0, self.steps, _JSONL_BLOCK_ROWS):
            e = min(s + _JSONL_BLOCK_ROWS, self.steps)
            rows = zip(
                self.lambdas[s:e].tolist(),
                self.mus[s:e].tolist(),
                range(s, e),
                self.residuals[s:e].tolist(),
                self.points[s:e].tolist(),
            )
            blocks.append("".join([step % (lam, mu, n, r, *p) for lam, mu, n, r, p in rows]))
        last = '{"lambda": null, "mu": null, "n": %d, "residual": null, "x": ' + x
        blocks.append(last % (self.steps, *self.points[self.steps].tolist()))
        text = "".join(blocks)
        arrays = (self.points, self.lambdas, self.mus, self.residuals)
        if not all(np.isfinite(v).all() for v in arrays):
            # no key and no finite float's repr contains "inf" or "nan"
            text = text.replace("inf", "Infinity").replace("nan", "NaN")
        return text


def _diameter_scan_order(w: np.ndarray) -> tuple:
    """The distinct rows of w in descending order of a limit on their
    distances to the other rows, and those limits.

    Once the largest distance found is >= a row's limit, every pair of the
    rows left is within it, so the scan can stop there. Three bounds on the
    exact distances from a row p; the least one counts:
    - the norm of p's far ends in the window's bounding box,
      max(hi_k - p_k, p_k - lo_k) per coordinate;
    - the same over the boxes of chunks of 64 consecutive rows, small where
      the trajectory moves slowly;
    - |p - c| + max_q |q - c|, with c the midpoint of a far pair: on a
      curved path few rows lie near the sphere about c.

    The limit, bound * (1 + (d + 8) 2^-52) + 2^-500, covers rounding. With
    u = 2^-53: a computed distance rounds each difference and square within
    u, a square in the subnormal range within 2^-1075 more, the sum of the
    d squares within (1 +- u)^(d-1) of the exact sum in any order (a float
    sum in the subnormal range is exact) and the square root within u (it
    is never subnormal). So it is within ((1 + u) / (1 - u))^((d + 4) / 2)
    of the exact distance, plus sqrt(d) 2^-537. The box bounds need less,
    since rounding is monotone and each exact difference is at most its
    exact far end. The third bound adds two computed distances, whence the
    2^-500. For d < 2^32 the relative term, with the rounding of the limit
    itself, stays below (d + 8) 2^-52. A computed distance overflows only
    where the exact one is near 2^512 or more, and then every bound is at
    least 2^511: such bounds get an infinite limit.
    """
    d = w.shape[1]
    # drop repeated rows, keeping the rest in trace order
    order = np.lexsort(w.T)
    fresh = np.ones(order.shape[0], dtype=bool)
    np.any(w[order[1:]] != w[order[:-1]], axis=1, out=fresh[1:])
    w = w[np.sort(order[fresh])]
    m = w.shape[0]
    box = np.linalg.norm(np.maximum(w - np.min(w, axis=0), np.max(w, axis=0) - w), axis=1)
    pad = np.concatenate([w, np.repeat(w[-1:], -m % _CHUNK_ROWS, axis=0)])
    pad = pad.reshape(-1, _CHUNK_ROWS, d)
    lo, hi = np.min(pad, axis=1), np.max(pad, axis=1)
    chunk = [np.max(np.linalg.norm(np.maximum(hi - l, h - lo), axis=1)) for l, h in zip(lo, hi)]
    bounds = np.minimum(box, np.repeat(chunk, _CHUNK_ROWS)[:m])
    p = w[np.argmax(bounds)]
    c = p / 2.0 + w[np.argmax(np.linalg.norm(w - p, axis=1))] / 2.0
    to_c = np.linalg.norm(w - c, axis=1)
    bounds = np.minimum(bounds, to_c + np.max(to_c))
    limits = np.where(bounds < 2.0**511, bounds * (1.0 + (d + 8) * 2.0**-52) + 2.0**-500, np.inf)
    order = np.argsort(-limits)
    return w[order], limits[order].tolist()


# --------------------------------------------------------------------------
# stepping
# --------------------------------------------------------------------------


def run(inst: ProblemInstance, n_steps: int, validate_l: bool = True) -> Trace:
    """Run the iteration for n_steps stages and record the trace.

    A separable instance, where T and S act on each coordinate on its own
    (see ``coordinate`` in operators), steps one coordinate at a time on
    floats through the scalar forms, which round exactly like the row forms.
    Every other instance steps on one-row arrays through ``resolvent`` and
    ``yosida``. So does a d > 1 run whose coordinate loops stop on an error,
    since the first error of one coordinate need not be the run's first, or
    on a signed-zero solve (``SignedZeroSolve``). The residuals are computed
    after the loop, by the kernel of the per-step ``np.linalg.norm``.
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
    pts = _run_points(inst, lams[:stop], mus[:stop])
    if not np.all(np.isfinite(pts[-1])):
        raise DomainError(f"iterate at stage {stop} is not finite")
    if stop < n_steps:
        raise NonPositiveParameter(
            f"stage {stop} has lambda={float(lams[stop])!r}, mu={float(mus[stop])!r}; "
            "both must be > 0"
        )
    res = row_norms(pts[:-1] - pts[1:])
    trace = Trace(pts, lams, mus, np.divide(res, mus, out=res))
    if validate_l and n_steps > 0:
        _check_diameter(inst, trace)
    return trace


def _run_points(inst: ProblemInstance, lams: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """The iterates x_0..x_N, by coordinate where the instance is separable."""
    coords = [(inst.T.coordinate(j), inst.S.coordinate(j)) for j in range(inst.dim)]
    if all(t is not None and s is not None for t, s in coords):
        steps = memoryview(lams), memoryview(mus)
        try:
            cols = [_run_1d(t, s, float(x), *steps) for (t, s), x in zip(coords, inst.x0)]
            return np.stack(cols, axis=1)
        except (FejerQuantError, SignedZeroSolve):
            if inst.dim == 1:
                raise
    return _run_rows(inst, lams, mus)


def _run_1d(T, S, x: float, lams, mus) -> np.ndarray:
    """The iterates x_0..x_N of one coordinate, stepped on floats through
    the 1-D operators T and S. A repeated iterate is fast-forwarded through
    the stages that fix it (``_fixed_stages``)."""
    yosida_t = T.yosida1
    resolvent_s = S.resolvent1
    isfinite = math.isfinite
    pts = array("d", [x])
    append = pts.append
    n, repeats, need = 0, 0, 1
    while True:
        for lam, mu in zip(lams[n:], mus[n:]):
            shifted = x + mu * yosida_t(lam, x)
            if not isfinite(shifted):
                raise DomainError("points must have finite coordinates")
            prev, x = x, resolvent_s(mu, shifted)
            append(x)
            if x == prev:
                repeats += 1
                if repeats == need:
                    break
        else:
            return np.frombuffer(pts)
        n = len(pts) - 1
        skip = _fixed_stages(T, S, x, lams[n:], mus[n:])
        pts.extend(array("d", [x]) * skip)
        n += skip
        repeats = 0
        if skip < _FIXED_BACKOFF:
            need *= 2


def _run_rows(inst: ProblemInstance, lams: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """The iterates x_0..x_N, stepped on one-row arrays."""
    pts = np.empty((len(lams) + 1, inst.dim))
    x = pts[0] = inst.x0
    for n, (lam, mu) in enumerate(zip(lams.tolist(), mus.tolist())):
        x = pts[n + 1] = resolvent(inst.S, mu, x + mu * yosida(inst.T, lam, x))
    return pts


def _fixed_stages(T, S, x: float, lams, mus) -> int:
    """How many of the leading stages fix the float x bit for bit.

    Stage m fixes x when x + mu_m T_{lam_m}(x) is finite and its resolvent
    under S at mu_m is x, signed zeros included. The stage maps of the 1-D
    operators T and S are evaluated in one row-form call per tile of
    stages; row i of a row form equals the scalar form bit for bit, so by
    induction the iterates through the counted stages all equal x. A tile
    whose row forms raise (a singular solve, a -0.0 numerator of a
    coordinate solve) ends the count at its first stage: the stepper then
    meets the error itself. Tiles start at 64 stages and double up to 8,192.
    """
    lams, mus = np.asarray(lams), np.asarray(mus)
    sign = np.signbit(x)
    done, tile = 0, _FIXED_BACKOFF
    with np.errstate(all="ignore"):  # an overflow ends the run, it is not reported
        while done < len(lams):
            lam, mu = lams[done : done + tile], mus[done : done + tile]
            xs = np.broadcast_to(x, (len(lam), 1))
            try:
                shifted = xs + mu[:, None] * T.yosida_rows(lam, xs)
                finite = np.isfinite(shifted[:, 0])
                end = len(lam) if finite.all() else int(np.argmin(finite))
                moved = S.resolvent_rows(mu[:end], shifted[:end])[:, 0]
            except (SingularSystem, SignedZeroSolve):
                return done
            same = (moved == x) & (np.signbit(moved) == sign)
            run = end if same.all() else int(np.argmin(same))
            done += run
            if run < len(lam):
                return done
            tile = min(2 * tile, _FIXED_TILE_CAP)
    return done


def _check_diameter(inst: ProblemInstance, trace: Trace) -> None:
    """Compare the realized trajectory diameter, exact in every dimension,
    with the certified L. The bounding-box diagonal bounds the diameter from
    above, so a trajectory whose box is within L needs no scan."""
    limit = float(inst.quant.L) + 1e-12
    pts = trace.points
    if float(np.linalg.norm(np.max(pts, axis=0) - np.min(pts, axis=0))) <= limit:
        return
    diameter = trace.window_diameter(0, trace.steps)
    if diameter > limit:
        raise InvariantViolation(
            f"realized trajectory diameter {diameter:.6g} exceeds certified L={inst.quant.L}"
        )


# --------------------------------------------------------------------------
# stratified approximate-solution membership
# --------------------------------------------------------------------------


def gamma_k_check(inst: ProblemInstance, x, k: int, y) -> bool:
    """Membership of x in the k-th approximate solution stratum with witness y.

    Three clauses, each with additive tolerance _CLAUSE_TOL:
    (i)  the witness norm matches the minimal selection norm of T to 1/(k+1);
    (ii) the witness lies within 1/(k+1) of the value set T(x) (squared
         distance against squared bound, exact per coordinate);
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
    eps = 1.0 / (k + 1) + _CLAUSE_TOL
    lo, hi = evaluate(inst.T, x)
    if abs(float(np.linalg.norm(y)) - float(np.linalg.norm(least_norm(lo, hi)))) > eps:
        return False
    if not dist_sq_rows(lo[None], hi[None], y[None])[0] <= eps * eps:
        return False
    mus = inst.schedule.mus(0, k + 1)
    shifted = x[None, :] + mus[:, None] * y[None, :]
    moved = resolvent_rows(inst.S, mus, shifted)
    dists = np.linalg.norm(moved - x[None, :], axis=1)
    return bool(np.all(dists <= eps))
