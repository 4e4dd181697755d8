"""The inertial resolvent iteration and its recorded trajectories.

One step moves x to J^S_mu(x + mu * T_lam(x)), where T_lam is the Yosida
approximant of the first operator and J^S_mu the resolvent of the subtracted
one. Runs are deterministic float64; a Trace stores every iterate together
with the step parameters and the normalized step residuals that all
certificates are built from.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    HorizonExceeded,
    InvariantViolation,
    NonPositiveParameter,
    ScheduleError,
    SingularSystem,
    UnknownPreset,
)
from .fields import FLOATS, INTEGER, RATIONAL, Field, Record, field, list_of, number, rational
from .fields import json_of, read_form, string, tolist, write_form
from .moduli import ModulusFn, constant
from .operators import (
    as_point,
    dist_sq_rows,
    domain_contains,
    evaluate,
    least_norm,
    operator_from_json,
    operator_to_json,
    resolvent_rows,
    row_norms,
)

_MU_FLOOR = 1e-300
# a schedule has at most 2**24 stages: this caps the time validate_against
# takes to read them and the size of run's arrays (128 MiB per float64 array)
_MAX_HORIZON = 2**24
# validate_against reads the schedule in pieces of at most this many stages,
# so each float64 temporary stays within 64 KB
_PIECE = 8192
_CLAUSE_TOL = 1e-12
# rows per block of the trace writer: few enough that the block's Python
# floats stay small next to the trace arrays
_JSONL_BLOCK_ROWS = 4096
# the pruned scan bounds distances by the boxes of chunks of consecutive rows
_CHUNK_ROWS = 64
# ``_fixed_stages``: its first tile of stages, also the skip below which the
# next check waits for twice as many repeats, and its largest tile in d = 1
# (8,192 // d^2 stages in d dimensions)
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


def _check_stages(n0: int, n1: int) -> None:
    """Stage ranges n0 <= n < n1 are ranges of naturals."""
    if n0 < 0:
        raise ValueError("stage indices are naturals")
    if n1 < n0:
        raise ValueError(f"bad stage range [{n0}, {n1})")


class PowerRule(Record, eq=True):
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

    def value_array(self, n0: int, n1: int) -> np.ndarray:
        """The float values c / (n+1)^p of the stages n0 <= n < n1.

        The powers (n+1)^p are exact integers rounded once to float: int64
        while below 2^63, Python ints beyond. A float power would round
        differently.
        """
        _check_stages(n0, n1)
        c = float(self.c)
        # stage n has base n + 1, so stages below the largest int64 base fit
        cut = min(n1, max(n0, _int64_max_base(self.p)))
        small = np.arange(n0 + 1, cut + 1, dtype=np.int64)
        x = np.power(small, self.p, out=small).astype(float)
        if cut < n1:
            big = [_float_or_inf((n + 1) ** self.p) for n in range(cut, n1)]
            x = np.concatenate([x, big])
        # a denominator beyond float range is infinite: the value underflows to 0.0
        return np.divide(c, x, out=x)

    def value_fraction(self, n: int) -> Fraction:
        _check_stages(n, n + 1)
        return self.c / (n + 1) ** self.p

    def to_json(self) -> dict:
        return {"rule": self.rule, **write_form(self, self.json_fields)}


class TableRule(Record):
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

    def value_array(self, n0: int, n1: int) -> np.ndarray:
        """The values of the stages n0 <= n < n1."""
        _check_stages(n0, n1)
        if n1 > len(self.values):
            raise HorizonExceeded(f"stage {n1 - 1} beyond table of length {len(self.values)}")
        return np.array(self.values[n0:n1], dtype=float)

    def value_fraction(self, n: int) -> Fraction:
        return Fraction(self.value_array(n, n + 1)[0])

    def to_json(self) -> dict:
        return {"rule": self.rule, **write_form(self, self.json_fields)}


_RULES = {cls.rule: cls for cls in (PowerRule, TableRule)}


def rule_from_json(obj: dict):
    kind = field(obj, "rule", string)
    if kind not in _RULES:
        raise ScheduleError(f"unknown schedule rule {kind!r}")
    cls = _RULES[kind]
    return cls(**read_form(obj, cls.json_fields, "rule fields", "rule"))


class ParameterSchedule(Record, eq=True):
    """Per-stage Yosida parameters lambda_n and step sizes mu_n up to a horizon."""

    json_fields = {"lambda": Field(rule_from_json, json_of, attr="lam_rule"),
                   "mu": Field(rule_from_json, json_of, attr="mu_rule"), "horizon": INTEGER}

    lam_rule: object
    mu_rule: object
    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ScheduleError("horizon must be >= 1")
        # bounds validate_against's reading time and run's arrays
        if self.horizon > _MAX_HORIZON:
            raise ConfigError(f"horizon: must be at most {_MAX_HORIZON}")
        # positivity is checked by the rules; the underflow guard needs the
        # minimum over stages 0..horizon, which power rules attain at the end
        for rule in (self.lam_rule, self.mu_rule):
            if isinstance(rule, TableRule) and len(rule.values) < self.horizon + 1:
                raise ScheduleError("table rule shorter than the horizon")
        first = self.horizon if isinstance(self.mu_rule, PowerRule) else 0
        if np.min(self.mu_rule.value_array(first, self.horizon + 1)) < _MU_FLOOR:
            raise ScheduleError("mu underflows 1e-300 within the horizon")

    def lam(self, n: int) -> float:
        """lambda_n: the one-stage case of lams."""
        return float(self.lams(n, n + 1)[0])

    def mu(self, n: int) -> float:
        """mu_n: the one-stage case of mus."""
        return float(self.mus(n, n + 1)[0])

    def mu_fraction(self, n: int) -> Fraction:
        self._check_range(n, n + 1)
        return self.mu_rule.value_fraction(n)

    def lams(self, n0: int, n1: int) -> np.ndarray:
        """lam(n) for the stages n0 <= n < n1."""
        self._check_range(n0, n1)
        return self.lam_rule.value_array(n0, n1)

    def mus(self, n0: int, n1: int) -> np.ndarray:
        """mu(n) for the stages n0 <= n < n1."""
        self._check_range(n0, n1)
        return self.mu_rule.value_array(n0, n1)

    def _check_range(self, n0: int, n1: int):
        _check_stages(n0, n1)
        if n1 > n0 and n1 - 1 > self.horizon:
            raise HorizonExceeded(f"stage {n1 - 1} beyond horizon {self.horizon}")

    def to_json(self) -> dict:
        return write_form(self, self.json_fields)

    @classmethod
    def from_json(cls, obj: dict) -> "ParameterSchedule":
        return cls(**read_form(obj, cls.json_fields, "schedule fields"))


def _from_right(ufunc, values: np.ndarray, carry: float) -> np.ndarray:
    """Entry i folds ufunc over the stages from i on, right to left, where the
    stages of ``values`` are followed by later ones whose fold is ``carry``:
    these stages' slice of ufunc.accumulate(whole[::-1])[::-1]."""
    out = values[::-1].copy()
    out[0] = ufunc(out[0], carry)
    return ufunc.accumulate(out, out=out)[::-1]


class _SchedulePieces:
    """Stages 0..horizon of a schedule, read once right to left in pieces of
    at most ``_PIECE`` stages, with the results of whole arrays bit for bit.

    np.sum splits a range of n > 128 elements at n // 2 - (n // 2) % 8, so
    the pieces are the ranges this split first reaches with at most
    ``_PIECE`` stages, and ``total`` adds their np.sum up the same tree.
    Each piece keeps the sum of mu (added right to left, as np.cumsum of the
    reversed array adds) and the maximum of lambda over the stages after
    it, so ``suffix`` and ``lam_max`` read only the piece holding the stage.
    """

    def __init__(self, schedule: ParameterSchedule):
        self.schedule = schedule
        self.pieces = []  # (start, end, sum of mu after, max of lambda after)
        self.mu_after, self.lam_top, self.mu_top, self.mu_low = 0.0, -math.inf, -math.inf, math.inf
        self.total = self._sum(0, schedule.horizon + 1)
        self.pieces.reverse()
        self.starts = [piece[0] for piece in self.pieces]

    def _sum(self, n0: int, n1: int) -> float:
        """The pairwise sum of mu / lambda over stages n0..n1 - 1, right half first."""
        n = n1 - n0
        if n > _PIECE:
            half = n // 2 - (n // 2) % 8
            right = self._sum(n0 + half, n1)
            return self._sum(n0, n0 + half) + right
        lams, mus = self.schedule.lams(n0, n1), self.schedule.mus(n0, n1)
        self.pieces.append((n0, n1, self.mu_after, self.lam_top))
        suffix = _from_right(np.add, mus, self.mu_after)
        lam_max = _from_right(np.maximum, lams, self.lam_top)
        # the pass ends on the piece of stage 0, where most queries fall
        self.kept = {np.add: (n0, suffix), np.maximum: (n0, lam_max)}
        self.mu_after, self.lam_top = float(suffix[0]), float(lam_max[0])
        self.mu_top = max(self.mu_top, float(np.max(mus)))
        self.mu_low = min(self.mu_low, float(np.min(mus)))
        return float(np.sum(mus / lams))

    def suffix(self, x: int) -> float:
        """The sum of mu over stages x..horizon: np.cumsum(mus[::-1])[::-1][x]."""
        return self._at(x, np.add, self.schedule.mus, 0)

    def lam_max(self, x: int) -> float:
        """The maximum of lambda over stages x..horizon."""
        return self._at(x, np.maximum, self.schedule.lams, 1)

    def _at(self, x: int, ufunc, values, after: int) -> float:
        start, kept = self.kept[ufunc]
        if not 0 <= x - start < len(kept):
            start, end, *carries = self.pieces[bisect_right(self.starts, x) - 1]
            kept = _from_right(ufunc, values(start, end), carries[after])
            self.kept[ufunc] = (start, kept)
        return kept[x - start]


# --------------------------------------------------------------------------
# certified constants
# --------------------------------------------------------------------------


class QuantitativeData(Record, eq=True):
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
        The stages are read in pieces of 64 KB per float64 temporary, with
        every decision that of whole arrays (``_SchedulePieces``).
        """
        h = schedule.horizon
        stages = _SchedulePieces(schedule)
        mu0 = schedule.mu(0)
        if stages.total > float(self.A) + 1e-9:
            raise InvariantViolation("partial sums of mu/lambda exceed A on the horizon")
        if stages.lam_top > self.B + 1e-12 or mu0 > self.B + 1e-12:
            raise InvariantViolation("B does not dominate sup lambda and mu_0")
        if mu0 < 2.0 ** (-self.Bprime) - 1e-12:
            raise InvariantViolation("mu_0 < 2^-Bprime")
        if stages.mu_top > float(self.C) + 1e-12:
            raise InvariantViolation("C does not dominate sup mu")
        if stages.mu_top - stages.mu_low > float(self.C) + 1e-12:
            raise InvariantViolation("C does not dominate the spread of mu")
        prev = -1
        for k in range(51):
            t = self.theta(k)
            if t <= h and stages.lam_max(t) > 1.0 / (k + 1) + 1e-12:
                raise InvariantViolation(f"theta({k}) misses the lambda rate")
            x = self.xi(k)
            if x <= h and stages.suffix(x) >= 1.0 / (k + 1):
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


class ProblemInstance(Record):
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
        # structural dom S subset dom T check: S must confine iterates to T's domain
        (s_lo, s_hi), (t_lo, t_hi) = self.S.domain(), self.T.domain()
        if not (np.all(s_lo >= t_lo) and np.all(s_hi <= t_hi)):
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
    # T = 2I, S = I: (T - S)x = x, unique zero at the origin. The path from
    # (1, 1) settles at (0.855, 0.855) and never nears it: each late step
    # scales x by about 1 + mu_n, and sum mu_n is finite. So no residual drops
    # below 1, and certify-metastability exits 2 at k = 0.
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


class Trace(Record):
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
        bit for bit. In d > 1 the scan skips the rows that provably end no
        farthest pair (see ``_diameter_scan_order``)."""
        if a < 0 or b > self.steps or a > b:
            raise ValueError(f"bad window [{a}, {b}]")
        w = self.points[a : b + 1]
        if self.dim == 1:
            return float(np.max(w) - np.min(w))
        w, limits = _diameter_scan_order(w)
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


def run(inst: ProblemInstance, n_steps: int) -> Trace:
    """Run the iteration for n_steps stages and record the trace.

    A d = 1 instance steps on floats (``_run_1d``), any other on one-row
    arrays (``_run_rows``), both through the stage map ``_stage_rows`` or
    its scalar case, and both fast-forward a repeated iterate (``_stepped``).
    The residuals take the kernel of the per-step ``np.linalg.norm``. A trace
    whose diameter exceeds the certified L raises InvariantViolation.
    """
    if n_steps < 0:
        raise ValueError("step count must be >= 0")
    if n_steps > inst.schedule.horizon:
        raise HorizonExceeded(
            f"{n_steps} steps requested beyond horizon {inst.schedule.horizon}"
        )
    lams, mus = inst.schedule.lams(0, n_steps), inst.schedule.mus(0, n_steps)
    # stepping stops before the first non-positive parameter (a lambda that
    # underflowed) and raises there, after any error of the earlier stages
    positive = (lams > 0) & (mus > 0)
    stop = n_steps if positive.all() else int(np.argmin(positive))
    stepper = _run_1d if inst.dim == 1 else _run_rows
    pts = stepper(inst.T, inst.S, inst.x0, memoryview(lams[:stop]), memoryview(mus[:stop]))
    if not np.all(np.isfinite(pts[-1])):
        raise DomainError(f"iterate at stage {stop} is not finite")
    if stop < n_steps:
        raise NonPositiveParameter(
            f"stage {stop} has lambda={float(lams[stop])!r}, mu={float(mus[stop])!r}; "
            "both must be > 0"
        )
    res = row_norms(pts[:-1] - pts[1:])
    trace = Trace(pts, lams, mus, np.divide(res, mus, out=res))
    if n_steps > 0:
        _check_diameter(inst, trace)
    return trace


def _stage_rows(T, S, lams, mus, xs: np.ndarray) -> np.ndarray:
    """Stage i, x -> J^S_mu(x + mu T_lam(x)) at lams[i] and mus[i], on row i of
    xs, unchecked: the images of the leading rows whose shifted point is finite,
    and none for the rest, which a box S would clamp back to finite points."""
    shifted = xs + mus[:, None] * T.yosida_rows(lams, xs)
    finite = np.isfinite(shifted)
    if np.count_nonzero(finite) < finite.size:
        shifted = shifted[: np.argmin(finite.all(axis=1))]
    return S.resolvent_rows(mus[: len(shifted)], shifted)


def _run_1d(T, S, x0: np.ndarray, lams, mus) -> np.ndarray:
    """The iterates x_0..x_N of a d = 1 instance, stepped on floats through
    ``yosida1`` and ``resolvent1``: the scalar case of ``_stage_rows``, its row 0."""
    yosida_t, resolvent_s = T.yosida1, S.resolvent1
    isfinite = math.isfinite

    def steps(pts, n, need):
        out = memoryview(pts.reshape(-1))
        x, repeats = out[n], 0
        for n, lam, mu in zip(range(n + 1, len(out)), lams[n:], mus[n:]):
            shifted = x + mu * yosida_t(lam, x)
            if not isfinite(shifted):
                raise DomainError("points must have finite coordinates")
            prev, x = x, resolvent_s(mu, shifted)
            out[n] = x
            if x == prev:
                repeats += 1
                if repeats == need:
                    return n
        return len(lams)

    return _stepped(T, S, x0, lams, mus, steps)


def _run_rows(T, S, x0: np.ndarray, lams, mus) -> np.ndarray:
    """The iterates x_0..x_N of a d > 1 instance: ``_stage_rows`` on one row,
    unchecked. A non-finite iterate has a non-finite shifted point, no image."""
    lam_rows, mu_rows = np.reshape(lams, (-1, 1)), np.reshape(mus, (-1, 1))

    def steps(pts, n, need):
        x, repeats = pts[n : n + 1], 0
        for n, lam, mu in zip(range(n + 1, len(pts)), lam_rows[n:], mu_rows[n:]):
            prev, x = x, _stage_rows(T, S, lam, mu, x)
            if not len(x):
                raise DomainError("points must have finite coordinates")
            pts[n] = x
            if not np.count_nonzero(x != prev):  # cheaper than (x == prev).all()
                repeats += 1
                if repeats == need:
                    return n
        return len(lams)

    with np.errstate(invalid="ignore"):  # T's NaN from a non-finite iterate is not reported
        return _stepped(T, S, x0, lams, mus, steps)


def _stepped(T, S, x0: np.ndarray, lams, mus, steps) -> np.ndarray:
    """The iterates x_0..x_N from x0 through the stages of lams and mus.

    ``steps(pts, n, need)`` steps on from iterate n into ``pts`` and returns
    the index of its ``need``-th repeat x_{m+1} = x_m, or N at the end. The
    stages that fix a repeat (``_fixed_stages``) are filled with it, and
    stepping goes on from the first that does not. A check that fixes fewer
    than 64 stages makes the next one wait for twice as many repeats.
    """
    pts = np.empty((len(lams) + 1, x0.shape[0]))
    pts[0] = x0
    n, need = 0, 1
    while True:
        n = steps(pts, n, need)
        if n == len(lams):
            return pts
        skip = _fixed_stages(T, S, pts[n], lams[n:], mus[n:])
        pts[n + 1 : n + 1 + skip] = pts[n]
        n += skip
        if skip < _FIXED_BACKOFF:
            need *= 2


def _fixed_stages(T, S, x: np.ndarray, lams, mus) -> int:
    """How many of the leading stages fix the point x bit for bit.

    Stage m fixes x when ``_stage_rows``, called once per tile of stages,
    maps x to x in every coordinate and sign bit. Its row i is the one-row
    and the scalar step bit for bit, so by induction every counted stage
    gives x. A tile that raises (a singular solve) ends the count at its
    first stage, where the stepper meets the error itself. Tiles double
    from 64 stages up to 8,192 // d^2, so each temporary, a dense solve's
    (tile, d, d) stack included, stays within 64 KB (one stage past d = 90).
    """
    lams, mus = np.asarray(lams), np.asarray(mus)
    d = x.shape[0]
    sign = np.signbit(x)
    cap = max(1, _FIXED_TILE_CAP // (d * d))
    done, tile = 0, min(_FIXED_BACKOFF, cap)
    with np.errstate(all="ignore"):  # an overflow ends the run, it is not reported
        while done < len(lams):
            lam, mu = lams[done : done + tile], mus[done : done + tile]
            try:
                moved = _stage_rows(T, S, lam, mu, np.broadcast_to(x, (len(lam), d)))
            except SingularSystem:
                return done
            same = ((moved == x) & (np.signbit(moved) == sign)).all(axis=1)
            run = len(moved) if same.all() else int(np.argmin(same))
            done += run
            if run < len(lam):
                return done
            tile = min(2 * tile, cap)
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
