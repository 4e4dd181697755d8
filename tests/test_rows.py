"""Row forms against per-point references.

``reference_gap`` is the per-point gap functional as it was written before
the row forms: per-point value sets from a type ladder, the resolvent
ladder ``test_stepper.reference_resolvent``, a Python distance loop and
``np.linalg.norm``. ``eval_gaps`` must reproduce it byte for byte on every
admissible operator pair, as ``resolvent_rows`` and ``yosida_rows`` must
reproduce the resolvent and Yosida ladders, and the grid oracle and grid
verification built on it must give the tables and verdicts of the
per-point loops, errors included.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_stepper import (
    PAIRS,
    coord,
    coords,
    problems,
    reference_resolvent,
    reference_yosida,
    seeds,
)

import fejerquant as fq
from fejerquant.errors import (
    DimensionMismatch,
    DomainError,
    NonPositiveParameter,
    SingularSystem,
)
from fejerquant.iteration import ParameterSchedule, PowerRule, ProblemInstance
from fejerquant.operators import (
    AffinePSD,
    NormalConeBox,
    SubdiffAbsSum,
    ZeroOperator,
    as_point,
    evaluate,
    resolvent,
    resolvent_rows,
    yosida,
    yosida_rows,
)
from fejerquant.regularity import (
    GapFunctional,
    RegularityModulus,
    eval_gap,
    eval_gaps,
    grid_regularity_oracle,
    verify_regularity_on_grid,
)

# --------------------------------------------------------------------------
# per-point references
# --------------------------------------------------------------------------


def reference_bounds(op, x):
    if isinstance(op, AffinePSD):
        v = op.matrix @ x + op.offset
        return v, v
    if isinstance(op, SubdiffAbsSum):
        lo = np.where(x > 0, 1.0, np.where(x < 0, -1.0, -1.0))
        hi = np.where(x > 0, 1.0, np.where(x < 0, -1.0, 1.0))
        return lo, hi
    if isinstance(op, NormalConeBox):
        return np.where(x == op.lo, -np.inf, 0.0), np.where(x == op.hi, np.inf, 0.0)
    return np.zeros(op.dim), np.zeros(op.dim)


def reference_in_domain(op, x):
    if isinstance(op, NormalConeBox):
        return bool(np.all(x >= op.lo) and np.all(x <= op.hi))
    return True


def reference_dist(lo, hi, p):
    total = 0.0
    for i in range(p.shape[0]):
        gap = max(lo[i] - p[i], p[i] - hi[i], 0.0)
        total += gap * gap
    return math.sqrt(total)


def reference_min_selection(op, x):
    lo, hi = reference_bounds(op, x)
    return np.minimum(np.maximum(np.zeros(op.dim), lo), hi)


def reference_gap(gap, x):
    inst = gap.inst
    x = as_point(x, inst.dim)
    if not (reference_in_domain(inst.T, x) and reference_in_domain(inst.S, x)):
        raise DomainError("gap functionals need x in the domain of both operators")
    if gap.variant == "F1":
        mu0 = inst.schedule.mu(0)
        t_min = reference_min_selection(inst.T, x)
        moved = reference_resolvent(inst.S, mu0, x + mu0 * t_min)
        return float(np.linalg.norm(x - moved))
    if gap.variant == "F2":
        s_lo, s_hi = reference_bounds(inst.S, x)
        return reference_dist(s_lo, s_hi, reference_min_selection(inst.T, x))
    t_lo, t_hi = reference_bounds(inst.T, x)
    s_lo, s_hi = reference_bounds(inst.S, x)
    return reference_dist(t_lo - s_hi, t_hi - s_lo, np.zeros(inst.dim))


def reference_zero_distances(pts, zero_pts):
    return np.min(np.linalg.norm(pts[:, None, :] - zero_pts[None, :, :], axis=2), axis=1)


def reference_oracle(gap, zeros, z, r, eps_list):
    zero_pts = np.stack([as_point(p, z.shape[0]) for p in zeros])
    pts = fq.regularity._ball_grid(z, r, min(eps_list) / 100)
    gaps = np.array([reference_gap(gap, p) for p in pts])
    dists = reference_zero_distances(pts, zero_pts)
    entries = []
    for eps in eps_list:
        inf_gap = float(np.min(gaps[dists >= float(eps)]))
        entries.append({"eps": str(eps), "phi": str(Fraction(inf_gap * (1.0 - 1e-6)))})
    return gaps, entries


def reference_verify(gap, phi_reg, zeros, eps, pitch):
    z = phi_reg.center
    zero_pts = np.stack([as_point(p, z.shape[0]) for p in zeros])
    phi_val = float(phi_reg.phi_value(eps))
    for p in fq.regularity._ball_grid(z, phi_reg.radius, pitch):
        if reference_gap(gap, p) < phi_val:
            if float(np.min(np.linalg.norm(zero_pts - p[None, :], axis=1))) >= float(eps):
                return False
    return True


def outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return ("DomainError", str(exc))


# --------------------------------------------------------------------------
# the bit-identity property
# --------------------------------------------------------------------------


@st.composite
def rows_in_domain(draw, inst):
    """Rows with signed zeros, box ends and points between them."""
    rows = []
    for _ in range(draw(st.integers(1, 24))):
        if isinstance(inst.S, NormalConeBox):
            row = []
            for lo, hi in zip(inst.S.lo, inst.S.hi):
                choices = [lo, hi, lo + (hi - lo) / 3.0]
                choices += [z for z in (0.0, -0.0) if lo <= z <= hi]
                within = st.sampled_from(choices)
                if lo < hi:  # hypothesis orders -0.0 below 0.0
                    within = st.one_of(within, st.floats(lo, hi))
                row.append(draw(within))
        else:
            row = draw(st.lists(coord, min_size=inst.dim, max_size=inst.dim))
        rows.append(row)
    return np.array(rows, dtype=float)


@pytest.mark.parametrize("t_kind,s_kind", PAIRS)
def test_row_forms_match_per_point_calls(t_kind, s_kind):
    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def check(data):
        d = data.draw(st.sampled_from([1, 2, 3]))
        inst = data.draw(problems(t_kind, s_kind, d))
        xs = data.draw(rows_in_domain(inst))
        for variant in ("F1", "F2", "FDiff"):
            gap = GapFunctional(variant, inst)
            want = np.array([reference_gap(gap, x) for x in xs])
            assert eval_gaps(gap, xs).tobytes() == want.tobytes(), variant
            assert eval_gap(gap, xs[0]) == want[0]
        n = len(xs)
        lams = np.array(data.draw(st.lists(st.floats(1e-3, 4.0), min_size=n, max_size=n)))
        for op in (inst.T, inst.S):
            rows = resolvent_rows(op, lams, xs)
            yos = yosida_rows(op, lams, xs)
            lo_rows, hi_rows = op.value_rows(xs)
            for i, x in enumerate(xs):
                lam = float(lams[i])
                want_j = reference_resolvent(op, lam, x).tobytes()
                want_t = reference_yosida(op, lam, x).tobytes()
                assert rows[i].tobytes() == want_j == resolvent(op, lam, x).tobytes()
                assert yos[i].tobytes() == want_t == yosida(op, lam, x).tobytes()
                lo, hi = reference_bounds(op, x)
                one_lo, one_hi = evaluate(op, x)
                assert one_lo.tobytes() == lo.tobytes() and one_hi.tobytes() == hi.tobytes()
                assert lo_rows[i].tobytes() == lo.tobytes()
                assert hi_rows[i].tobytes() == hi.tobytes()

    check()


# --------------------------------------------------------------------------
# the d = 1 affine row form
# --------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 40))
def test_the_one_by_one_affine_row_form_is_the_scalar_form(seed, n):
    # (xs - lam b) / (1 + lam a) row by row, as resolvent1 and the 1x1 solve
    # give it
    rng = np.random.default_rng(seed)
    a, b = abs(coords(rng, 1)[0]), coords(rng, 1)[0]
    op = AffinePSD(np.array([[a]]), np.array([b]))
    lams = rng.choice([0.25, 0.5, 1.0, 2.0, 1e-3, 4.0], n)
    drawn = rng.random(n) < 0.5
    lams[drawn] = rng.uniform(1e-3, 4.0, np.count_nonzero(drawn))
    xs = coords(rng, (n, 1))
    want_j = np.array([op.resolvent1(lam, x) for lam, x in zip(lams, xs[:, 0])])
    want_t = np.array([op.yosida1(lam, x) for lam, x in zip(lams, xs[:, 0])])
    assert op.resolvent_rows(lams, xs)[:, 0].tobytes() == want_j.tobytes()
    assert op.yosida_rows(lams, xs)[:, 0].tobytes() == want_t.tobytes()
    system = np.eye(1) + lams[:, None, None] * op.matrix
    solved = np.linalg.solve(system, (xs - lams[:, None] * op.offset)[..., None])[..., 0]
    assert op.resolvent_rows(lams, xs).tobytes() == solved.tobytes()


def test_a_zero_denominator_in_a_one_by_one_tile_is_singular():
    # 1 + 2^30 * -2^-30 = 0 in the second row, as the batched solve finds
    op = AffinePSD(np.array([[-(2.0**-30)]]), np.zeros(1))
    lams, xs = np.array([1.0, 2.0**30, 1.0]), np.ones((3, 1))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.eye(1) + lams[:, None, None] * op.matrix, xs[..., None])
    with pytest.raises(SingularSystem, match="Singular matrix"):
        op.resolvent_rows(lams, xs)
    with pytest.raises(SingularSystem, match="Singular matrix"):
        op.resolvent1(2.0**30, 1.0)
    assert op.resolvent_rows(lams[::2], xs[::2]).tolist() == [[1.0 / (1.0 - 2.0**-30)]] * 2


# --------------------------------------------------------------------------
# the grid oracle and the grid verification
# --------------------------------------------------------------------------

ZEROS_1D = [np.array([-1.0]), np.array([0.0]), np.array([1.0])]
# the dyadic grid-centre shifts the regularity benchmark uses
GRID_OFFSETS = ["0", "1/64", "-1/64", "1/32", "-1/32", "3/64", "-3/64", "1/16"]


@pytest.mark.parametrize("offset", GRID_OFFSETS)
def test_grid_oracle_matches_the_per_point_loop(offset):
    inst = fq.preset("dc-abs-1d")
    z = np.array([float(Fraction(offset))])
    eps_list = [Fraction(1)]  # pitch 1/100 on the ball of radius 2
    for variant in ("F1", "F2", "FDiff"):
        gap = GapFunctional(variant, inst)
        want_gaps, want_entries = reference_oracle(gap, ZEROS_1D, z, Fraction(2), eps_list)
        pts = fq.regularity._ball_grid(z, Fraction(2), Fraction(1, 100))
        assert eval_gaps(gap, pts).tobytes() == want_gaps.tobytes()
        phi = grid_regularity_oracle(gap, ZEROS_1D, z, Fraction(2), eps_list)
        assert phi.to_json()["entries"] == want_entries
        for eps in (Fraction(1), Fraction(1, 4)):
            scaled = RegularityModulus.table(
                z, Fraction(2), "grid-oracle", ((eps, phi.phi_value(Fraction(1)) * eps),)
            )
            assert verify_regularity_on_grid(
                gap, scaled, ZEROS_1D, eps, Fraction(1, 100)
            ) == reference_verify(gap, scaled, ZEROS_1D, eps, Fraction(1, 100))


def box_instance():
    # T = 0 and S the normal cone of [0, 1]: every point of the box is a zero
    return ProblemInstance(
        T=ZeroOperator(1),
        S=NormalConeBox(np.array([0.0]), np.array([1.0])),
        x0=np.array([0.5]),
        schedule=ParameterSchedule(PowerRule(Fraction(1), 1), PowerRule(Fraction(1), 3), 10),
        quant=fq.preset("dc-abs-1d").quant,
    )


@pytest.mark.parametrize(
    "center,zeros,expect",
    [
        # a violation at the first grid point, outside points only after it
        ("3/4", [[0.0]], False),
        # an outside point first: the per-point loop raised there
        ("1/4", [[0.0]], DomainError),
        # outside points after the last in-domain point and no violation
        ("3/4", [[k / 16] for k in range(17)], DomainError),
    ],
)
def test_verify_keeps_the_grid_order(center, zeros, expect):
    gap = GapFunctional("F1", box_instance())
    phi = RegularityModulus.linear(
        np.array([float(Fraction(center))]), Fraction(1, 2), "analytic", Fraction(1)
    )
    zeros = [np.array(z) for z in zeros]
    eps, pitch = Fraction(1, 4), Fraction(1, 100)
    want = outcome(reference_verify, gap, phi, zeros, eps, pitch)
    got = outcome(verify_regularity_on_grid, gap, phi, zeros, eps, pitch)
    assert got == want
    if expect is DomainError:
        assert got[0] == "DomainError"
    else:
        assert got is expect


# --------------------------------------------------------------------------
# error paths
# --------------------------------------------------------------------------


def test_gap_rows_reject_bad_input():
    gap = GapFunctional("F1", fq.preset("dc-abs-1d"))
    with pytest.raises(DomainError):
        eval_gaps(gap, np.array([[0.5], [np.inf]]))
    with pytest.raises(DomainError):
        eval_gaps(gap, np.array([[np.nan]]))
    with pytest.raises(DimensionMismatch):
        eval_gaps(gap, np.zeros((3, 2)))
    with pytest.raises(DimensionMismatch):
        eval_gaps(gap, np.zeros(3))
    assert eval_gaps(gap, np.zeros((0, 1))).shape == (0,)
    box = GapFunctional("FDiff", fq.preset("box-affine-nd"))
    with pytest.raises(DomainError, match="domain of both operators"):
        eval_gaps(box, np.array([[0.5, 0.5], [1.5, 0.5]]))


def test_resolvent_rows_reject_bad_input():
    op = AffinePSD(np.eye(2), np.zeros(2))
    with pytest.raises(NonPositiveParameter):
        resolvent_rows(op, np.array([1.0, np.nan]), np.zeros((2, 2)))
    with pytest.raises(DomainError):
        resolvent_rows(op, np.ones(2), np.array([[0.0, np.inf], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        resolvent_rows(op, np.ones(3), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        resolvent_rows(op, np.ones(2), np.zeros((2, 3)))
