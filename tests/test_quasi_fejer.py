"""The quasi-Fejer check as one offset sweep: certificates byte for byte equal
to the double loop over (n, l) that it replaced.

The reference below is that loop, kept verbatim, on the per-point value
sets of ``test_value_sets``. Every case compares the canonical certificate
JSON, so the right-hand sides, the violation order, the cut at 50
violations and the ``checked`` count must all agree exactly.
"""

import json
import tracemalloc

import numpy as np
import pytest
from test_stepper import late_capture
from test_value_sets import evaluate, minimal_selection

import fejerquant as fq
from fejerquant import verification
from fejerquant.errors import MissingSolutions
from fejerquant.iteration import Trace, run
from fejerquant.moduli import exp_upper
from fejerquant.verification import (
    _SLACK,
    Certificate,
    _instance_params,
    check_quasi_fejer,
)
from records import replace


def reference_quasi_fejer(trace, inst, max_n, max_l):
    if not inst.known_solutions:
        raise MissingSolutions("quasi-Fejer checks need known solutions")
    e_a = float(exp_upper(inst.quant.A))
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


def canonical(cert):
    return json.dumps(cert.to_json(), sort_keys=True)


def nudged(trace, index, by):
    """The trace with one iterate moved, residuals kept consistent."""
    pts = np.array(trace.points)
    pts[index] += by
    diffs = np.linalg.norm(pts[:-1] - pts[1:], axis=1)
    return Trace(pts, trace.lambdas, trace.mus, diffs / trace.mus)


def dc(x0):
    return replace(fq.preset("dc-abs-1d"), x0=np.array([x0]))


def rising_line(steps):
    """A trace that climbs evenly from 0.5 to 1.0 on dc-abs-1d's schedule,
    away from its zero 0: at that solution every pair (n, l >= 1) violates."""
    sched = run(fq.preset("dc-abs-1d"), steps)
    pts = np.linspace(0.5, 1.0, steps + 1)[:, None]
    diffs = np.linalg.norm(pts[:-1] - pts[1:], axis=1)
    return Trace(pts, sched.lambdas, sched.mus, diffs / sched.mus)


def _cases():
    rng = np.random.default_rng(20261018)
    cases = []
    for x0 in (2.0, 0.5, -1.75, 0.0, 3.25):
        inst = dc(x0)
        cases.append((f"dc-abs-1d x0={x0}", inst, run(inst, 90), 60, 60))
    for name in ("affine-affine-nd", "box-affine-nd"):
        inst = fq.preset(name)
        tr = run(inst, 70)
        cases.append((name, inst, tr, 50, 50))
        idx = int(rng.integers(5, 40))
        cases.append((f"{name} fault at {idx}", inst, nudged(tr, idx, 1e-3), 50, 50))
    inst = dc(2.0)
    tr = run(inst, 120)
    for trial in range(3):
        idx = int(rng.integers(30, 90))
        by = float(rng.choice([-1.0, 1.0]) * rng.uniform(1e-4, 1e-2))
        cases.append((f"dc fault at {idx} by {by:.3g}", inst, nudged(tr, idx, by), 80, 80))
    # a jump that breaks the e^A form too, then one that breaks the product
    # form only: rows n < 5 list violations at two offsets, in (l, form) order
    two = nudged(nudged(tr, 5, 50.0), 6, 5.0)
    cases.append(("dc faults at 5 by 50 and 6 by 5", inst, two, 80, 80))
    fake = replace(
        inst, known_solutions=(np.array([-1.0]), np.array([0.5]), np.array([1.0]))
    )
    cases.append(("fake solution between two real ones", fake, tr, 40, 40))
    cases.append(("fake solution, fault", fake, nudged(tr, 20, 0.05), 40, 40))
    short = run(inst, 30)
    for max_n, max_l in ((0, 10), (10, 0), (0, 0), (45, 10), (10, 45), (45, 45),
                         (-1, 10), (10, -1), (-3, -3)):
        cases.append((f"max_n={max_n} max_l={max_l}", inst, short, max_n, max_l))
    cases.append(("max_n=10 max_l=10**400", inst, short, 10, 10**400))
    cases.append(("max_n=10**400 max_l=10**400", inst, short, 10**400, 10**400))
    # many rows, or many offsets past the trace
    long = run(inst, 450)
    cases.append(("301 rows, 101 offsets", inst, long, 300, 100))
    cases.append(("3,001 rows, 6 offsets", inst, run(inst, 3005), 3000, 5))
    cases.append(("max_l beyond the trace", inst, tr, 100, 500))
    cases.append(("max_n=100 max_l=10**400", inst, tr, 100, 10**400))
    # violations at n + l = 60, 61 and 130, cut at 50 over several offsets
    spread = nudged(nudged(nudged(long, 60, 0.01), 61, -0.02), 130, 0.01)
    cases.append(("faults at 60, 61 and 130", inst, spread, 300, 100))
    cases.append(("fake solution, fault at 60", fake, nudged(long, 60, 0.05), 300, 100))
    # the last iterate breaks both forms; pairs past the trace must not count
    cases.append(("fault at the last iterate", inst, nudged(long, 450, 1.0), 300, 200))
    affine = fq.preset("affine-affine-nd")
    tr2 = run(affine, 500)
    cases.append(("affine S, 301 rows", affine, tr2, 300, 200))
    cases.append(("affine S, fault at 250", affine, nudged(tr2, 250, 1e-3), 300, 200))
    # dc-abs-1d from 0.5 is at the zero 0 from step 1 on, so each row's
    # distances are constant: the sweep is left only row 0 and the rows a
    # late rise is not within fl(dist[n] + 1e-9) of. At the solution 0 the
    # product form's right-hand side is exactly 1e-9 (T°0 = 0).
    calm = dc(0.5)
    held = run(calm, 120)
    cases.append(("late rise by 5e-10", calm, nudged(held, 100, 5e-10), 80, 80))
    cases.append(("late rise to fl(d + 1e-9)", calm, nudged(held, 100, _SLACK), 80, 80))
    cases.append(("late rise by 5e-9", calm, nudged(held, 100, 5e-9), 80, 80))
    # rows below 90 see the rise only past their max_l
    cases.append(("rise past max_l", calm, nudged(held, 100, 5e-9), 95, 10))
    cases.append(("NaN point", calm, nudged(held, 60, np.nan), 80, 80))
    # row 0's product-form right-hand side at the solution 0 (T°0 = 0) at
    # l = 32 is reached exactly by the distance at step 60: the row retires
    # there on equality, and rows 1..60 meet the rise as violations
    prod = 1.0
    for k in range(32):
        prod *= 1.0 + held.mus[k] / held.lambdas[k]
    edge = prod * 0.5 + _SLACK
    at_edge = nudged(held, 60, edge - held.points[60, 0])
    assert at_edge.points[60, 0] == edge and held.points[0, 0] == 0.5
    cases.append(("late rise to row 0's right-hand side at l = 32", calm, at_edge, 80, 80))
    # only row 80 meets the rise at 100, at its last offset l = max_l = 20;
    # over 3,001 rows only rows 2895..2899 meet the rise at 2900, row 2895
    # at l = max_l = 5, and a row retiring at l reads top[n + l + 1]
    cases.append(("rise at the last offset of max_l", calm, nudged(held, 100, 5e-9), 80, 20))
    long_calm = run(calm, 3005)
    cases.append(("3,001 rows, rise at the last offset of max_l", calm,
                  nudged(long_calm, 2900, 5e-9), 3000, 5))
    # a path captured late (5,000 distinct points): rows retire over many offsets
    late = late_capture()
    late_tr = run(late, 5600)
    cases.append(("late capture, 800/800", late, late_tr, 800, 800))
    cases.append(("late capture, 3/5000", late, late_tr, 3, 5000))
    # violations at every offset, of which the first 50 are kept
    cases.append(("rising line, 100/100", dc(0.5), rising_line(200), 100, 100))
    # a negative mu (rho < 1) voids the argument: every row is swept
    mus = np.array(held.mus)
    mus[50] = -mus[50]
    cases.append(("a negative mu", calm, Trace(held.points, held.lambdas, mus, held.residuals),
                  80, 80))
    # a row would retire at l = 0, before the negative mu of its own step
    # takes its right-hand sides below its distances at l = 1
    mus = np.array(long_calm.mus)
    mus[2950] = -mus[2950]
    cases.append(("3,001 rows, a negative mu", calm,
                  Trace(long_calm.points, long_calm.lambdas, mus, long_calm.residuals), 3000, 5))
    zero = run(inst, 0)
    for max_n, max_l in ((0, 0), (5, 5), (-1, 0)):
        cases.append((f"zero steps, max_n={max_n} max_l={max_l}", inst, zero, max_n, max_l))
        cases.append((f"zero steps, fake, max_n={max_n}", fake, zero, max_n, max_l))
    return cases


CASES = _cases()
assert len({label for label, *_ in CASES}) == len(CASES)
# each case's reference certificate, computed once per session
_REFERENCE = {}


def reference_of(label, inst, trace, max_n, max_l):
    """reference_quasi_fejer of the case of CASES named label."""
    if label not in _REFERENCE:
        _REFERENCE[label] = reference_quasi_fejer(trace, inst, max_n, max_l)
    return _REFERENCE[label]


@pytest.mark.parametrize("label,inst,trace,max_n,max_l", CASES, ids=[c[0] for c in CASES])
def test_sweep_matches_the_double_loop(label, inst, trace, max_n, max_l):
    got = check_quasi_fejer(trace, inst, max_n, max_l)
    want = reference_of(label, inst, trace, max_n, max_l)
    assert canonical(got) == canonical(want)


def test_the_case_list_reaches_the_violation_cut_and_the_premise_order():
    faults = [reference_of(*case) for case in CASES if "fault" in case[0]]
    # a case with more than 50 violations checks the order and the cut at 50
    assert any(len(c.violations) == 50 for c in faults)
    forms = [
        [v["form"] for v in c.violations] for c in faults if len(c.violations) > 2
    ]
    # the premise entry of the middle solution falls between inequality violations
    assert any("premise" in f and 0 < f.index("premise") < len(f) - 1 for f in forms)


def test_the_cut_cases_spread_over_offsets():
    """Each fault case cut at 50 keeps violations at 3 or more offsets, and
    a fake solution's premise entry falls between its inequality violations."""
    faults = [(case[0], reference_of(*case)) for case in CASES if "fault" in case[0]]
    cut = [(label, cert) for label, cert in faults if len(cert.violations) == 50]
    assert len(cut) >= 3
    for label, cert in cut:
        assert len({v["l"] for v in cert.violations if "l" in v}) >= 3, label
    for label, cert in faults:
        if "fake" in label:
            forms = [v["form"] for v in cert.violations]
            assert 0 < forms.index("premise") < len(forms) - 1, label


def test_negative_ranges_check_nothing():
    inst = dc(2.0)
    tr = run(inst, 20)
    for max_n, max_l in ((-1, 5), (5, -1)):
        cert = check_quasi_fejer(tr, inst, max_n, max_l)
        assert cert.sound and cert.witness["checked"] == 0


class CountingNumpy:
    """numpy with its ``multiply`` calls counted: the sweep makes two for
    each offset l >= 1 it advances to."""

    def __init__(self):
        self.multiplies = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, *args, **kwargs):
        self.multiplies += 1
        return np.multiply(*args, **kwargs)


def test_the_sweep_ends_once_every_row_retires(monkeypatch):
    """On lemmas-1d's trace, dc-abs-1d from 0.5 at max_n = max_l = 800, every
    row retires at offset 1 of 801."""
    counting = CountingNumpy()
    monkeypatch.setattr(verification, "np", counting)
    inst = dc(0.5)
    tr = run(inst, 1600)
    cert = check_quasi_fejer(tr, inst, 800, 800)
    assert cert.sound and cert.witness["checked"] == 3 * 801 * 801
    assert counting.multiplies == 2 * 1
    # a point 5e-9 off the zero 0 keeps rows 1..499 in the sweep (solution
    # 0) until the offset 500 - n where each one meets it; row 1 at 499 is
    # the last, and the sweep ends there
    counting.multiplies = 0
    cert = check_quasi_fejer(nudged(tr, 500, 5e-9), inst, 800, 800)
    assert not cert.sound and cert.violations[0]["n"] == 1 and cert.violations[0]["l"] == 499
    assert counting.multiplies == 2 * 499
    # the late-capture path moves for 5,000 steps, yet its 4 rows retire at
    # offset 1 of 5,001
    counting.multiplies = 0
    late = late_capture()
    cert = check_quasi_fejer(run(late, 5600), late, 3, 5000)
    assert cert.sound and counting.multiplies == 2 * 1


def test_a_violating_sweep_keeps_a_flat_memory_peak():
    """The 1,601-point rising line at max_n = max_l = 800 violates at every
    offset, about 1.3 million times; the sweep keeps the first 50 found so
    far, not every record (126 MB when all of them were sorted at the end)."""
    inst = dc(0.5)
    tr = rising_line(1600)
    check_quasi_fejer(tr, inst, 10, 10)  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        cert = check_quasi_fejer(tr, inst, 800, 800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not cert.sound and len(cert.violations) == 50
    assert peak < 8_000_000  # bytes; the sweep peaks near 0.6 MB
