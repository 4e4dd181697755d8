"""The quasi-Fejer check as one offset sweep: certificates byte for byte equal
to the double loop over (n, l) that it replaced.

The reference below is that loop, kept verbatim, on the per-point value
sets of ``test_value_sets``. Every case compares the canonical certificate
JSON, so the right-hand sides, the violation order, the cut at 50
violations and the ``checked`` count must all agree exactly.
"""

import dataclasses
import json

import numpy as np
import pytest
from test_value_sets import evaluate, minimal_selection

import fejerquant as fq
from fejerquant.errors import MissingSolutions
from fejerquant.iteration import Trace, run
from fejerquant.moduli import exp_upper
from fejerquant.verification import (
    _SLACK,
    Certificate,
    _instance_params,
    check_quasi_fejer,
)


def reference_quasi_fejer(trace, inst, max_n, max_l):
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


def canonical(cert):
    return json.dumps(cert.to_json(), sort_keys=True)


def nudged(trace, index, by):
    """The trace with one iterate moved, residuals kept consistent."""
    pts = np.array(trace.points)
    pts[index] += by
    diffs = np.linalg.norm(pts[:-1] - pts[1:], axis=1)
    return Trace(pts, trace.lambdas, trace.mus, diffs / trace.mus)


def dc(x0):
    return dataclasses.replace(fq.preset("dc-abs-1d"), x0=np.array([x0]))


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
    fake = dataclasses.replace(
        inst, known_solutions=(np.array([-1.0]), np.array([0.5]), np.array([1.0]))
    )
    cases.append(("fake solution between two real ones", fake, tr, 40, 40))
    cases.append(("fake solution, fault", fake, nudged(tr, 20, 0.05), 40, 40))
    short = run(inst, 30)
    for max_n, max_l in ((0, 10), (10, 0), (0, 0), (45, 10), (10, 45), (45, 45),
                         (-1, 10), (10, -1), (-3, -3)):
        cases.append((f"max_n={max_n} max_l={max_l}", inst, short, max_n, max_l))
    zero = run(inst, 0)
    for max_n, max_l in ((0, 0), (5, 5), (-1, 0)):
        cases.append((f"zero steps, max_n={max_n} max_l={max_l}", inst, zero, max_n, max_l))
        cases.append((f"zero steps, fake, max_n={max_n}", fake, zero, max_n, max_l))
    return cases


CASES = _cases()


@pytest.mark.parametrize("label,inst,trace,max_n,max_l", CASES, ids=[c[0] for c in CASES])
def test_sweep_matches_the_double_loop(label, inst, trace, max_n, max_l):
    got = check_quasi_fejer(trace, inst, max_n, max_l)
    want = reference_quasi_fejer(trace, inst, max_n, max_l)
    assert canonical(got) == canonical(want)


def test_the_case_list_reaches_the_violation_cut_and_the_premise_order():
    faults = [
        reference_quasi_fejer(tr, inst, max_n, max_l)
        for label, inst, tr, max_n, max_l in CASES
        if "fault" in label
    ]
    # a case with more than 50 violations checks the order and the cut at 50
    assert any(len(c.violations) == 50 for c in faults)
    forms = [
        [v["form"] for v in c.violations] for c in faults if len(c.violations) > 2
    ]
    # the premise entry of the middle solution falls between inequality violations
    assert any("premise" in f and 0 < f.index("premise") < len(f) - 1 for f in forms)


def test_negative_ranges_check_nothing():
    inst = dc(2.0)
    tr = run(inst, 20)
    for max_n, max_l in ((-1, 5), (5, -1)):
        cert = check_quasi_fejer(tr, inst, max_n, max_l)
        assert cert.sound and cert.witness["checked"] == 0
