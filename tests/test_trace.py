"""Trace.window_diameter and Trace.to_jsonl against the code they replaced.

``pairwise_diameter`` is the scan over all pairs of rows and
``reference_jsonl`` the per-step ``json.dumps`` writer, both as they were
written before the pruned scan and the block writer. The new forms must
give the same float and the same text, bit for bit and byte for byte.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fejerquant.iteration import Trace


def pairwise_diameter(w):
    best = 0.0
    for i in range(w.shape[0] - 1):
        d = np.linalg.norm(w[i + 1 :] - w[i], axis=1)
        best = max(best, float(np.max(d)))
    return best


def reference_jsonl(trace):
    lines = []
    for n in range(trace.steps):
        lines.append(
            json.dumps(
                {
                    "n": n,
                    "x": [float(v) for v in trace.points[n]],
                    "lambda": float(trace.lambdas[n]),
                    "mu": float(trace.mus[n]),
                    "residual": float(trace.residuals[n]),
                },
                sort_keys=True,
            )
        )
    lines.append(
        json.dumps(
            {
                "n": trace.steps,
                "x": [float(v) for v in trace.points[trace.steps]],
                "lambda": None,
                "mu": None,
                "residual": None,
            },
            sort_keys=True,
        )
    )
    return "\n".join(lines) + "\n"


def trace_of(points):
    points = np.asarray(points, dtype=float)
    ones = np.ones(points.shape[0] - 1)
    return Trace(points, ones, ones, ones)


# signed zeros, subnormals, and values whose squares (or differences) overflow
SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 5e-324, -5e-324, 1e-310, -1e-310,
           2.2e-308, 1e154, -1e154, 1.5e154, 1e300, -1e300, 1.7e308]
SCALES = [1.0, 1e-320, 1e-300, 1e-160, 1e150, 1e300]


@st.composite
def windows(draw):
    """Rows drawn from a small pool, so rows repeat; some moved by one ulp
    for near-ties; or a random walk, whose chunks have small boxes."""
    d = draw(st.sampled_from([2, 3]))
    m = draw(st.sampled_from([1, 2, 3, 5, 17, 70, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(SCALES))
    if draw(st.booleans()):
        steps = rng.normal(size=(m, d)) * rng.choice([1.0, 1e-3], size=(m, 1))
        return np.cumsum(steps, axis=0) * scale
    k = draw(st.integers(1, 6))
    pool = rng.uniform(-4, 4, (k, d)) * scale
    special = rng.random((k, d)) < 0.4
    pool[special] = rng.choice(SPECIAL, special.sum())
    rows = pool[rng.integers(0, k, m)]
    nudge = rng.random(rows.shape) < 0.2
    rows[nudge] = np.nextafter(rows[nudge], rng.choice([-np.inf, np.inf], nudge.sum()))
    return rows


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(windows())
def test_window_diameter_matches_the_pairwise_scan(w):
    tr = trace_of(w)
    got = tr.window_diameter(0, tr.steps)
    assert np.float64(got).tobytes() == np.float64(pairwise_diameter(w)).tobytes()
    a, b = tr.steps // 3, tr.steps - tr.steps // 4
    assert tr.window_diameter(a, b) == pairwise_diameter(w[a : b + 1])


def test_window_diameter_of_a_long_repeating_trace():
    # two distinct points, as in a run that lands on its solution at once
    w = np.array([[0.5, 0.5]] + [[0.0, 1.0], [0.0, 1.0 + 2**-52]] * 20_000)
    tr = trace_of(w)
    assert tr.window_diameter(0, tr.steps) == pairwise_diameter(np.unique(w, axis=0))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_to_jsonl_matches_the_json_dumps_writer(d):
    rng = np.random.default_rng(d)
    n = 5000  # more than one block of rows
    points = rng.normal(size=(n + 1, d)) * rng.choice([1.0, 1e-300, 1e300], size=(n + 1, 1))
    points[rng.random(points.shape) < 0.1] = -0.0
    points[7] = 0.0
    lambdas, mus = rng.random(n) + 1e-3, 1.0 / np.arange(1.0, n + 1) ** 3
    residuals = np.abs(rng.normal(size=n))
    residuals[[0, 4095, 4096]] = [np.inf, -np.inf, np.nan]
    lambdas[17], mus[n - 1] = np.inf, 5e-324
    tr = Trace(points, lambdas, mus, residuals)
    assert tr.to_jsonl() == reference_jsonl(tr)
    finite = Trace(points[:3], lambdas[1:3], mus[1:3], residuals[1:3])
    assert finite.to_jsonl() == reference_jsonl(finite)
    assert trace_of(points[:1]).to_jsonl() == reference_jsonl(trace_of(points[:1]))
