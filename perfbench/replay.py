"""Child-process side of the benchmark. Each mode runs in a fresh interpreter.

    python perfbench/replay.py setup CONFIG          time a CLI task's set-up
    python perfbench/replay.py untraced SPEC INDEX   run the grid script
    python perfbench/replay.py traced SPEC INDEX PASS  run an invocation with layer spans

``setup`` prints the seconds from before ``import fejerquant`` to a
validated instance.

``traced`` runs invocation INDEX of a pass spec with each layer call wrapped
in a span (name, parent, start, end, pass id, counts). A CLI invocation runs
``cli.main`` itself, on the same argv the untraced pass gives the CLI; the
layer functions it and the library call are wrapped by rebinding the module
or class attribute the caller looks up, so ``src/`` is not changed. The
regularity-grid workload has no CLI task; ``untraced`` and ``traced`` run the
grid script below. After the invocation it prints one JSON line: the spans,
the perf_counter instant the work finished, and, for the last invocation of
a pass, per-call operator timings replayed on the workload's own points and
parameters. It exits with the invocation's exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import workloads


class Tracer:
    """Spans kept in memory: [name, parent index, start, end, pass id, counts]."""

    def __init__(self, enabled: bool, pass_id: int = 0):
        self.enabled = enabled
        self.pass_id = pass_id
        self.spans: list = []
        self.last: dict = {}
        self._stack: list = []

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield counts
            return
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), None, self.pass_id, counts])
        self._stack.append(idx)
        try:
            yield counts
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(args, result) adds counts to it. The
        arguments and result of the last call are kept in self.last[name]."""

        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if count:
                    counts.update(count(args, result))
            self.last[name] = (args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None):
        """Rebind owner.attr to a traced wrapper; warn if it no longer exists."""
        fn = getattr(owner, attr, None)
        if fn is None:
            print(f"warning: cannot trace {name}: {owner!r} has no {attr}", file=sys.stderr)
            return
        setattr(owner, attr, self.wrap(name, fn, count))


def _write(out: str, name: str, text: str) -> None:
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def task_grid(tr, inst, inv):
    import numpy as np
    from fejerquant.regularity import (
        GapFunctional,
        grid_regularity_oracle,
        verify_regularity_on_grid,
    )

    grid = inv["grid"]
    zeros = [np.array(z, dtype=float) for z in grid["zeros"]]
    center = np.array([float(Fraction(c)) for c in grid["center"]])
    radius = Fraction(grid["radius"])
    eps_list = [Fraction(e) for e in grid["eps"]]
    oracle_points = workloads.grid_points(radius, min(eps_list) / 100)
    moduli = {}
    for variant in grid["gaps"]:
        gap = GapFunctional(variant, inst)
        with tr.span("regularity.grid_oracle", points=oracle_points):
            moduli[variant] = grid_regularity_oracle(gap, zeros, center, radius, eps_list)
    pitch = Fraction(grid["verify_pitch"])
    verify_gap = grid["verify_gap"]
    with tr.span("regularity.verify_grid", points=workloads.grid_points(radius, pitch)):
        ok = verify_regularity_on_grid(
            GapFunctional(verify_gap, inst), moduli[verify_gap], zeros,
            Fraction(grid["verify_eps"]), pitch,
        )
    result = {
        "entries": {v: m.to_json()["entries"] for v, m in moduli.items()},
        "verified": {verify_gap: ok},
    }
    with tr.span("cli.write"):
        _write(inv["out"], "grid_moduli.json", json.dumps(result, sort_keys=True, indent=2) + "\n")


def _checked(args, cert) -> dict:
    return {"checked": cert.witness["checked"]}


def patch_layers(tr) -> None:
    """Trace every layer call a CLI task or the library makes."""
    from fejerquant import cli, iteration, verification

    tr.patch(cli, "load_config", "cli.load_build")
    tr.patch(cli, "build_instance", "cli.load_build")
    tr.patch(cli, "_write", "cli.write")
    tr.patch(iteration.QuantitativeData, "validate_against", "iteration.validate_against")
    tr.patch(cli, "run", "iteration.run", count=lambda args, _: {"steps": args[1]})
    tr.patch(iteration.Trace, "to_jsonl", "iteration.to_jsonl",
             count=lambda _, text: {"bytes": len(text)})
    tr.patch(cli, "build_empirical_phi", "verification.build_phi")
    tr.patch(cli, "certify_metastability", "verification.certify_metastability")
    tr.patch(cli, "check_quasi_fejer", "verification.quasi_fejer", count=_checked)
    tr.patch(cli, "check_approx_error", "verification.approx_error", count=_checked)
    tr.patch(cli, "check_cauchy_modulus", "verification.cauchy_check")
    tr.patch(cli, "validate_regularity_ball", "regularity.validate_ball")
    tr.patch(cli, "theta_moudafi", "regularity.theta")
    tr.patch(verification, "find_metastable", "verification.find_metastable")
    tr.patch(verification, "psi", "moduli.psi")
    tr.patch(verification, "psi_prime", "moduli.psi_prime")
    tr.patch(verification, "total_boundedness_P", "moduli.total_boundedness_P")
    tr.patch(verification, "gamma_k_check", "iteration.gamma_k_check")
    tr.patch(
        iteration.Trace, "window_diameter", "verification.window_diameter",
        count=lambda args, _: {"points": args[2] - args[1] + 1},
    )


# --------------------------------------------------------------------------
# per-call operator timings, replayed on the workload's own calls
# --------------------------------------------------------------------------

_MICRO_CALLS = 1000
_MICRO_REPEATS = 3


def _per_call_us(fn, args_list) -> float:
    """Median over repeats of the mean time per call, in microseconds."""
    import statistics

    times = []
    for _ in range(_MICRO_REPEATS):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(args_list) * 1e6)
    return statistics.median(times)


def micro(inst, trace, inv, seed: int) -> dict:
    """Per-call time of the operator functions on the workload's recorded
    points and parameters (grid points for the grid workload), taken in a
    seeded order; and of the gap functionals where the workload uses them."""
    import numpy as np
    from fejerquant import operators
    from fejerquant.regularity import GapFunctional, eval_gap

    rng = np.random.default_rng(seed)
    if trace is not None:
        idx = rng.permutation(trace.steps)[:_MICRO_CALLS]
        points = trace.points[idx]
        lams = trace.lambdas[idx]
        mus = trace.mus[idx]
    else:
        grid = inv["grid"]
        c = float(Fraction(grid["center"][0]))
        r = float(Fraction(grid["radius"]))
        points = rng.permutation(np.linspace(c - r, c + r, 4 * _MICRO_CALLS + 1))
        points = points[:_MICRO_CALLS, None]
        lams = np.full(len(points), inst.schedule.lam(0))
        mus = np.full(len(points), inst.schedule.mu(0))
    yos_args = [(inst.T, float(l), x) for l, x in zip(lams, points)]
    shifted = [x + m * operators.yosida(inst.T, float(l), x) for l, m, x in zip(lams, mus, points)]
    res_args = [(inst.S, float(m), y) for m, y in zip(mus, shifted)]
    eval_args = [(op, x) for x in points for op in (inst.T, inst.S)]
    out = {
        "operators.resolvent_us": _per_call_us(operators.resolvent, res_args),
        "operators.yosida_us": _per_call_us(operators.yosida, yos_args),
        "operators.evaluate_us": _per_call_us(operators.evaluate, eval_args),
        "operators.minimal_selection_us": _per_call_us(
            operators.minimal_selection, [(inst.T, x) for x in points]
        ),
        "regularity.eval_gap_us": 0.0,
    }
    if trace is None:
        gap_args = [(GapFunctional(v, inst), x) for x in points for v in inv["grid"]["gaps"]]
        out["regularity.eval_gap_us"] = _per_call_us(eval_gap, gap_args)
    return out


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def setup_probe(config: str) -> None:
    t0 = time.perf_counter()
    from fejerquant import cli

    inst = cli.build_instance(cli.load_config(config))
    inst.quant.validate_against(inst.schedule)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def run_grid(tr, inv):
    """The regularity-grid script: set-up as a CLI task makes it, then the grid."""
    from fejerquant import cli

    with tr.span("cli.load_build"):
        inst = cli.build_instance(cli.load_config(inv["config"]))
    with tr.span("iteration.validate_against"):
        inst.quant.validate_against(inst.schedule)
    task_grid(tr, inst, inv)
    return 0, inst, None


def run_cli(tr, inv):
    """The CLI task itself, on the argv the untraced pass gives it."""
    from fejerquant import cli

    patch_layers(tr)
    code = cli.main([inv["task"], "--config", inv["config"], "--out", inv["out"]])
    # the last cli.load_build call is build_instance, which returns the instance
    inst = tr.last["cli.load_build"][1]
    return code, inst, tr.last["iteration.run"][1]


def replay(spec_path: str, index: int, traced: bool, pass_id: int = 0) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    inv = spec["invocations"][index]
    tr = Tracer(traced, pass_id)
    if inv["task"] == "grid":
        code, inst, trace = run_grid(tr, inv)
    else:
        code, inst, trace = run_cli(tr, inv)
    done_at = time.perf_counter()
    if traced:
        last = index == len(spec["invocations"]) - 1
        result = {
            "spans": tr.spans,
            "done_at": done_at,
            "micro": micro(inst, trace, inv, spec["seed"]) if last else {},
        }
        print(json.dumps(result))
    return code


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        setup_probe(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "untraced":
        return replay(argv[1], int(argv[2]), False)
    if len(argv) == 4 and argv[0] == "traced":
        return replay(argv[1], int(argv[2]), True, int(argv[3]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
