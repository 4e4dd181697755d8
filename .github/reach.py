"""Reach check: every function defined under src/fejerquant is entered by a
CLI task or a benchmark workload, or is allowlisted with its reason.

    python .github/reach.py

CI runs it after the CLI smoke script; it finds the repository from its own
path. Three sets of runs are made, each in fresh interpreters that record
every function they enter: the CLI smoke script (.github/cli-smoke.sh), the
four benchmark workloads at ``--size tiny --trace 0``, and the extra configs
below, which reach the config forms and tasks that neither of the others
uses. A ``sitecustomize`` module written to a temporary directory on
PYTHONPATH installs the recorder with ``sys.setprofile``, so it also reaches
the child processes that perfbench/run.py starts. Standard library only.

It prints each ``def`` that no run entered and exits 1 if any is not on
ALLOWED; a stale ALLOWED entry (a name that no longer exists, or one that a
run now enters) fails too. A run that exits otherwise than expected fails
the check before any reach is judged.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
PACKAGE = os.path.join(ROOT, "src", "fejerquant")
WORKLOADS = ("meta-1d", "lemmas-1d", "trace-cauchy-2d", "regularity-grid")
CLI = "import sys; from fejerquant.cli import main; sys.exit(main(sys.argv[1:]))"

# module.qualname -> why the function may stay without a CLI task or workload
# entering it
ALLOWED = {
    "iteration.preset": "the library entry point of the README's quickstart",
    "regularity.eval_gap": "perfbench/replay.py times it per call (--trace 1)",
    "operators.resolvent": "the public one-row resolvent, checked, for library callers; "
    "tests/test_operators.py and tests/test_iteration.py use it as their reference",
    "iteration.ParameterSchedule.lam": "perfbench/replay.py reads the stage-0 lambda "
    "(--trace 1); a membership check reads it at the last point of a trace",
    "fields.Record.__setattr__": "keeps a record frozen; no task assigns to one "
    "(tests/test_records.py)",
    "fields.Record.__delattr__": "keeps a record frozen; no task deletes a field "
    "(tests/test_records.py)",
    "fields.Record.__repr__": "a record's text for library callers and test failures; "
    "no task prints a record (tests/test_records.py pins it)",
    "fields._field_values": "the field tuple of the value equality below",
    "fields._fields_equal": "value equality of the eq=True records for library callers; "
    "no task compares two records (tests/test_records.py)",
    "fields._fields_hash": "the hash that goes with that equality; no task hashes a record "
    "(tests/test_records.py)",
}

# the recorder: the code objects each process enters, written at exit as
# "path<TAB>first line" for the files under REACH_PACKAGE
SITECUSTOMIZE = '''
import atexit, os, sys, threading

_seen = set()


def _record(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    package = os.environ["REACH_PACKAGE"] + os.sep
    rows = set()
    for code in _seen:
        path = os.path.realpath(code.co_filename)
        if path.startswith(package):
            rows.add(f"{path}\\t{code.co_firstlineno}\\n")
    name = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt")
    with open(name, "a", encoding="utf-8") as fh:
        fh.writelines(sorted(rows))


atexit.register(_dump)
threading.setprofile(_record)
sys.setprofile(_record)
'''

QUANT_1D = {"A": "2", "B": 1, "Bprime": 0, "C": "1", "M": 2, "L": "4", "d": 1,
            "theta": {"kind": "power_rate", "c": "1", "p": 1},
            "xi": {"kind": "power_sum_rate", "c": "1", "p": 3},
            "varpi": {"kind": "identity"}}
SCHEDULE = {"lambda": {"rule": "power", "c": 1, "p": 1},
            "mu": {"rule": "power", "c": 1, "p": 3}, "horizon": 1000}
VARPI_TABLE = {"kind": "table", "values": [0, 1, 2, 3, 4, 5, 6, 7]}
# dc-abs-1d's schedule as table rules
TABLE_SCHEDULE = {
    "problem": "dc-abs-1d",
    "schedule": {"lambda": {"rule": "table", "values": [1 / (n + 1) for n in range(61)]},
                 "mu": {"rule": "table", "values": [1 / (n + 1) ** 3 for n in range(61)]},
                 "horizon": 60},
    "quant": {**QUANT_1D, "varpi_hat": {"kind": "identity"}},
}
# T = Id and S = 0: the path moves away from the zero at the origin
ID_ZERO = {"T": {"kind": "affine_psd", "matrix": [[1.0]], "offset": [0.0]},
           "S": {"kind": "zero", "dim": 1}, "x0": [0.5]}


def _moduli_eval(modulus: str, **params) -> tuple:
    return ("moduli-eval", {"params": {"modulus": modulus, **params}}, [], 0)


# (task, config, extra arguments, expected exit code)
EXTRA = [
    _moduli_eval("delta", k=3),
    _moduli_eval("omega", k=1, M=2, varpi={"kind": "identity"}),
    # a table modulus, read inside its declared range
    _moduli_eval("omega", k=0, M=1, varpi=VARPI_TABLE),
    _moduli_eval("varpi_prime", k=2, B=1, varpi={"kind": "affine", "a": 2, "b": 1}),
    _moduli_eval("chi", r=1, n=2, m=3, A="1"),
    _moduli_eval("xi_tilde", n=3, M=2, A="2", xi={"kind": "power_sum_rate", "c": "1", "p": 3}),
    _moduli_eval("P", k=1, A="2", L="4", d=2),
    _moduli_eval("kappa_hat", k=1, M=2, B=1, Bprime=0, varpi={"kind": "polynomial",
                                                               "coeffs": [1, 1]}),
    ("moduli-eval", {"params": {"modulus": "kappa", "k": 0, "M": 1, "B": 1}},
     ["--dump-config"], 0),
    ("run", {"problem": "box-affine-nd"}, ["--dump-config"], 0),
    ("run", {"problem": "affine-affine-nd"}, ["--horizon", "30"], 0),
    # table schedule rules, read by the stepper and by the ball radius's
    # exact partial sums, and written back
    ("cauchy-modulus", {
        **TABLE_SCHEDULE,
        "params": {"steps": 60, "b": "1/2", "eps": ["1/4"], "use_kappa_hat": True,
                   "phi_reg": {"kind": "linear", "provenance": "analytic", "center": [0.0],
                               "radius": "5", "scale": "1"}},
    }, ["--csv"], 0),
    ("run", TABLE_SCHEDULE, ["--dump-config"], 0),
    # T = d|.| stepped by its scalar Yosida form, S = 0; mu's powers (n+1)^20
    # pass int64 from stage 8
    ("run", {"problem": {"T": {"kind": "subdiff_abs", "dim": 1},
                         "S": {"kind": "zero", "dim": 1}, "x0": [0.5]},
             "schedule": {**SCHEDULE, "mu": {"rule": "power", "c": 1, "p": 20}, "horizon": 40},
             "quant": QUANT_1D, "params": {"steps": 40}}, [], 0),
    # the lemmas with S = 0: its value set at the zero, its stage resolvents
    ("check-lemmas", {"problem": {**ID_ZERO, "known_solutions": [[0.0]]}, "schedule": SCHEDULE,
                      "quant": QUANT_1D,
                      "params": {"max_n": 10, "max_l": 10, "max_i": 10, "steps": 20}}, [], 0),
    # a box S in d = 1, stepped by its scalar clamp: T x = x - 2 takes the
    # path to the end 0 of [0, 1]
    ("run", {"problem": {"T": {"kind": "affine_psd", "matrix": [[1.0]], "offset": [-2.0]},
                         "S": {"kind": "normal_cone_box", "lo": [0.0], "hi": [1.0]},
                         "x0": [0.5]},
             "schedule": SCHEDULE, "quant": QUANT_1D, "params": {"steps": 40}}, [], 0),
    # ... and with a known solution that is none (T°x* is not in Sx*), listed
    # as a premise violation: the check is unsound (exit 1)
    ("check-lemmas", {"problem": {**ID_ZERO, "known_solutions": [[0.0], [0.25]]},
                      "schedule": SCHEDULE, "quant": QUANT_1D,
                      "params": {"max_n": 10, "max_l": 10, "max_i": 10, "steps": 20}}, [], 1),
    # a rounding stall: T = 0 and S x = 1e-20 x leave x0 = 1 where it is in
    # float64, though it is no zero of S, and T = 0 bounds no Yosida values
    # that could prove it fixed, so phi has no stationary tail (exit 2)
    ("certify-metastability", {"problem": {"T": {"kind": "zero", "dim": 1},
                                           "S": {"kind": "affine_psd", "matrix": [[1e-20]],
                                                 "offset": [0.0]}, "x0": [1.0]},
                               "schedule": SCHEDULE, "quant": QUANT_1D, "params": {"steps": 40}},
     [], 2),
    # a phi query past a moving trace, which only a verified stationary tail
    # could answer: the task exits 2; k_max is read and ignored
    ("certify-metastability", {"problem": ID_ZERO, "schedule": SCHEDULE, "quant": QUANT_1D,
                               "params": {"steps": 40, "k_max": 1}}, [], 2),
    # a phi query inside a moving trace that no later residual answers: the
    # path of affine-affine-nd stays above 1/106 from step 1,165 on (exit 2)
    ("certify-metastability", {"problem": "affine-affine-nd", "params": {"k": 0, "steps": 2000}},
     [], 2),
]


def defs(path: str) -> list:
    """(first line, qualified name) of every def in a module, nested ones
    included; the first line is a decorator's where there is one, as in
    co_firstlineno."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, prefix + child.name))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def check(cmd: list, env: dict, want: int, what: str) -> str:
    """The stdout of cmd, which must exit with the code want."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != want:
        sys.exit(f"reach: {what} exited {proc.returncode}, expected {want}\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.stdout


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        hook, out, configs = (os.path.join(tmp, d) for d in ("hook", "out", "configs"))
        for d in (hook, out, configs):
            os.mkdir(d)
        with open(os.path.join(hook, "sitecustomize.py"), "w", encoding="utf-8") as fh:
            fh.write(SITECUSTOMIZE)
        env = dict(os.environ, REACH_PACKAGE=PACKAGE, REACH_OUT=out)
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (hook, os.path.join(ROOT, "src"), old) if p)

        check(["bash", os.path.join(ROOT, ".github", "cli-smoke.sh")], env, 0, "cli-smoke.sh")
        for workload in WORKLOADS:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--size", "tiny", "--trace", "0", "--seconds", "1"]
            result = json.loads(check(cmd, env, 0, f"workload {workload}").splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"reach: workload {workload} gave other verdicts than expected.json")
        for i, (task, cfg, extra, want) in enumerate(EXTRA):
            path = os.path.join(configs, f"{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            cmd = [sys.executable, "-c", CLI, task, "--config", path,
                   "--out", os.path.join(tmp, "run", str(i)), *extra]
            check(cmd, env, want, f"extra config {i} ({task} {' '.join(extra)})")

        entered = set()
        for name in os.listdir(out):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                entered.update(tuple(line.rstrip("\n").split("\t")) for line in fh)

    names, missed = set(), []
    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(PACKAGE, module))
        for first, qualname in defs(path):
            name = f"{module[:-3]}.{qualname}"
            names.add(name)
            if (path, str(first)) not in entered:
                missed.append(name)
    failed = False
    for name in missed:
        if name in ALLOWED:
            print(f"allowed, not entered: {name} ({ALLOWED[name]})")
        else:
            print(f"NOT ENTERED: {name}")
            failed = True
    for name in ALLOWED:
        if name not in missed:
            print(f"stale allowlist entry: {name}")
            failed = True
    print(f"reach: {len(names) - len(missed)} of {len(names)} functions entered, "
          f"{len(missed)} not entered, {len(ALLOWED)} allowed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
