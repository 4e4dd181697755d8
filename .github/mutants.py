"""Mutant check: each one-line mutant below must make one of its test files
fail a test that passes on the unmutated tree.

    python .github/mutants.py

CI runs it as its own job; it finds the repository from its own path. The
repository (without .git and caches) is copied to a temporary directory once.
Each entry's test files are first run there unmutated, and the tests that
fail then are recorded. Then each entry replaces its original line, which
must occur exactly once in its file as a whole line, runs its test files
with pytest, and restores the file. A mutant is killed when a test fails
that passed unmutated, so a test that fails for another reason (a console
script missing from PATH) kills nothing. Nothing is deselected or skipped.
Standard library only, besides the pytest the tests need.

It exits 1 if an original line is not found exactly once, or if a mutant
survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
VERIFICATION = "src/fejerquant/verification.py"
ITERATION = "src/fejerquant/iteration.py"
MODULI = "src/fejerquant/moduli.py"
FIELDS = "src/fejerquant/fields.py"
REGULARITY = "src/fejerquant/regularity.py"
CLI = "src/fejerquant/cli.py"

# (file, original line, replacement, test files of which one must fail)
MUTANTS = [
    # certify_metastability: N is decided at the rate psi
    (VERIFICATION,
     "        sound = bound.is_overflow or n_found <= int(bound)",
     "        sound = bound.is_overflow or n_found <= int(bound) + 1",
     ["tests/test_verification.py"]),
    # N_gamma is decided at the strengthened rate psi'
    (VERIFICATION,
     "        elif not ref.is_overflow and n_gamma > int(ref):",
     "        elif not ref.is_overflow and n_gamma > int(ref) + 1:",
     ["tests/test_verification.py"]),
    # no window of approximate solutions with a finite psi' is unsound: the
    # mutant is a wrong sound=True
    (VERIFICATION,
     "                sound = False",
     "                pass",
     ["tests/test_verification.py"]),
    # check_cauchy_modulus: theta = trace.steps is the one-point window at the
    # last step, not vacuous
    (VERIFICATION,
     "        if bound.is_overflow or int(bound) > trace.steps:",
     "        if bound.is_overflow or int(bound) >= trace.steps:",
     ["tests/test_verification.py"]),
    # build_empirical_phi: a constant tail is stationary only when the stage
    # maps provably fix it; a rounding stall is not convergence
    (VERIFICATION,
     "    stationary = first < steps and _verified_stage_fixed_point(inst, tail)",
     "    stationary = first < steps",
     ["tests/test_cli.py"]),
    # build_empirical_phi: the search stops before the constant tail, whose
    # 0.0 residuals at a rounding stall would answer phi there
    (VERIFICATION,
     "    return EmpiricalPhi(trace.residuals[:first], steps, first if stationary else None)",
     "    return EmpiricalPhi(trace.residuals, steps, first if stationary else None)",
     ["tests/test_verification.py", "tests/test_cli.py"]),
    # EmpiricalPhi: a query answers the qualifying index, not its start; an
    # answer too small makes psi too small, which can give a wrong sound=True
    (VERIFICATION,
     "                return n + hit",
     "                return n",
     ["tests/test_verification.py"]),
    # _verified_stage_fixed_point: a diagonal T needs the lambda = B end too
    (VERIFICATION,
     "    return ends is not None and in_box(s_lo, s_hi, ends[0]) and in_box(s_lo, s_hi, ends[1])",
     "    return ends is not None and in_box(s_lo, s_hi, ends[0])",
     ["tests/test_verification.py"]),
    # Certificate.digest: the builtin SHA-256, not hashlib, which loads OpenSSL
    (VERIFICATION,
     "        return sha256(blob.encode()).hexdigest()",
     '        return __import__("hashlib").sha256(blob.encode()).hexdigest()',
     ["tests/test_cli.py"]),
    # check_quasi_fejer: a row retires only when both right-hand sides reach
    # every later distance; a wider test retires a row that violates
    (VERIFICATION,
     "            retired = (rhs_prod >= later) & (rhs_exp >= later)",
     "            retired = (rhs_prod + 10 * _SLACK >= later) & (rhs_exp >= later)",
     ["tests/test_quasi_fejer.py"]),
    # a row retiring at offset l must still meet the distance at n + l + 1:
    # one offset too late, the next rise goes unchecked
    (VERIFICATION,
     "            later = top[:, a + l + 1 : b + l + 1]",
     "            later = top[:, a + l + 2 : b + l + 2]",
     ["tests/test_quasi_fejer.py"]),
    # the span keeps the last row not retired: without it that row is neither
    # advanced nor compared again
    (VERIFICATION,
     "            span = a + int(left[0]), a + int(left[-1]) + 1",
     "            span = a + int(left[0]), a + int(left[-1])",
     ["tests/test_quasi_fejer.py"]),
    # a violation is recorded at the offset the sweep compared it at
    (VERIFICATION,
     "                    at = np.full(s.size, l)",
     "                    at = np.full(s.size, l + 1)",
     ["tests/test_quasi_fejer.py"]),
    # retirement needs every rho >= 1 and mu >= 0: a hand-built trace with a
    # negative mu retires no row
    (VERIFICATION,
     "        if np.all(rho >= 1.0) and np.all(mus >= 0.0):",
     "        if True:",
     ["tests/test_quasi_fejer.py"]),
    # validate_regularity_ball: phi_reg's center has the instance's dimension;
    # broadcast against x0, one coordinate reads as a point of any dimension
    (REGULARITY,
     "    center = as_point(phi_reg.center, inst.dim)",
     "    center = as_point(phi_reg.center)",
     ["tests/test_cli.py"]),
    # ProblemInstance: dom S lies in dom T on the hi side of each coordinate too
    (ITERATION,
     "        if not (np.all(s_lo >= t_lo) and np.all(s_hi <= t_hi)):",
     "        if not np.all(s_lo >= t_lo):",
     ["tests/test_iteration.py"]),
    # _fixed_stages: a stage is fixed only when it returns every coordinate;
    # read at coordinate 0 alone, a d = 2 run that moves in coordinate 1 is
    # filled with the captured point
    (ITERATION,
     "            same = ((moved == x) & (np.signbit(moved) == sign)).all(axis=1)",
     "            same = ((moved == x) & (np.signbit(moved) == sign))[:, 0]",
     ["tests/test_stepper.py"]),
    # ... bit for bit: a stage that returns -0.0 for 0.0 does not fix it
    (ITERATION,
     "            same = ((moved == x) & (np.signbit(moved) == sign)).all(axis=1)",
     "            same = (moved == x).all(axis=1)",
     ["tests/test_stepper.py"]),
    # _stage_rows: a stage whose shifted point is not finite has no image; a
    # box S would clamp -inf back onto its end
    (ITERATION,
     "    if np.count_nonzero(finite) < finite.size:",
     "    if False:",
     ["tests/test_stepper.py"]),
    # _run_rows: the d > 1 loop raises where a stage has no image
    (ITERATION,
     "            if not len(x):",
     "            if False:",
     ["tests/test_stepper.py"]),
    # ... and steps on an infinite iterate without a warning: T's NaN from it
    # has no image either
    (ITERATION,
     '    with np.errstate(invalid="ignore"):'
     "  # T's NaN from a non-finite iterate is not reported",
     "    with np.errstate():",
     ["tests/test_stepper.py"]),
    # ParameterSchedule: a lambda that underflows to 0 within the horizon is
    # refused when the schedule is built; run steps on without a check
    (ITERATION,
     "        if not self.lam_rule.least_value(self.horizon) > 0:",
     "        if False:",
     ["tests/test_stepper.py"]),
    # _SchedulePieces: a query of a stage in another piece than the kept one
    # reads that stage's piece, also below the kept piece
    (ITERATION,
     "        if x // TILE != piece:",
     "        if x // TILE > piece:",
     ["tests/test_iteration.py"]),
    # ... and the sum of mu over the stages after a piece carries into it
    (ITERATION,
     "            suffix = _from_right(np.add, mus, mu_after)",
     "            suffix = _from_right(np.add, mus, 0.0)",
     ["tests/test_iteration.py"]),
    # psi's growth exit counts the stages left after this one, not one more:
    # with the cap at psi's value, the last stage must still be built
    (MODULI,
     "    top = cap.bit_length() - grow * (p - 1)",
     "    top = cap.bit_length() - grow * p",
     ["tests/test_moduli.py"]),
    # power_rate(c, 1) grows at slope c only for c >= 1: power_rate(1/2, 1) is
    # 0 at n = 1
    (MODULI,
     "        if p == 1 and c >= 1:  # ceil(c (n + 1)) - 1 >= c n + (c - 1)",
     "        if p == 1:",
     ["tests/test_moduli.py"]),
    # psi ends at a fixed point of its stages, not at a stage that moves by one
    (MODULI,
     "        if nxt <= val:  # one test on the exact path: a decrease or a fixed point",
     "        if nxt <= val + 1:",
     ["tests/test_moduli.py"]),
    # main: an output directory that cannot be made exits 2, naming it, and
    # not with a traceback under exit 1, the code of an unsound certificate
    (CLI,
     "        except OSError as exc:",
     "        except ValueError as exc:",
     ["tests/test_cli.py"]),
    # ... and so does a file of it that cannot be written
    (CLI,
     "    except OSError as exc:",
     "    except ValueError as exc:",
     ["tests/test_cli.py"]),
    # Record.to_json writes a tagged form's tag first: without it no operator,
    # schedule rule or modulus kind reads back
    (FIELDS,
     "        return form if self.tag is None else {self.tag: getattr(self, self.tag), **form}",
     "        return form",
     ["tests/test_forms.py"]),
]

IGNORE = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".perfbench_runs", "*.egg-info"
)


def failing_tests(copy: str, test_files: list[str]) -> set[str]:
    """The ids of the tests in ``test_files`` that fail or error in ``copy``."""
    report = os.path.join(copy, "mutants-report.xml")
    src = os.path.join(copy, "src")
    # no bytecode cache: a mutant and the next one may share a size and a
    # modification second, which would let a stale .pyc run
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--junitxml={report}", *test_files],
        cwd=copy, env=env, capture_output=True, text=True, timeout=1800,
    )
    if proc.returncode not in (0, 1) or not os.path.exists(report):
        raise SystemExit(f"pytest exited {proc.returncode} on {test_files}:\n{proc.stdout}{proc.stderr}")
    failed = set()
    for case in ET.parse(report).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(f"{case.get('classname')}::{case.get('name')}")
    os.remove(report)
    return failed


def main() -> int:
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        baseline = {}
        for files in sorted({tuple(files) for _, _, _, files in MUTANTS}):
            baseline[files] = failing_tests(copy, list(files))
            for test in sorted(baseline[files]):
                print(f"fails unmutated, kills nothing: {test}")
        for path, original, replacement, files in MUTANTS:
            target = os.path.join(copy, path)
            with open(target, encoding="utf-8") as fh:
                text = fh.read()
            lines = text.split("\n")
            found = [i for i, line in enumerate(lines) if line == original]
            if len(found) != 1:
                print(f"NOT FOUND ONCE ({len(found)}x) in {path}: {original.strip()}")
                bad.append(original)
                continue
            lines[found[0]] = replacement
            with open(target, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines))
            try:
                killers = failing_tests(copy, files) - baseline[tuple(files)]
            finally:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(text)
            where = f"{path}:{found[0] + 1}: {replacement.strip()}"
            if killers:
                print(f"killed   {where}\n         by {', '.join(sorted(killers))}")
            else:
                print(f"SURVIVED {where} ({', '.join(files)} all pass)")
                bad.append(original)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
