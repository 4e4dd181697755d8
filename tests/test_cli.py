"""Command-line entry point: presets, config validation, tasks, exit codes."""

import gc
import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import fejerquant as fq
from fejerquant import cli, preset
from fejerquant.cli import _parse_cap, build_instance, main
from fejerquant.errors import ConfigError, UnknownPreset
from fejerquant.iteration import PowerRule
from fejerquant.operators import NormalConeBox, SubdiffAbsSum
from records import replace


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def nested(depth: int):
    """The number 0.0 inside depth nested lists."""
    value = 0.0
    for _ in range(depth):
        value = [value]
    return value


# an analytic regularity modulus for dc-abs-1d's cauchy-modulus configs
PHI_REG = {"kind": "linear", "provenance": "analytic", "center": [0.0], "radius": "5", "scale": "1"}


# --------------------------------------------------------------------------
# presets
# --------------------------------------------------------------------------


def test_preset_catalog():
    dc = preset("dc-abs-1d")
    assert isinstance(dc.S, SubdiffAbsSum)
    assert sorted(float(s[0]) for s in dc.known_solutions) == [-1.0, 0.0, 1.0]
    aa = preset("affine-affine-nd")
    assert aa.dim == 2 and np.all(aa.known_solutions[0] == 0.0)
    ba = preset("box-affine-nd")
    assert isinstance(ba.S, NormalConeBox)
    assert ba.known_solutions[0].tolist() == [0.0, 1.0]
    with pytest.raises(UnknownPreset):
        preset("dc-abs-2d")


def test_presets_satisfy_their_certified_constants():
    for name in ("dc-abs-1d", "affine-affine-nd", "box-affine-nd"):
        inst = preset(name)
        inst.quant.validate_against(inst.schedule)


def test_importing_the_package_does_not_import_the_cli():
    # the presets live beside ProblemInstance, so the library needs no argparse
    code = (
        "import sys, fejerquant; fejerquant.preset('dc-abs-1d'); "
        "print(sorted({'fejerquant.cli', 'argparse'} & set(sys.modules)))"
    )
    assert fresh_output(code) == "[]"


# --------------------------------------------------------------------------
# start-up: each process loads only the layers its task runs
# --------------------------------------------------------------------------


def fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -c code *argv`` in a new interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(fq.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=60, env=env
    )


def fresh_output(code: str, *argv: str) -> str:
    """The last line ``code`` prints in a new interpreter, which must exit 0."""
    proc = fresh(code, *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


PUBLIC_NAMES = [
    "AffinePSD", "Certificate", "ConfigError", "Counterfunction", "DEFAULT_CAP",
    "DimensionMismatch", "DomainError", "EmpiricalPhi", "EmptyGrid", "FejerQuantError",
    "GHModuli", "GapFunctional", "HorizonExceeded", "InvariantViolation", "MissingSolutions",
    "ModulusFn", "NaturalBound", "NegativeExponent", "NonPositiveParameter", "NormalConeBox",
    "ParameterSchedule", "PowerRule", "ProblemInstance", "QuantitativeData",
    "RegularityModulus", "ResidualFloor", "ScheduleError", "SingularSystem", "SubdiffAbsSum",
    "TableRangeError", "TableRule", "Trace", "UnknownPreset", "ZeroInfimum", "ZeroOperator",
    "bounded_sub", "build_empirical_phi", "certify_metastability", "check_approx_error",
    "check_cauchy_modulus", "check_quasi_fejer",
    "chi", "delta", "eval_gap", "eval_gaps", "evaluate",
    "exp_upper", "find_metastable", "gamma_k_check", "grid_regularity_oracle",
    "in_box", "kappa", "kappa_hat", "least_norm", "minimal_selection",
    "omega", "phi_liminf", "preset", "psi", "psi_prime", "resolvent", "resolvent_rows", "run",
    "sqrt_upper", "theta_generic", "theta_moudafi", "total_boundedness_P",
    "validate_regularity_ball", "value_rows", "varpi_prime", "xi_tilde", "yosida", "yosida_rows",
]


def test_importing_the_package_loads_no_submodule():
    code = "import sys, fejerquant; print(sorted(m for m in sys.modules if m.startswith('fejerquant.')))"
    assert fresh_output(code) == "[]"


def test_public_names_are_the_objects_of_their_defining_modules():
    # a name whose object records its module must come from that module;
    # the rest (DEFAULT_CAP) from the module the package's table names
    code = """
import importlib, json, fejerquant as fq
star = {}
exec("from fejerquant import *", star)
wrong = []
for name in fq.__all__:
    obj = getattr(fq, name)
    home = getattr(obj, "__module__", None) or "fejerquant." + fq._MODULE_OF[name]
    if not home.startswith("fejerquant.") or getattr(importlib.import_module(home), name) is not obj:
        wrong.append(name)
    if star.get(name) is not obj:
        wrong.append("*" + name)
print(json.dumps([sorted(fq.__all__), wrong]))
"""
    names, wrong = json.loads(fresh_output(code))
    assert names == PUBLIC_NAMES
    assert wrong == []


def test_moduli_eval_loads_no_numpy(tmp_path):
    cfg = write_config(tmp_path, {"params": {"modulus": "kappa", "k": 0, "M": 1, "B": 1}})
    code = "import sys; from fejerquant.cli import main; main(sys.argv[1:]); print('numpy' in sys.modules)"
    assert fresh_output(code, "moduli-eval", "--config", cfg) == "False"


def test_no_task_loads_dataclasses(tmp_path):
    # the records build their methods without the dataclasses module, which
    # generates code for each class at import; cauchy-modulus loads every module
    cfg = write_config(tmp_path, {"problem": "dc-abs-1d",
                                  "params": {"steps": 50, "b": "1/2", "phi_reg": PHI_REG}})
    code = (
        "import sys; import fejerquant.cli; at_import = 'dataclasses' in sys.modules\n"
        "code = fejerquant.cli.main(sys.argv[1:])\n"
        "print(at_import, code, 'dataclasses' in sys.modules)"
    )
    out = fresh_output(code, "cauchy-modulus", "--config", cfg, "--out", str(tmp_path))
    assert out == "False 0 False"


@pytest.mark.parametrize(
    "argv,params,exit_code",
    [
        (["run"], {"steps": 10}, 0),
        (["certify-metastability", "--dump-config"], {"k": 0}, 0),
        (["check-lemmas"], {"max_n": 1.5}, 2),
    ],
)
def test_tasks_that_certify_nothing_load_no_certificate_layer(tmp_path, argv, params, exit_code):
    cfg = write_config(tmp_path, {"problem": "dc-abs-1d", "params": params})
    # numpy 1.x loads hashlib itself (numpy.random imports secrets)
    code = (
        "import sys, numpy; numpy_hashlib = 'hashlib' in sys.modules\n"
        "from fejerquant.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "layers = {'fejerquant.verification', 'fejerquant.regularity'} & set(sys.modules)\n"
        "print(code, sorted(layers), 'hashlib' in sys.modules and not numpy_hashlib)"
    )
    out = fresh_output(code, *argv, "--config", cfg, "--out", str(tmp_path))
    assert out == f"{exit_code} [] False"


@pytest.mark.parametrize(
    "task,params",
    [
        ("certify-metastability", {"k": 0, "steps": 50, "use_psi_prime": True}),
        ("check-lemmas", {"max_n": 10, "max_l": 10, "max_i": 15, "steps": 25}),
        ("cauchy-modulus", {"steps": 50, "b": "1/2", "phi_reg": PHI_REG}),
    ],
)
def test_certificate_digests_load_no_openssl(tmp_path, task, params):
    # the digest uses the interpreter's builtin SHA-256: hashlib's _hashlib
    # maps libcrypto. numpy 1.x loads hashlib itself (numpy.random imports
    # secrets), and a build without _sha2/_sha256 falls back to hashlib.
    cfg = write_config(tmp_path, {"problem": "dc-abs-1d", "params": params})
    code = (
        "import importlib.util, sys, numpy\n"
        "numpy_hashlib = '_hashlib' in sys.modules\n"
        "builtin = any(importlib.util.find_spec(m) for m in ('_sha2', '_sha256'))\n"
        "from fejerquant.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, '_hashlib' in sys.modules and builtin and not numpy_hashlib)"
    )
    out = fresh_output(code, task, "--config", cfg, "--out", str(tmp_path))
    assert out == "0 False"
    (written,) = tmp_path.glob("*_*.json")
    certs = json.loads(written.read_text())
    for cert in certs if isinstance(certs, list) else [certs]:
        assert cert["digest"] == reference_digest(cert["params"])


def reference_digest(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize(
    "params",
    [{}, {"k": 3, "eps": ["1/4"], "b": "1/2"}, {"k": 10**400, "name": "é☃", "x": [0.1, None]}],
)
def test_certificate_digest_is_the_sha256_of_the_canonical_params(params):
    from fejerquant.verification import Certificate

    cert = Certificate(kind="metastability", params=params, witness={}, bound=None, sound=True,
                       provenance={})
    assert cert.digest == reference_digest(params)


# the cli names perfbench/replay.py's patch_layers rebinds to trace a task
TRACED_CLI_NAMES = [
    "load_config", "build_instance", "_write", "run", "build_empirical_phi",
    "certify_metastability", "check_quasi_fejer", "check_approx_error",
    "check_cauchy_modulus", "validate_regularity_ball", "theta_moudafi",
]
SET_UP = {"load_config": 1, "build_instance": 1, "run": 1, "_write": 1}


@pytest.mark.parametrize(
    "task,params,calls",
    [
        ("run", {"steps": 10}, {}),
        (
            "check-lemmas",
            {"max_n": 10, "max_l": 10, "max_i": 20},
            {"check_quasi_fejer": 1, "check_approx_error": 1},
        ),
        (
            "certify-metastability",
            {"k": 0, "steps": 50},
            {"build_empirical_phi": 1, "certify_metastability": 1},
        ),
        (
            "cauchy-modulus",
            {"steps": 50, "phi_reg": {"kind": "linear", "provenance": "analytic",
                                      "center": [0.0], "radius": "5", "scale": "1"}, "b": "1/2"},
            {"validate_regularity_ball": 1, "build_empirical_phi": 1, "theta_moudafi": 1,
             "check_cauchy_modulus": 1},
        ),
    ],
)
def test_a_rebinding_made_before_main_is_called_by_the_task(tmp_path, task, params, calls):
    cfg = write_config(tmp_path, {"problem": "dc-abs-1d", "params": params})
    code = f"""
import json, sys
from collections import Counter
from fejerquant import cli
counts = Counter()

def counting(name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper

for name in {TRACED_CLI_NAMES!r}:
    setattr(cli, name, counting(name, getattr(cli, name)))
print(cli.main(sys.argv[1:]), json.dumps(counts, sort_keys=True))
"""
    out = fresh_output(code, task, "--config", cfg, "--out", str(tmp_path))
    assert out == f"0 {json.dumps({**SET_UP, **calls}, sort_keys=True)}"


# --------------------------------------------------------------------------
# exit: main freezes the heap at exit, so shutdown's collections skip it
# --------------------------------------------------------------------------

# a probe registered before main runs after main's hook (atexit is LIFO)
COUNT_FREEZES = """
import atexit, gc, sys
freezes = []
real_freeze = gc.freeze
gc.freeze = lambda: (freezes.append(1), real_freeze())
atexit.register(lambda: print("freezes", len(freezes), gc.get_freeze_count() > 0, flush=True))
"""


def test_every_exit_path_of_main_runs_with_a_frozen_heap(tmp_path):
    good = write_config(tmp_path, {"problem": "dc-abs-1d", "params": {"steps": 10}})
    bad = write_config(tmp_path, {"problem": "dc-abs-1d", "params": {"steps": -1}}, "bad.json")
    code = f"""
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit", gc.get_freeze_count() > 0, flush=True))
from fejerquant.cli import main
out = {str(tmp_path)!r}
print("codes", main(["run", "--config", {good!r}, "--out", out]),
      main(["run", "--config", {good!r}, "--dump-config"]), flush=True)
sys.exit(main(["run", "--config", {bad!r}, "--out", out]))
"""
    proc = fresh(code)
    assert proc.returncode == 2
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("trace: 10 steps") and lines[1].startswith("final point")
    assert json.loads("\n".join(lines[2:-2]))["params"] == {"steps": 10}
    assert lines[-2:] == ["codes 0 0", "frozen at exit True"]
    assert proc.stderr.startswith("config/problem error: steps:")
    assert (tmp_path / "trace.jsonl").read_text().count("\n") == 11


def test_the_exit_hook_is_registered_once_per_process(tmp_path):
    cfg = write_config(tmp_path, {"params": {"modulus": "delta", "k": 3}})
    code = COUNT_FREEZES + "from fejerquant.cli import main\nmain(sys.argv[1:]); main(sys.argv[1:])"
    proc = fresh(code, "moduli-eval", "--config", cfg)
    assert proc.returncode == 0 and proc.stdout.splitlines() == ["7", "7", "freezes 1 True"]


def test_importing_the_cli_registers_no_exit_hook():
    assert fresh_output(COUNT_FREEZES + "import fejerquant.cli") == "freezes 0 False"


def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": "dc-abs-1d", "params": {"steps": 10}})
    before = (gc.get_freeze_count(), gc.isenabled())
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_the_traced_names_are_those_the_benchmark_rebinds():
    replay = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "replay.py")
    with open(replay, encoding="utf-8") as fh:
        rebound = re.findall(r'tr\.patch\(cli, "(\w+)"', fh.read())
    assert sorted(rebound) == sorted(TRACED_CLI_NAMES)


# --------------------------------------------------------------------------
# the run task
# --------------------------------------------------------------------------


def test_run_task_writes_a_trace(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": "dc-abs-1d", "params": {"steps": 100}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trace.jsonl").read_text().strip().split("\n")
    assert len(lines) == 101
    last = json.loads(lines[-1])
    assert last["n"] == 100 and last["residual"] is None
    assert "trace: 100 steps" in capsys.readouterr().out


def test_run_task_horizon_flag_overrides_steps(tmp_path):
    cfg = write_config(tmp_path, {"problem": "dc-abs-1d", "params": {"steps": 100}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path), "--horizon", "5"]) == 0
    assert len((tmp_path / "trace.jsonl").read_text().strip().split("\n")) == 6


def test_all_presets_run_clean(tmp_path):
    for name in ("dc-abs-1d", "affine-affine-nd", "box-affine-nd"):
        cfg = write_config(tmp_path, {"problem": name, "params": {"steps": 50}}, f"{name}.json")
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0


# --------------------------------------------------------------------------
# config validation and exit codes
# --------------------------------------------------------------------------


def test_unknown_preset_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": "mystery"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_unknown_config_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": "dc-abs-1d", "model": "x"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown config fields" in capsys.readouterr().err


def test_unknown_params_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": "dc-abs-1d", "params": {"stepz": 2}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown params" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000],
                         ids=["not UTF-8", "nested 100,000 deep"])
def test_a_config_that_cannot_be_decoded_exits_2(tmp_path, capsys, content):
    # a UnicodeDecodeError and a RecursionError: a traceback and exit 1
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"config/problem error: cannot read config {path}: " in capsys.readouterr().err


def test_an_output_directory_that_cannot_be_made_exits_2_before_the_run(
    tmp_path, capsys, monkeypatch
):
    # a FileExistsError and a NotADirectoryError under exit 1, after the run
    monkeypatch.setattr(cli, "run", None)
    cfg = write_config(tmp_path, {"problem": "dc-abs-1d", "params": {"steps": 100}})
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config/problem error: cannot make output directory {out}: " in err


def test_an_output_file_that_cannot_be_written_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": "dc-abs-1d", "params": {"k": 0, "steps": 50}})
    (tmp_path / "metastability_k0.json").mkdir()
    assert main(["certify-metastability", "--config", cfg, "--out", str(tmp_path)]) == 2
    target = tmp_path / "metastability_k0.json"
    assert f"config/problem error: cannot write {target}: " in capsys.readouterr().err


def test_a_csv_path_that_is_a_directory_exits_2(tmp_path, capsys):
    # the CSV was written outside main's error handling
    cfg = write_config(tmp_path, LEMMAS_TINY)
    (tmp_path / "certificates.csv").mkdir()
    assert main(["check-lemmas", "--config", cfg, "--out", str(tmp_path), "--csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out.count("sound=True") == 2
    target = tmp_path / "certificates.csv"
    assert f"config/problem error: cannot write {target}: " in captured.err


def test_inline_problem_requires_schedule_and_quant(tmp_path, capsys):
    inst = preset("dc-abs-1d")
    problem = {
        "T": {"kind": "affine_psd", "matrix": [[1.0]], "offset": [0.0]},
        "S": {"kind": "subdiff_abs", "dim": 1},
        "x0": [0.5],
    }
    cfg = write_config(tmp_path, {"problem": problem})
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "explicit schedule and quant" in capsys.readouterr().err
    full = {
        "problem": problem,
        "schedule": inst.schedule.to_json(),
        "quant": inst.quant.to_json(),
        "params": {"steps": 10},
    }
    cfg2 = write_config(tmp_path, full, "full.json")
    assert main(["run", "--config", cfg2, "--out", str(tmp_path)]) == 0


def test_unsound_certificates_exit_1(tmp_path, capsys):
    # inline problem declaring 0.5 a solution: the premise check must fail
    inst = preset("dc-abs-1d")
    cfg = write_config(
        tmp_path,
        {
            "problem": {
                "T": {"kind": "affine_psd", "matrix": [[1.0]], "offset": [0.0]},
                "S": {"kind": "subdiff_abs", "dim": 1},
                "x0": [0.5],
                "known_solutions": [[0.5]],
            },
            "schedule": inst.schedule.to_json(),
            "quant": inst.quant.to_json(),
            "params": {"max_n": 10, "max_l": 10, "max_i": 20, "steps": 25},
        },
    )
    assert main(["check-lemmas", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "sound=False" in capsys.readouterr().out


def test_vacuous_certificates_exit_1_when_not_tolerated(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "problem": "dc-abs-1d",
            "params": {
                "eps": ["1/4"],
                "steps": 50,
                "phi_reg": {
                    "kind": "linear",
                    "provenance": "analytic",
                    "center": [0.0],
                    "radius": "5",
                    "scale": "1",
                },
                "b": "1/2",
            },
            "vacuous_ok": False,
        },
    )
    assert main(["cauchy-modulus", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "vacuous=True" in capsys.readouterr().out


def test_a_regularity_ball_smaller_than_the_trajectory_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": "dc-abs-1d", "params": {
        "eps": ["1/4", "1/16"], "steps": 50, "b": "1/2", "phi_reg": {**PHI_REG, "radius": "3"}}})
    assert main(["cauchy-modulus", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"regularity ball radius 3 smaller than .* = 4\.\d+$", err.strip()), err
    assert not (tmp_path / "cauchy_modulus.json").exists()


@pytest.mark.parametrize("center", [[0.0, 0.0, 0.0], [0.0]], ids=["3 coordinates", "1 coordinate"])
def test_a_phi_reg_center_of_another_dimension_exits_2_without_a_traceback(tmp_path, center):
    # box-affine-nd has d = 2. Broadcast against x0, a center of 3 coordinates
    # raised numpy's ValueError (exit 1, the unsound code) and one of 1
    # coordinate was read as (0, 0) (exit 0); [0.0, 0.0] exits 0 here
    phi_reg = {**PHI_REG, "center": center, "radius": "10"}
    cfg = write_config(tmp_path, {"problem": "box-affine-nd",
                                  "params": {"steps": 50, "phi_reg": phi_reg}})
    proc = fresh(
        "import sys; from fejerquant.cli import main; sys.exit(main())",
        "cauchy-modulus", "--config", cfg, "--out", str(tmp_path),
    )
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr == f"config/problem error: expected dimension 2, got {len(center)}\n"
    assert not (tmp_path / "cauchy_modulus.json").exists()


def test_a_rounding_stall_is_not_read_as_convergence(tmp_path, capsys):
    # T = Id, S = 0: from step 249,647 mu_n x/(1 + lambda_n) is below half an
    # ulp of x, so the iterate stays at 0.8637 with residual 0.0, far from the
    # only zero 0; the stationary completion must not take that stall
    cfg = write_config(tmp_path, {
        **_inline_dc(S={"kind": "zero", "dim": 1}),
        "schedule": {"lambda": {"rule": "power", "c": 1, "p": 1},
                     "mu": {"rule": "power", "c": 1, "p": 3}, "horizon": 300_000},
        "params": {"k": 0, "steps": 300_000, "k_max": 3, "n_max": 100},
    })
    assert main(["certify-metastability", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "the trace tail is not verified stationary" in capsys.readouterr().err
    assert not list(tmp_path.glob("metastability_k*.json"))


def test_a_rounding_stall_does_not_answer_the_cauchy_rate(tmp_path, capsys):
    # the stall above, through cauchy-modulus: phi's search stops before the
    # unverified constant tail, whose 0.0 residuals would answer phi there
    # and certify the stall as within eps of its limit
    cfg = write_config(tmp_path, {
        **_inline_dc(S={"kind": "zero", "dim": 1}),
        "schedule": {"lambda": {"rule": "power", "c": 1, "p": 1},
                     "mu": {"rule": "power", "c": 1, "p": 3}, "horizon": 300_000},
        "params": {"eps": ["1/2"], "b": "1", "steps": 300_000,
                   "phi_reg": {**PHI_REG, "radius": "100", "scale": "100"}},
    })
    assert main(["cauchy-modulus", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == (
        "config/problem error: empirical residual modulus queried at (k=1175, n=1175) finds "
        "no residual below 1/1176 up to the constant tail at 249647, and the trace tail is "
        "not verified stationary"
    )
    assert not (tmp_path / "cauchy_modulus.json").exists()


def test_the_affine_preset_path_never_nears_its_zero(tmp_path, capsys):
    # T = 2I, S = I: the path from (1, 1) settles at (0.855, 0.855), not at the
    # zero (0, 0), so no residual drops below 1/(k+1) even at k = 0, and the
    # first query of psi lies past the moving trace
    inst = preset("affine-affine-nd")
    end = fq.run(inst, 2000).points[-1]
    assert np.allclose(end, 0.855, atol=5e-4)
    cfg = write_config(tmp_path, {"problem": "affine-affine-nd", "params": {"k": 0, "steps": 1000}})
    assert main(["certify-metastability", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == (
        "config/problem error: empirical residual modulus queried at (k=105, n=1165) past "
        "the trace's 1000 steps, and the trace tail is not verified stationary"
    )
    assert not list(tmp_path.glob("metastability_k*.json"))


@pytest.mark.parametrize(
    "task,cfg",
    [
        ("run", {"problem": "dc-abs-1d", "params": {"steps": 10}, "vacuous_ok": "false"}),
        ("certify-metastability", {"params": {"k": 0, "steps": 50, "use_psi_prime": "false"}}),
        ("certify-metastability", {"params": {"k": 0, "steps": 50, "check_gamma": "false"}}),
        (
            "cauchy-modulus",
            {"params": {"steps": 50, "phi_reg": PHI_REG, "b": "1/2", "use_kappa_hat": "false"}},
        ),
    ],
)
def test_boolean_fields_accept_only_json_booleans(tmp_path, capsys, task, cfg):
    # "false" is a truthy string: read through bool() it turned checks on and
    # let a vacuous certificate through with exit 0
    path = write_config(tmp_path, cfg)
    assert main([task, "--config", path, "--out", str(tmp_path)]) == 2
    assert "must be true or false" in capsys.readouterr().err


def test_unknown_operator_kind_exits_2_without_a_traceback(tmp_path):
    inst = preset("dc-abs-1d")
    cfg = write_config(
        tmp_path,
        {
            "problem": {
                "T": {"kind": "affine_psd", "matrix": [[1.0]], "offset": [0.0]},
                "S": {"kind": "subdiff_l2", "dim": 1},
                "x0": [0.5],
            },
            "schedule": inst.schedule.to_json(),
            "quant": inst.quant.to_json(),
        },
    )
    proc = fresh(
        "import sys; from fejerquant.cli import main; sys.exit(main())",
        "run", "--config", cfg, "--out", str(tmp_path),
    )
    assert proc.returncode == 2
    assert "unknown operator kind" in proc.stderr and "Traceback" not in proc.stderr


def _inline_dc(**problem_overrides):
    inst = preset("dc-abs-1d")
    problem = {
        "T": {"kind": "affine_psd", "matrix": [[1.0]], "offset": [0.0]},
        "S": {"kind": "subdiff_abs", "dim": 1},
        "x0": [0.5],
        **problem_overrides,
    }
    return {"problem": problem, "schedule": inst.schedule.to_json(), "quant": inst.quant.to_json()}


LEMMAS_TINY = {"problem": "dc-abs-1d", "params": {"max_n": 10, "max_l": 10, "max_i": 15, "steps": 25}}
MALFORMED_VALUES = {
    "operator dim": ("run", _inline_dc(S={"kind": "subdiff_abs", "dim": "one"}), "S: dim"),
    "schedule rule c": (
        "run",
        {"schedule": {"lambda": {"rule": "power", "c": "x", "p": 1},
                      "mu": {"rule": "power", "c": 1, "p": 3}, "horizon": 500}},
        "schedule: lambda: c",
    ),
    "quant B": ("run", {"quant": {**preset("dc-abs-1d").quant.to_json(), "B": "x"}}, "quant: B"),
    "g kind": ("certify-metastability", {"params": {"k": 0, "g": {"kind": "bogus"}}}, "g: unknown"),
    # well-typed values that the ModulusFn constructor rejects
    "g negative a": (
        "certify-metastability", {"params": {"k": 0, "g": {"kind": "affine", "a": -1, "b": 0}}}, "g:"
    ),
    "g power_sum_rate p 1": (
        "certify-metastability",
        {"params": {"k": 0, "g": {"kind": "power_sum_rate", "c": 1, "p": 1}}},
        "g:",
    ),
    "moduli-eval without k": ("moduli-eval", {"params": {"modulus": "delta"}}, "'k'"),
    # well-typed text or numbers that Fraction or float cannot take
    "quant A 1/0": ("run", {"quant": {**preset("dc-abs-1d").quant.to_json(), "A": "1/0"}}, "quant: A"),
    "quant A huge exponent": (
        "run",
        {"quant": {**preset("dc-abs-1d").quant.to_json(), "A": "1e999999999"}},
        "quant: A: exponent out of range",
    ),
    "cauchy b 1/0": ("cauchy-modulus", {"params": {"phi_reg": PHI_REG, "b": "1/0"}}, "b: expected"),
    "cauchy eps 1/0": ("cauchy-modulus", {"params": {"phi_reg": PHI_REG, "eps": ["1/0"]}}, "eps:"),
    # theta(eps) compares the ball radii: with no eps a small ball went unchecked
    "cauchy eps empty": (
        "cauchy-modulus", {"params": {"phi_reg": PHI_REG, "eps": []}}, "eps: needs at least one target"
    ),
    "phi_reg table entry key": (
        "cauchy-modulus",
        {"params": {"b": "1/2", "phi_reg": {
            "kind": "table", "provenance": "analytic", "center": [0.0], "radius": "5",
            "entries": [{"eps": "1/4", "phi": "1/8", "phii": "9"}]}}},
        "phi_reg: entries: unknown regularity table entry fields ['phii']",
    ),
    "table value beyond float range": (
        "run",
        {"schedule": {"lambda": {"rule": "table", "values": [10**400]},
                      "mu": {"rule": "power", "c": 1, "p": 3}, "horizon": 1}},
        "schedule: lambda: values: number out of float range",
    ),
    "x0 beyond float range": ("run", _inline_dc(x0=[10**400]), "x0: number out of float range"),
    # a RecursionError in the check of its numbers
    "x0 nested 600 deep": ("run", _inline_dc(x0=nested(600)), "x0: expected numbers"),
    # json.load reads Infinity: it exited 2 with B's message
    "table value Infinity": (
        "run",
        {"schedule": {"lambda": {"rule": "table", "values": [1.0, float("inf")]},
                      "mu": {"rule": "power", "c": 1, "p": 3}, "horizon": 1}},
        "schedule values must be finite and > 0",
    ),
    # 1/(n+1)^200 is 0.0 from stage 34 on
    "lambda underflows": (
        "run",
        {"schedule": {"lambda": {"rule": "power", "c": 1, "p": 200},
                      "mu": {"rule": "power", "c": 1, "p": 1}, "horizon": 60}},
        "lambda underflows to 0 within the horizon",
    ),
    # negative counts: a ValueError, a ZeroDivisionError and a numpy ValueError
    "steps -1": ("run", {"params": {"steps": -1}}, "steps: expected an integer >= 0"),
    "k -1": ("certify-metastability", {"params": {"k": -1}}, "k: expected an integer >= 0"),
    "max_i -1": ("check-lemmas", {"params": {"max_i": -1}}, "max_i: expected an integer >= 0"),
    # naturals that a modulus rejects: M, B and d are at least 1
    "omega M 0": (
        "moduli-eval",
        {"params": {"modulus": "omega", "k": 0, "M": 0, "varpi": {"kind": "identity"}}},
        "M: expected an integer >= 1",
    ),
    "P d 0": (
        "moduli-eval",
        {"params": {"modulus": "P", "k": 0, "A": "2", "d": 0, "L": "4"}},
        "d: expected an integer >= 1",
    ),
    "varpi_prime B 0": (
        "moduli-eval",
        {"params": {"modulus": "varpi_prime", "k": 0, "B": 0, "varpi": {"kind": "identity"}}},
        "B: expected an integer >= 1",
    ),
    # constants past their bounds, on the tiny lemmas config: each was an
    # OverflowError under exit 1, or (a rule's p) a stall in the underflow guard
    **{f"quant {name} 10**400": (
        "check-lemmas",
        {**LEMMAS_TINY, "quant": {**preset("dc-abs-1d").quant.to_json(), name: 10**400}},
        f"quant: {name}: must be at most",
    ) for name in ("A", "B", "Bprime", "C", "L", "M")},
    "mu p 10**400": (
        "check-lemmas",
        {**LEMMAS_TINY, "schedule": {**preset("dc-abs-1d").schedule.to_json(),
                                     "mu": {"rule": "power", "c": 1, "p": 10**400}}},
        "schedule: mu: p: must be at most 1023",
    ),
    "lambda c 10**400": (
        "check-lemmas",
        {**LEMMAS_TINY, "schedule": {**preset("dc-abs-1d").schedule.to_json(),
                                     "lambda": {"rule": "power", "c": 10**400, "p": 1}}},
        "schedule: lambda: c: number out of float range",
    ),
    # moduli-eval and the cauchy-modulus ball bound share the bounds
    "moduli-eval A 710": (
        "moduli-eval",
        {"params": {"modulus": "chi", "r": 0, "n": 0, "m": 0, "A": 710}},
        "A: must be at most 709",
    ),
    "moduli-eval Bprime 1075": (
        "moduli-eval",
        {"params": {"modulus": "kappa_hat", "k": 0, "M": 1, "B": 1, "Bprime": 1075,
                    "varpi": {"kind": "identity"}}},
        "Bprime: must be at most 1074",
    ),
    "cauchy b past 10**300": (
        "cauchy-modulus", {"params": {"phi_reg": PHI_REG, "b": 10**300 + 1}}, "b: must be at most"
    ),
    # constant rules pass the mu underflow guard at any horizon; this one asked
    # validate_against for a 72.8 TiB array under exit 1
    "horizon 10**13": (
        "run",
        {"schedule": {"lambda": {"rule": "power", "c": 1, "p": 0},
                      "mu": {"rule": "power", "c": "1e-24", "p": 0}, "horizon": 10**13}},
        "schedule: horizon: must be at most 16777216",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_VALUES))
def test_malformed_config_values_exit_2_without_a_traceback(tmp_path, capsys, case):
    # each of these was a bare ValueError or KeyError: a traceback and exit 1,
    # the code of an unsound certificate
    task, cfg, named = MALFORMED_VALUES[case]
    path = write_config(tmp_path, cfg)
    assert main([task, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config/problem error" in err and named in err and "Traceback" not in err


INTEGER_PARAMS = [
    ("run", {"steps": 10.7}),
    ("run", {"steps": "20"}),
    ("run", {"steps": True}),
    ("check-lemmas", {"max_n": 10.0}),
    ("check-lemmas", {"max_l": "10"}),
    ("check-lemmas", {"max_i": 2.5}),
    ("check-lemmas", {"steps": 30.5}),
    ("certify-metastability", {"k": 0.5}),
    ("certify-metastability", {"k_max": "25"}),
    ("certify-metastability", {"n_max": 200.0}),
    ("cauchy-modulus", {"phi_reg": PHI_REG, "b": "1/2", "n_max": 1.5}),
]


@pytest.mark.parametrize("task,params", INTEGER_PARAMS)
def test_integer_params_accept_only_json_integers(tmp_path, capsys, monkeypatch, task, params):
    # int() truncated 10.7 to 10 and read "20" as 20; now the config is
    # rejected before any stepping
    def no_stepping(*args, **kwargs):
        raise AssertionError("stepped on a malformed config")

    monkeypatch.setattr("fejerquant.cli.run", no_stepping)
    path = write_config(tmp_path, {"problem": "dc-abs-1d", "params": params})
    assert main([task, "--config", path, "--out", str(tmp_path)]) == 2
    assert "expected an integer" in capsys.readouterr().err


def test_cap_is_parsed_exactly():
    assert _parse_cap("1e30") == 10**30
    assert _parse_cap("1e6") == 10**6
    assert _parse_cap("1e10000") == 10**10000
    assert _parse_cap("12") == 12


@pytest.mark.parametrize("text", ["2.5", "abc", "-1", "0", "1/0", "1e999999999"])
def test_malformed_caps_exit_2_with_a_usage_message(tmp_path, capsys, text):
    cfg = write_config(tmp_path, {"problem": "dc-abs-1d", "params": {"k": 0, "steps": 50}})
    with pytest.raises(SystemExit) as exc:
        main(["certify-metastability", "--config", cfg, "--out", str(tmp_path), "--cap", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--cap" in err


def test_negative_horizon_exits_2_with_a_usage_message(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": "dc-abs-1d", "params": {"steps": 5}})
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", cfg, "--out", str(tmp_path), "--horizon", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--horizon" in err and "Traceback" not in err


SMALL_SCHEDULE = {
    "lambda": {"rule": "power", "c": 1, "p": 1},
    "mu": {"rule": "power", "c": 1, "p": 3},
    "horizon": 40,
}

# one valid config per task; the fuzz test replaces each field under the
# listed key (the whole config for run, whose config has every problem field)
FUZZ_CONFIGS = [
    ("run", None, {
        **_inline_dc(known_solutions=[[1.0]]),
        "schedule": SMALL_SCHEDULE,
        "params": {"steps": 20},
        "vacuous_ok": True,
    }),
    ("check-lemmas", "params", {
        "problem": "dc-abs-1d",
        "schedule": SMALL_SCHEDULE,
        "params": {"max_n": 5, "max_l": 5, "max_i": 5, "steps": 12},
    }),
    ("certify-metastability", "params", {
        "problem": "dc-abs-1d",
        "schedule": SMALL_SCHEDULE,
        "params": {
            "k": 0, "g": {"kind": "affine", "a": 1, "b": 1}, "steps": 30, "k_max": 2,
            "n_max": 10, "use_psi_prime": True, "check_gamma": True,
        },
    }),
    ("cauchy-modulus", "params", {
        "problem": "dc-abs-1d",
        "schedule": SMALL_SCHEDULE,
        "params": {
            "eps": ["1/4"], "steps": 30, "phi_reg": PHI_REG, "b": "1/2",
            "use_kappa_hat": False, "k_max": 2, "n_max": 10,
        },
    }),
    ("moduli-eval", "params", {
        "params": {
            "modulus": "kappa_hat", "k": 0, "M": 1, "B": 1, "Bprime": 0,
            "varpi": {"kind": "polynomial", "coeffs": [0, 1]},
        },
    }),
    ("moduli-eval", "params", {"params": {"modulus": "P", "k": 0, "A": "2", "d": 1, "L": "4"}}),
]

# -1 is well typed, but no count, index or constant may be negative; 10**400
# is well typed, but beyond float range and beyond every constant's bound; a
# list nested 600 deep is deeper than any field reads
WRONG_TYPES = ("x", 0.5, [1], None, {"x": 1}, "1/0", -1, 10**400, nested(600))


def _field_paths(obj, prefix=()):
    """The path of every field of a JSON value, list items included."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _replaced(obj, path, value):
    out = json.loads(json.dumps(obj))
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def test_configs_with_a_wrongly_typed_field_never_raise(tmp_path, capsys):
    failures = []
    # each case gets a file of its own: truncating a file that exists can cost
    # far more than creating one
    cases = itertools.count()
    for task, under, cfg in FUZZ_CONFIGS:
        paths = _field_paths(cfg) if under is None else _field_paths(cfg[under], (under,))
        for path in paths:
            for value in WRONG_TYPES:
                file = write_config(tmp_path, _replaced(cfg, path, value), f"{next(cases)}.json")
                argv = [task, "--config", file, "--out", str(tmp_path / "out")]
                try:
                    code = main(argv)
                except Exception as exc:  # at the command line, a traceback
                    failures.append(f"{task} {path} = {value!r}: {exc!r}")
                    continue
                if code not in (0, 1, 2):
                    failures.append(f"{task} {path} = {value!r}: exit {code}")
    capsys.readouterr()
    assert not failures, "\n".join(failures)


# --------------------------------------------------------------------------
# schedule/quant overrides and config dumping
# --------------------------------------------------------------------------


def test_overrides_are_honored(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "problem": "dc-abs-1d",
            "schedule": {
                "lambda": {"rule": "power", "c": 1, "p": 1},
                "mu": {"rule": "power", "c": 1, "p": 3},
                "horizon": 500,
            },
        },
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path), "--dump-config"]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["schedule"]["horizon"] == 500
    assert resolved["quant"]["M"] == 2  # preset quant untouched


def test_dumped_config_reproduces_certificates(tmp_path, capsys):
    base = {
        "problem": "dc-abs-1d",
        "params": {"max_n": 20, "max_l": 20, "max_i": 30, "steps": 45},
    }
    cfg = write_config(tmp_path, base)
    out_a = tmp_path / "a"
    assert main(["check-lemmas", "--config", cfg, "--out", str(out_a)]) == 0
    capsys.readouterr()
    assert main(["check-lemmas", "--config", cfg, "--out", str(tmp_path), "--dump-config"]) == 0
    resolved = json.loads(capsys.readouterr().out)
    cfg_b = write_config(tmp_path, resolved, "resolved.json")
    out_b = tmp_path / "b"
    assert main(["check-lemmas", "--config", cfg_b, "--out", str(out_b)]) == 0
    assert (out_a / "lemma_certificates.json").read_text() == (
        out_b / "lemma_certificates.json"
    ).read_text()


def test_build_instance_applies_quant_override():
    inst = build_instance(
        {
            "problem": "dc-abs-1d",
            "quant": {**preset("dc-abs-1d").quant.to_json(), "L": "9/2"},
        }
    )
    assert str(inst.quant.L) == "9/2"


# --------------------------------------------------------------------------
# certification tasks through the CLI
# --------------------------------------------------------------------------


def test_metastability_task(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "problem": "dc-abs-1d",
            "params": {"k": 0, "steps": 300, "use_psi_prime": True, "check_gamma": True},
        },
    )
    assert main(["certify-metastability", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "metastability" in out and "sound=True" in out
    cert = json.loads((tmp_path / "metastability_k0.json").read_text())
    assert cert["witness_N"] == 0 and cert["witness"]["P"] == "481"
    assert cert["provenance"]["phi_search"] == "empirical+stationary"


def test_metastability_task_with_a_huge_k(tmp_path, capsys):
    # 1.0 / (k + 1) raised OverflowError, and the k in the certificate's file
    # name made it longer than a file name may be
    k = 10 ** 400
    cfg = write_config(
        tmp_path, {"problem": "dc-abs-1d", "params": {"k": k, "steps": 50, "use_psi_prime": True}}
    )
    assert main(["certify-metastability", "--config", cfg, "--out", str(tmp_path)]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    (written,) = tmp_path.glob("metastability_k*.json")
    label = hashlib.sha256(str(k).encode()).hexdigest()[:12]
    assert written.name == f"metastability_k401digits-{label}.json"
    cert = json.loads(written.read_text())
    assert cert["params"]["k"] == k and cert["bound"] == {"overflow": True}


@pytest.mark.parametrize("bound", [10**12, 10**400], ids=["1e12", "1e400"])
@pytest.mark.parametrize("task", ["certify-metastability", "cauchy-modulus"])
def test_residual_table_bounds_are_read_and_ignored(tmp_path, task, bound):
    # k_max and n_max bounded the residual table that phi's query replaced:
    # configs that carry them, at any size, write the certificate of the same
    # config without them; 10**12 once asked for a 1.43 PiB table and 10**400
    # for more dimensions than numpy allows
    params = {"k": 0, "steps": 50} if task == "certify-metastability" else {
        "steps": 50, "phi_reg": PHI_REG, "b": "1/2"}
    written = []
    for name, extra in (("plain", {}), ("bounds", {"k_max": bound, "n_max": bound})):
        cfg = write_config(tmp_path, {"problem": "dc-abs-1d", "params": {**params, **extra}},
                           f"{name}.json")
        assert main([task, "--config", cfg, "--out", str(tmp_path / name)]) == 0
        (cert,) = (tmp_path / name).iterdir()
        written.append((cert.name, cert.read_bytes()))
    assert written[0] == written[1]


def test_constants_at_their_bounds_are_accepted():
    quant = preset("dc-abs-1d").quant
    top = {"A": 709, "B": 10**300, "Bprime": 1074, "C": 10**300, "L": 10**300, "M": 10**300}
    assert replace(quant, **top).to_json()["Bprime"] == 1074
    for name, value in top.items():
        past = value + (1 if name in ("B", "Bprime", "M") else Fraction(1, 10**9))
        with pytest.raises(ConfigError, match=f"^{name}: must be at most"):
            replace(quant, **{name: past})
    assert PowerRule(Fraction(1), 1023).value_array(0, 1)[0] == 1.0
    with pytest.raises(ConfigError, match="^p: must be at most 1023"):
        PowerRule(Fraction(1), 1024)
    with pytest.raises(ConfigError, match="^c: number out of float range"):
        PowerRule(Fraction(2**1024), 1)


def test_check_lemmas_with_a_max_l_beyond_the_trace(tmp_path, capsys):
    # np.minimum(10**400, ...) raised OverflowError: a traceback and exit 1;
    # every max_l >= steps checks what max_l = steps does
    certs = {}
    for j, max_l in enumerate((25, 26, 10**400)):
        out = tmp_path / f"out{j}"
        params = {"max_n": 10, "max_l": max_l, "max_i": 15, "steps": 25}
        cfg = write_config(tmp_path, {"problem": "dc-abs-1d", "params": params})
        assert main(["check-lemmas", "--config", cfg, "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        certs[max_l] = json.loads((out / "lemma_certificates.json").read_text())
    for cert in certs.values():  # rows n <= 10 reach l = 25 - n, for 3 known solutions
        assert cert[0]["witness"]["checked"] == 3 * sum(26 - n for n in range(11))
    for max_l, (quasi, approx) in certs.items():
        assert quasi["params"].pop("max_l") == max_l
        quasi.pop("digest")
    assert certs[25] == certs[26] == certs[10**400]


def test_metastability_task_cap_flag(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"problem": "dc-abs-1d", "params": {"k": 0, "steps": 100}}
    )
    rc = main(
        ["certify-metastability", "--config", cfg, "--out", str(tmp_path), "--cap", "1e6"]
    )
    assert rc == 0  # vacuous tolerated by default
    assert "bound=overflow" in capsys.readouterr().out


def test_moduli_eval_golden_values(tmp_path, capsys):
    cases = [
        ({"modulus": "kappa", "k": 0, "M": 1, "B": 1}, "71"),
        ({"modulus": "kappa", "k": 1, "M": 1, "B": 1}, "391"),
        ({"modulus": "delta", "k": 0}, "1"),
        (
            {"modulus": "P", "k": 0, "A": "2", "d": 1, "L": "4"},
            "481",
        ),
    ]
    for params, expected in cases:
        cfg = write_config(tmp_path, {"params": params}, "m.json")
        assert main(["moduli-eval", "--config", cfg]) == 0
        assert capsys.readouterr().out.strip() == expected


def test_moduli_eval_rejects_unknown_modulus(tmp_path, capsys):
    cfg = write_config(tmp_path, {"params": {"modulus": "sigma", "k": 0}})
    assert main(["moduli-eval", "--config", cfg]) == 2
    assert capsys.readouterr().err == "config/problem error: unknown modulus 'sigma'\n"


@pytest.mark.parametrize("params,message", [
    ({"k": 0}, "missing field 'modulus'"),
    ({"modulus": ["kappa"], "k": 0}, "modulus: expected a string, got ['kappa']"),
    ({"modulus": None, "k": 0}, "modulus: expected a string, got None"),
], ids=["missing", "list", "null"])
def test_moduli_eval_reads_the_modulus_name_as_a_string(tmp_path, capsys, params, message):
    cfg = write_config(tmp_path, {"params": params})
    assert main(["moduli-eval", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config/problem error: {message}\n"


def test_csv_summary(tmp_path):
    cfg = write_config(
        tmp_path,
        {"problem": "dc-abs-1d", "params": {"max_n": 10, "max_l": 10, "max_i": 15, "steps": 25}},
    )
    assert main(["check-lemmas", "--config", cfg, "--out", str(tmp_path), "--csv"]) == 0
    rows = (tmp_path / "certificates.csv").read_text().strip().split("\n")
    assert rows[0] == "kind,sound,vacuous,violations"
    assert len(rows) == 3 and all(",True," in r for r in rows[1:])


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("fejerquant")
    assert exe, "console script missing from the environment"
    cfg = write_config(tmp_path, {"params": {"modulus": "kappa", "k": 0, "M": 1, "B": 1}})
    proc = subprocess.run(
        [exe, "moduli-eval", "--config", cfg], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "71"
