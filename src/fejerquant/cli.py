"""Command-line entry point: config-driven batch execution.

    fejerquant <task> --config cfg.json [--out DIR] [--horizon N] [--cap C]

Tasks mirror the deliverables: ``run`` records a trace, ``check-lemmas``
certifies the inequality lemmas on it, ``certify-metastability`` and
``cauchy-modulus`` certify the two headline rates, ``moduli-eval`` evaluates
a single modulus. Exit code 0 when every requested certificate is sound
(vacuous certificates count as configured), 1 on an unsound certificate,
2 on a configuration error.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import ConfigError, FejerQuantError
from .fields import boolean, field, list_of, natural, only, positive, rational, string
from .moduli import (
    DEFAULT_CAP,
    ModulusFn,
    chi,
    constant,
    delta,
    exp_upper,
    kappa,
    kappa_hat,
    omega,
    sqrt_upper,
    total_boundedness_P,
    varpi_prime,
    xi_tilde,
)

if TYPE_CHECKING:
    from .iteration import ProblemInstance

# The layer calls of the tasks, bound from the package on first use (PEP 562)
# so that moduli-eval loads no numpy and run no certificate layer. The tasks
# call them as attributes of this module, so a rebinding made before main
# (a tracer, a test's monkeypatch) wins.
_TASK_CALLS = {
    "run",
    "build_empirical_phi",
    "certify_metastability",
    "check_quasi_fejer",
    "check_approx_error",
    "check_cauchy_modulus",
    "validate_regularity_ball",
    "theta_moudafi",
}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _TASK_CALLS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


# --------------------------------------------------------------------------
# config plumbing
# --------------------------------------------------------------------------

_TOP_KEYS = {"problem", "schedule", "quant", "params", "vacuous_ok"}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    # JSON nested past the interpreter's depth raises RecursionError
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    only(obj, _TOP_KEYS, "config fields")
    return obj


def build_instance(cfg: dict) -> ProblemInstance:
    """The problem instance of a config: ``ProblemInstance.from_json``."""
    from .iteration import ProblemInstance

    return ProblemInstance.from_json(cfg)


def resolved_config(cfg: dict, inst: ProblemInstance) -> dict:
    from .iteration import DEFAULT_PRESET

    resolved = inst.to_json()
    problem = cfg.get("problem", DEFAULT_PRESET)
    if isinstance(problem, str):  # a preset is named, not restated
        resolved["problem"] = problem
    return {**resolved, "params": cfg.get("params", {}), "vacuous_ok": cfg.get("vacuous_ok", True)}


def _steps(params: dict, horizon: int | None, default: int) -> int:
    """The step count: --horizon if given, else the steps param."""
    if horizon is not None:
        return horizon
    return field(params, "steps", natural, default)


# the bounds of the residual table that phi's query over the trace replaced:
# configs of the tasks that query phi may still carry them, and each is read
# as a natural and ignored
_TABLE_BOUNDS = ("k_max", "n_max")


def _params(cfg: dict, allowed: set, ignored: tuple = ()) -> dict:
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be a JSON object")
    only(params, allowed.union(ignored), "params")
    for key in ignored:
        field(params, key, natural, 0)
    return params


def _write(out_dir: str, name: str, text: str) -> str:
    """Write a file of the output directory, which ``main`` has made."""
    path = os.path.join(out_dir, name)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    return path


def _cert_json(cert) -> str:
    return json.dumps(cert.to_json(), sort_keys=True, indent=2) + "\n"


def _summarize(cert) -> str:
    bound = "-"
    if cert.bound is not None:
        b = cert.bound.to_json()
        bound = "overflow" if isinstance(b, dict) else b
        if len(bound) > 24:
            bound = f"{bound[:8]}...({len(bound)} digits)"
    return (
        f"{cert.kind:<22} sound={str(cert.sound):<5} vacuous={str(cert.vacuous):<5} "
        f"bound={bound} violations={len(cert.violations)}"
    )


# --------------------------------------------------------------------------
# task execution
# --------------------------------------------------------------------------


def _task_run(cfg: dict, inst: ProblemInstance, out_dir: str, horizon: int | None, cap: int):
    params = _params(cfg, {"steps"})
    steps = _steps(params, horizon, 100)
    trace = _cli.run(inst, steps)
    path = _write(out_dir, "trace.jsonl", trace.to_jsonl())
    print(f"trace: {steps} steps -> {path}")
    print(
        f"final point {[float(v) for v in trace.points[-1]]}, "
        f"last residual {trace.residuals[-1] if trace.steps else float('nan')}"
    )
    return []


def _task_check_lemmas(
    cfg: dict, inst: ProblemInstance, out_dir: str, horizon: int | None, cap: int
):
    params = _params(cfg, {"max_n", "max_l", "max_i", "steps"})
    max_n = field(params, "max_n", natural, 100)
    max_l = field(params, "max_l", natural, 100)
    max_i = field(params, "max_i", natural, 200)
    steps = _steps(params, horizon, max_n + max_l)
    trace = _cli.run(inst, steps)
    certs = [
        _cli.check_quasi_fejer(trace, inst, max_n, max_l),
        _cli.check_approx_error(trace, inst, min(max_n, steps - 1), max_i),
    ]
    blob = json.dumps([c.to_json() for c in certs], sort_keys=True, indent=2)
    _write(out_dir, "lemma_certificates.json", blob + "\n")
    return certs


def _task_certify_metastability(
    cfg: dict, inst: ProblemInstance, out_dir: str, horizon: int | None, cap: int
):
    params = _params(cfg, {"k", "g", "steps", "use_psi_prime", "check_gamma"}, _TABLE_BOUNDS)
    use_psi_prime = field(params, "use_psi_prime", boolean, False)
    check_gamma = field(params, "check_gamma", boolean, False)
    k = field(params, "k", natural, 0)
    g = field(params, "g", ModulusFn.from_json, ModulusFn.affine(1, 1))
    steps = _steps(params, horizon, 1000)
    trace = _cli.run(inst, steps)
    phi = _cli.build_empirical_phi(trace, inst)
    cert = _cli.certify_metastability(
        inst, k, g, phi, trace, use_psi_prime=use_psi_prime, check_gamma=check_gamma, cap=cap
    )
    label = str(k)
    if len(label) > 64:  # keep the file name within the usual 255-byte limit
        from .verification import sha256

        label = f"{len(label)}digits-{sha256(label.encode()).hexdigest()[:12]}"
    _write(out_dir, f"metastability_k{label}.json", _cert_json(cert))
    return [cert]


def _task_cauchy_modulus(
    cfg: dict, inst: ProblemInstance, out_dir: str, horizon: int | None, cap: int
):
    params = _params(cfg, {"eps", "steps", "use_kappa_hat", "phi_reg", "b"}, _TABLE_BOUNDS)
    use_hat = field(params, "use_kappa_hat", boolean, False)
    eps_list = field(params, "eps", list_of(rational), [Fraction(1, 4)])
    if not eps_list:  # theta(eps) checks the ball radius, so each task needs one
        raise ConfigError("eps: needs at least one target")
    steps = _steps(params, horizon, 1000)
    if "phi_reg" not in params:
        raise ConfigError("cauchy-modulus needs a phi_reg regularity modulus")
    from .regularity import RegularityModulus

    phi_reg = field(params, "phi_reg", RegularityModulus.from_json)
    b = constant("b", field(params, "b", rational, Fraction(1)))
    radius = _cli.validate_regularity_ball(inst, phi_reg, b)
    trace = _cli.run(inst, steps)
    phi = _cli.build_empirical_phi(trace, inst)

    def theta_eval(eps: Fraction):
        return _cli.theta_moudafi(eps, inst.quant, phi, phi_reg, radius, use_hat, cap)

    cert = _cli.check_cauchy_modulus(trace, theta_eval, eps_list)
    _write(out_dir, "cauchy_modulus.json", _cert_json(cert))
    return [cert]


# the tasks that certify an instance, in the order the usage message lists them
_TASKS = {
    "run": _task_run,
    "certify-metastability": _task_certify_metastability,
    "cauchy-modulus": _task_cauchy_modulus,
    "check-lemmas": _task_check_lemmas,
}


def _task_moduli_eval(cfg: dict) -> list:
    params = _params(
        cfg,
        {"modulus", "k", "r", "n", "m", "M", "B", "Bprime", "A", "L", "d", "varpi", "xi"},
    )
    name = field(params, "modulus", string)
    nat = lambda key: constant(key, field(params, key, natural))  # noqa: E731
    pos = lambda key: constant(key, field(params, key, positive))  # noqa: E731
    mod = lambda key: field(params, key, ModulusFn.from_json)  # noqa: E731
    frac = lambda key: constant(key, field(params, key, rational))  # noqa: E731
    if name == "delta":
        value = delta(nat("k"))
    elif name == "omega":
        value = omega(nat("k"), pos("M"), mod("varpi"))
    elif name == "varpi_prime":
        value = varpi_prime(nat("k"), pos("B"), mod("varpi"))
    elif name == "chi":
        value = chi(nat("r"), nat("n"), nat("m"), exp_upper(frac("A"))).to_json()
    elif name == "xi_tilde":
        value = xi_tilde(nat("n"), pos("M"), exp_upper(frac("A")), mod("xi"))
    elif name == "P":
        value = total_boundedness_P(
            nat("k"), exp_upper(frac("A")), sqrt_upper(pos("d")), frac("L"), pos("d")
        ).to_json()
    elif name == "kappa":
        value = kappa(nat("k"), pos("M"), pos("B"))
    elif name == "kappa_hat":
        value = kappa_hat(nat("k"), pos("M"), pos("B"), nat("Bprime"), mod("varpi"))
    else:
        raise ConfigError(f"unknown modulus {name!r}")
    if isinstance(value, dict):
        print(json.dumps(value, sort_keys=True))
    else:
        print(value)
    return []


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _parse_cap(text: str) -> int:
    """An integer >= 1, read exactly: "1e30" is 10**30, "2.5" is rejected."""
    try:
        value = rational(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value.denominator != 1 or value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(value)


def _parse_horizon(text: str) -> int:
    """A step count >= 0."""
    try:
        return natural(int(text))
    except (ValueError, ConfigError):
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}") from None


def main(argv=None) -> int:
    # At exit the interpreter makes full collections over every tracked object
    # (about 22,500, most of them numpy's), GC enabled or not; frozen objects
    # sit in the permanent generation, which those collections skip. atexit
    # callbacks run before them. Registered here, once per process, not at
    # import: library importers and in-process callers keep normal GC.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = argparse.ArgumentParser(prog="fejerquant", description=__doc__)
    parser.add_argument("task", choices=[*_TASKS, "moduli-eval"])
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument(
        "--out", default=None, help="output directory (default $FEJERQUANT_OUT or .)"
    )
    parser.add_argument(
        "--horizon", type=_parse_horizon, default=None, help="override step count"
    )
    parser.add_argument("--cap", type=_parse_cap, default=None, help="overflow cap")
    parser.add_argument(
        "--dump-config", action="store_true", help="print the resolved config and exit"
    )
    parser.add_argument(
        "--csv", action="store_true", help="also emit a CSV certificate summary"
    )
    args = parser.parse_args(argv)
    out_dir = args.out or os.environ.get("FEJERQUANT_OUT", ".")
    cap = args.cap if args.cap is not None else DEFAULT_CAP

    try:
        cfg = load_config(args.config)
        vacuous_ok = field(cfg, "vacuous_ok", boolean, True)
        if args.task == "moduli-eval":
            if args.dump_config:
                print(json.dumps(cfg, sort_keys=True, indent=2))
                return 0
            _task_moduli_eval(cfg)
            return 0
        inst = build_instance(cfg)
        if args.dump_config:
            print(json.dumps(resolved_config(cfg, inst), sort_keys=True, indent=2))
            return 0
        inst.quant.validate_against(inst.schedule)
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {out_dir}: {exc}") from None
        certs = _TASKS[args.task](cfg, inst, out_dir, args.horizon, cap)
        for cert in certs:
            print(_summarize(cert))
        if args.csv and certs:
            lines = ["kind,sound,vacuous,violations"]
            lines += [f"{c.kind},{c.sound},{c.vacuous},{len(c.violations)}" for c in certs]
            _write(out_dir, "certificates.csv", "\n".join(lines) + "\n")
    except FejerQuantError as exc:
        print(f"config/problem error: {exc}", file=sys.stderr)
        return 2

    for cert in certs:
        if not cert.sound or (cert.vacuous and not vacuous_ok):
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
