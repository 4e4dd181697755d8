"""Command-line entry point: problem presets, config-driven batch execution.

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
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .errors import ConfigError, FejerQuantError, UnknownPreset
from .fields import field, floats, list_of, natural, only, rational
from .iteration import (
    ParameterSchedule,
    PowerRule,
    ProblemInstance,
    QuantitativeData,
    run,
)
from .moduli import (
    DEFAULT_CAP,
    ModulusFn,
    chi,
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
from .operators import (
    AffinePSD,
    NormalConeBox,
    SubdiffAbsSum,
    operator_from_json,
    operator_to_json,
)
from .regularity import RegularityModulus, theta_moudafi, validate_regularity_ball
from .verification import (
    build_empirical_phi,
    certify_metastability,
    check_approx_error,
    check_cauchy_modulus,
    check_quasi_fejer,
)

_PRESET_NAMES = ("dc-abs-1d", "affine-affine-nd", "box-affine-nd")


def _standard_schedule(horizon: int) -> ParameterSchedule:
    return ParameterSchedule(
        PowerRule(Fraction(1), 1), PowerRule(Fraction(1), 3), horizon
    )


def preset(name: str) -> ProblemInstance:
    """Catalog problem instances with certified quantitative data."""
    if name == "dc-abs-1d":
        # zeros of Id - d|.|: the difference inclusion has solutions -1, 0, 1
        return ProblemInstance(
            T=AffinePSD(np.array([[1.0]]), np.array([0.0])),
            S=SubdiffAbsSum(1),
            x0=np.array([0.5]),
            schedule=_standard_schedule(100_000),
            quant=QuantitativeData(
                A=Fraction(2),
                B=1,
                Bprime=0,
                C=Fraction(1),
                M=2,
                L=Fraction(4),
                d=1,
                theta=ModulusFn.power_rate(1, 1),
                xi=ModulusFn.power_sum_rate(1, 3),
                varpi=ModulusFn.identity(),
                varpi_hat=ModulusFn.identity(),
            ),
            known_solutions=(np.array([-1.0]), np.array([0.0]), np.array([1.0])),
        )
    if name == "affine-affine-nd":
        # T = 2I, S = I: (T - S)x = x, unique zero at the origin
        return ProblemInstance(
            T=AffinePSD(2.0 * np.eye(2), np.zeros(2)),
            S=AffinePSD(np.eye(2), np.zeros(2)),
            x0=np.array([1.0, 1.0]),
            schedule=_standard_schedule(2_000),
            quant=QuantitativeData(
                A=Fraction(2),
                B=1,
                Bprime=0,
                C=Fraction(1),
                M=11,
                L=Fraction(2),
                d=2,
                theta=ModulusFn.power_rate(1, 1),
                xi=ModulusFn.power_sum_rate(1, 3),
                varpi=ModulusFn.affine(2, 1),
                varpi_hat=ModulusFn.affine(2, 1),
            ),
            known_solutions=(np.zeros(2),),
        )
    if name == "box-affine-nd":
        # stationarity of x + (-2, 1) over the unit box: solution (0, 1)
        return ProblemInstance(
            T=AffinePSD(np.eye(2), np.array([-2.0, 1.0])),
            S=NormalConeBox(np.zeros(2), np.ones(2)),
            x0=np.array([0.5, 0.5]),
            schedule=_standard_schedule(2_000),
            quant=QuantitativeData(
                A=Fraction(2),
                B=1,
                Bprime=0,
                C=Fraction(1),
                M=3,
                L=Fraction(2),
                d=2,
                theta=ModulusFn.power_rate(1, 1),
                xi=ModulusFn.power_sum_rate(1, 3),
                varpi=ModulusFn.identity(),
                varpi_hat=None,
            ),
            known_solutions=(np.array([0.0, 1.0]),),
        )
    raise UnknownPreset(f"unknown preset {name!r} (have: {', '.join(_PRESET_NAMES)})")


# --------------------------------------------------------------------------
# config plumbing
# --------------------------------------------------------------------------

_TOP_KEYS = {"problem", "schedule", "quant", "params", "vacuous_ok"}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    only(obj, _TOP_KEYS, "config fields")
    return obj


def build_instance(cfg: dict) -> ProblemInstance:
    problem = cfg.get("problem", "dc-abs-1d")
    if isinstance(problem, str):
        inst = preset(problem)
    elif not isinstance(problem, dict):
        raise ConfigError(f"problem must be a preset name or an object, got {problem!r}")
    else:
        only(problem, {"T", "S", "x0", "known_solutions"}, "problem fields")
        if "schedule" not in cfg or "quant" not in cfg:
            raise ConfigError("inline problems need explicit schedule and quant")
        inst = ProblemInstance(
            T=field(problem, "T", operator_from_json),
            S=field(problem, "S", operator_from_json),
            x0=field(problem, "x0", floats),
            schedule=field(cfg, "schedule", ParameterSchedule.from_json),
            quant=field(cfg, "quant", QuantitativeData.from_json),
            known_solutions=tuple(field(problem, "known_solutions", list_of(floats), [])),
        )
        return inst
    if "schedule" in cfg or "quant" in cfg:
        from dataclasses import replace

        if "schedule" in cfg:
            inst = replace(inst, schedule=field(cfg, "schedule", ParameterSchedule.from_json))
        if "quant" in cfg:
            inst = replace(inst, quant=field(cfg, "quant", QuantitativeData.from_json))
    return inst


def resolved_config(cfg: dict, inst: ProblemInstance) -> dict:
    problem = cfg.get("problem", "dc-abs-1d")
    if not isinstance(problem, str):
        problem = {
            "T": operator_to_json(inst.T),
            "S": operator_to_json(inst.S),
            "x0": [float(v) for v in inst.x0],
            "known_solutions": [[float(v) for v in s] for s in inst.known_solutions],
        }
    return {
        "problem": problem,
        "schedule": inst.schedule.to_json(),
        "quant": inst.quant.to_json(),
        "params": cfg.get("params", {}),
        "vacuous_ok": cfg.get("vacuous_ok", True),
    }


def _flag(obj: dict, key: str, default: bool) -> bool:
    """A boolean config field: only JSON true or false, never a truthy string."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _steps(params: dict, horizon: int | None, default: int) -> int:
    """The step count: --horizon if given, else the steps param."""
    if horizon is not None:
        return horizon
    return field(params, "steps", natural, default)


def _phi_range(params: dict) -> tuple:
    """The (k_max, n_max) rectangle of the empirical residual modulus."""
    return field(params, "k_max", natural, 25), field(params, "n_max", natural, 200)


def _params(cfg: dict, allowed: set) -> dict:
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be a JSON object")
    only(params, allowed, "params")
    return params


def _write(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
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


def _task_run(cfg: dict, inst: ProblemInstance, out_dir: str, horizon: int | None):
    params = _params(cfg, {"steps"})
    steps = _steps(params, horizon, 100)
    trace = run(inst, steps)
    path = _write(out_dir, "trace.jsonl", trace.to_jsonl())
    print(f"trace: {steps} steps -> {path}")
    print(
        f"final point {[float(v) for v in trace.points[-1]]}, "
        f"last residual {trace.residuals[-1] if trace.steps else float('nan')}"
    )
    return []


def _task_check_lemmas(cfg: dict, inst: ProblemInstance, out_dir: str, horizon: int | None):
    params = _params(cfg, {"max_n", "max_l", "max_i", "steps"})
    max_n = field(params, "max_n", natural, 100)
    max_l = field(params, "max_l", natural, 100)
    max_i = field(params, "max_i", natural, 200)
    steps = _steps(params, horizon, max_n + max_l)
    trace = run(inst, steps)
    certs = [
        check_quasi_fejer(trace, inst, max_n, max_l),
        check_approx_error(trace, inst, min(max_n, steps - 1), max_i),
    ]
    blob = json.dumps([c.to_json() for c in certs], sort_keys=True, indent=2)
    _write(out_dir, "lemma_certificates.json", blob + "\n")
    return certs


def _task_certify_metastability(
    cfg: dict, inst: ProblemInstance, out_dir: str, horizon: int | None, cap: int
):
    params = _params(
        cfg, {"k", "g", "steps", "k_max", "n_max", "use_psi_prime", "check_gamma"}
    )
    use_psi_prime = _flag(params, "use_psi_prime", False)
    check_gamma = _flag(params, "check_gamma", False)
    k = field(params, "k", natural, 0)
    g = field(params, "g", ModulusFn.from_json, ModulusFn.affine(1, 1))
    steps = _steps(params, horizon, 1000)
    k_max, n_max = _phi_range(params)
    trace = run(inst, steps)
    phi = build_empirical_phi(trace, k_max, n_max, inst)
    cert = certify_metastability(
        inst,
        k,
        g,
        phi,
        steps,
        trace=trace,
        use_psi_prime=use_psi_prime,
        check_gamma=check_gamma,
        cap=cap,
        phi_provenance=phi.provenance,
    )
    _write(out_dir, f"metastability_k{k}.json", _cert_json(cert))
    return [cert]


def _task_cauchy_modulus(
    cfg: dict, inst: ProblemInstance, out_dir: str, horizon: int | None, cap: int
):
    params = _params(
        cfg, {"eps", "steps", "k_max", "n_max", "use_kappa_hat", "phi_reg", "b"}
    )
    use_hat = _flag(params, "use_kappa_hat", False)
    eps_list = field(params, "eps", list_of(rational), [Fraction(1, 4)])
    steps = _steps(params, horizon, 1000)
    k_max, n_max = _phi_range(params)
    if "phi_reg" not in params:
        raise ConfigError("cauchy-modulus needs a phi_reg regularity modulus")
    phi_reg = field(params, "phi_reg", RegularityModulus.from_json)
    b = field(params, "b", rational, Fraction(1))
    validate_regularity_ball(inst, phi_reg, b)
    trace = run(inst, steps)
    phi = build_empirical_phi(trace, k_max, n_max, inst)

    def theta_eval(eps: Fraction):
        return theta_moudafi(eps, inst.quant, phi, phi_reg, use_hat, cap)

    cert = check_cauchy_modulus(trace, theta_eval, eps_list)
    _write(out_dir, "cauchy_modulus.json", _cert_json(cert))
    return [cert]


def _task_moduli_eval(cfg: dict) -> list:
    params = _params(
        cfg,
        {"modulus", "k", "r", "n", "m", "M", "B", "Bprime", "A", "L", "d", "varpi", "xi"},
    )
    name = params.get("modulus")
    nat = lambda key: field(params, key, natural)  # noqa: E731
    mod = lambda key: field(params, key, ModulusFn.from_json)  # noqa: E731
    frac = lambda key: field(params, key, rational)  # noqa: E731
    if name == "delta":
        value = delta(nat("k"))
    elif name == "omega":
        value = omega(nat("k"), nat("M"), mod("varpi"))
    elif name == "varpi_prime":
        value = varpi_prime(nat("k"), nat("B"), mod("varpi"))
    elif name == "chi":
        value = chi(nat("r"), nat("n"), nat("m"), exp_upper(frac("A"))).to_json()
    elif name == "xi_tilde":
        value = xi_tilde(nat("n"), nat("M"), exp_upper(frac("A")), mod("xi"))
    elif name == "P":
        value = total_boundedness_P(
            nat("k"), exp_upper(frac("A")), sqrt_upper(nat("d")), frac("L"), nat("d")
        ).to_json()
    elif name == "kappa":
        value = kappa(nat("k"), nat("M"), nat("B"))
    elif name == "kappa_hat":
        value = kappa_hat(nat("k"), nat("M"), nat("B"), nat("Bprime"), mod("varpi"))
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
    parser = argparse.ArgumentParser(prog="fejerquant", description=__doc__)
    parser.add_argument(
        "task",
        choices=[
            "run",
            "certify-metastability",
            "cauchy-modulus",
            "check-lemmas",
            "moduli-eval",
        ],
    )
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
        vacuous_ok = _flag(cfg, "vacuous_ok", True)
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
        if args.task == "run":
            certs = _task_run(cfg, inst, out_dir, args.horizon)
        elif args.task == "check-lemmas":
            certs = _task_check_lemmas(cfg, inst, out_dir, args.horizon)
        elif args.task == "certify-metastability":
            certs = _task_certify_metastability(cfg, inst, out_dir, args.horizon, cap)
        else:
            certs = _task_cauchy_modulus(cfg, inst, out_dir, args.horizon, cap)
    except FejerQuantError as exc:
        print(f"config/problem error: {exc}", file=sys.stderr)
        return 2

    for cert in certs:
        print(_summarize(cert))
    if args.csv and certs:
        lines = ["kind,sound,vacuous,violations"]
        for cert in certs:
            lines.append(
                f"{cert.kind},{cert.sound},{cert.vacuous},{len(cert.violations)}"
            )
        _write(out_dir, "certificates.csv", "\n".join(lines) + "\n")
    for cert in certs:
        if not cert.sound or (cert.vacuous and not vacuous_ok):
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
