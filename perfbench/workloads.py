"""The four benchmark workloads: seeded inputs, the invocations of one pass,
and the verdict each invocation's output files must reproduce.

A workload seed picks one of eight admissible variants (``seed % 8``):
a start point for the trajectory workloads, a grid offset for the
regularity workload. Variant 0 is the reference input. The program only
ever sees the generated config files; the expected verdicts for every
variant are recorded in ``expected.json`` from the reference commit.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from fractions import Fraction

WORKLOADS = ("meta-1d", "lemmas-1d", "trace-cauchy-2d", "regularity-grid")
SIZES = ("full", "tiny")
N_VARIANTS = 8

# the catalog instance dc-abs-1d: T = Id, S = d|.|, zeros -1, 0 and 1
DC_ABS_1D = {
    "problem": {
        "T": {"kind": "affine_psd", "matrix": [[1.0]], "offset": [0.0]},
        "S": {"kind": "subdiff_abs", "dim": 1},
        "x0": [0.5],
        "known_solutions": [[-1.0], [0.0], [1.0]],
    },
    "schedule": {
        "lambda": {"rule": "power", "c": 1, "p": 1},
        "mu": {"rule": "power", "c": 1, "p": 3},
        "horizon": 100000,
    },
    "quant": {
        "A": "2", "B": 1, "Bprime": 0, "C": "1", "M": 2, "L": "4", "d": 1,
        "theta": {"kind": "power_rate", "c": "1", "p": 1},
        "xi": {"kind": "power_sum_rate", "c": "1", "p": 3},
        "varpi": {"kind": "identity"},
        "varpi_hat": {"kind": "identity"},
    },
}

# box-affine-nd on the calibrated schedule (lambda power 2, mu power 4)
BOX_CALIBRATED = {
    "problem": {
        "T": {"kind": "affine_psd", "matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [-2.0, 1.0]},
        "S": {"kind": "normal_cone_box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "x0": [0.5, 0.5],
        "known_solutions": [[0.0, 1.0]],
    },
    "schedule": {
        "lambda": {"rule": "power", "c": 1, "p": 2},
        "mu": {"rule": "power", "c": 1, "p": 4},
        "horizon": 12000,
    },
    "quant": {
        "A": "7/4", "B": 1, "Bprime": 0, "C": "1", "M": 3, "L": "2", "d": 2,
        "theta": {"kind": "power_rate", "c": "1", "p": 2},
        "xi": {"kind": "power_sum_rate", "c": "1", "p": 4},
        "varpi": {"kind": "identity"},
        "varpi_hat": {"kind": "identity"},
    },
}

# admissible start points: every certificate on them stays sound
X0_1D = [0.5, 0.25, 0.75, -0.5, -0.25, -0.75, 0.375, -0.375]
# inside the unit box and within b = 3/4 of the regularity centre (0, 1)
X0_BOX = [
    [0.5, 0.5], [0.25, 0.5], [0.5, 0.75], [0.375, 0.5],
    [0.25, 0.75], [0.125, 0.5], [0.5, 0.625], [0.375, 0.75],
]
# dyadic shifts of the regularity grid centre, so grid points stay exact
GRID_OFFSETS = ["0", "1/64", "-1/64", "1/32", "-1/32", "3/64", "-3/64", "1/16"]

# per-size parameters; "full" are the reference sizes
PARAMS = {
    "full": {
        "meta_steps": 100000,
        "lemmas_max": 800,
        "cauchy_steps": 12000,
        "cauchy_eps": ["1/4", "1/16"],
        "grid_radius": "4",
        "grid_eps": ["1/4", "1/16"],
        "verify_pitch": "1/1000",
    },
    "tiny": {
        "meta_steps": 2000,
        "lemmas_max": 30,
        "cauchy_steps": 3000,
        "cauchy_eps": ["1/4"],
        "grid_radius": "2",
        "grid_eps": ["1/4"],
        "verify_pitch": "1/100",
    },
}

GAPS = ("F1", "F2", "FDiff")
VERIFY_GAP = "F1"
VERIFY_EPS = "1/4"

# the layer(s) each workload was chosen to stress, for the attribution check
DOMINANT_LAYERS = {
    "meta-1d": ("iteration",),
    "lemmas-1d": ("verification",),
    "trace-cauchy-2d": ("verification", "iteration"),
    "regularity-grid": ("regularity", "operators"),
}


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def _with_x0(base: dict, x0, params: dict) -> dict:
    cfg = copy.deepcopy(base)
    cfg["problem"]["x0"] = [float(v) for v in x0]
    cfg["params"] = params
    return cfg


def configs(workload: str, seed: int, size: str) -> list:
    """The invocations of one pass as (label, task, config) triples; task is
    a CLI task name, or "grid" for the library script."""
    v = variant_of(seed)
    p = PARAMS[size]
    if workload == "meta-1d":
        params = {
            "steps": p["meta_steps"], "k": 2, "g": {"kind": "affine", "a": 1, "b": 1},
            "k_max": 25, "n_max": 200, "use_psi_prime": True, "check_gamma": True,
        }
        return [("certify-metastability", "certify-metastability",
                 _with_x0(DC_ABS_1D, [X0_1D[v]], params))]
    if workload == "lemmas-1d":
        m = p["lemmas_max"]
        params = {"max_n": m, "max_l": m, "max_i": m, "steps": 2 * m}
        return [("check-lemmas", "check-lemmas", _with_x0(DC_ABS_1D, [X0_1D[v]], params))]
    if workload == "trace-cauchy-2d":
        steps = p["cauchy_steps"]
        run_cfg = _with_x0(BOX_CALIBRATED, X0_BOX[v], {"steps": steps})
        cauchy_cfg = _with_x0(BOX_CALIBRATED, X0_BOX[v], {
            "steps": steps, "eps": p["cauchy_eps"], "k_max": 25, "n_max": 200,
            "use_kappa_hat": False, "b": "3/4",
            "phi_reg": {"kind": "linear", "provenance": "analytic",
                        "center": [0.0, 1.0], "radius": "8", "scale": "1"},
        })
        run_cfg["schedule"]["horizon"] = cauchy_cfg["schedule"]["horizon"] = steps
        return [("run", "run", run_cfg), ("cauchy-modulus", "cauchy-modulus", cauchy_cfg)]
    if workload == "regularity-grid":
        cfg = _with_x0(DC_ABS_1D, [0.5], {})
        cfg["grid"] = {
            "gaps": list(GAPS),
            "zeros": [[-1.0], [0.0], [1.0]],
            "center": [GRID_OFFSETS[v]],
            "radius": p["grid_radius"],
            "eps": p["grid_eps"],
            "verify_gap": VERIFY_GAP,
            "verify_eps": VERIFY_EPS,
            "verify_pitch": p["verify_pitch"],
        }
        return [("regularity-grid", "grid", cfg)]
    raise ValueError(f"unknown workload {workload!r}")


def write_spec(workload: str, seed: int, size: str, run_dir: str) -> dict:
    """Write the generated configs under run_dir and return the pass spec.

    The regularity script's grid settings travel in the spec, not in the
    config file, because the CLI config schema has no place for them.
    """
    invocations = []
    for i, (label, task, cfg) in enumerate(configs(workload, seed, size)):
        grid = cfg.pop("grid", None)
        path = os.path.join(run_dir, f"config{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
        invocations.append({
            "label": label, "task": task, "config": path,
            "out": os.path.join(run_dir, f"out{i}"), "grid": grid,
        })
    spec = {"workload": workload, "seed": seed, "size": size, "invocations": invocations}
    with open(os.path.join(run_dir, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
    return spec


# --------------------------------------------------------------------------
# verdicts read back from the output files
# --------------------------------------------------------------------------


def _load(out: str, name: str):
    with open(os.path.join(out, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _bound_digits(bound) -> int:
    """Digits of a serialized bound; 0 for the overflow marker."""
    return len(bound) if isinstance(bound, str) else 0


def verdict(inv: dict, exit_code: int) -> dict:
    """The checked facts of one invocation's outputs. Raises OSError or
    ValueError when an expected output is missing or malformed."""
    out = inv["out"]
    label = inv["label"]
    v: dict = {"exit": exit_code}
    if label == "certify-metastability":
        cert = _load(out, "metastability_k2.json")
        bound = cert["bound"]
        v.update(
            sound=cert["sound"], vacuous=cert["vacuous"],
            N=cert["witness"]["N"], N_gamma=cert["witness"].get("N_gamma"),
            P=cert["witness"]["P"], psi_digits=_bound_digits(bound),
            psi_sha256=hashlib.sha256(json.dumps(bound).encode()).hexdigest(),
            psi_prime_overflow=isinstance(cert["witness"].get("psi_prime"), dict),
        )
    elif label == "check-lemmas":
        certs = _load(out, "lemma_certificates.json")
        v.update(
            sound=[c["sound"] for c in certs],
            vacuous=[c["vacuous"] for c in certs],
            checked=[c["witness"]["checked"] for c in certs],
        )
    elif label == "run":
        with open(os.path.join(out, "trace.jsonl"), "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        v.update(lines=len(lines), final_x=json.loads(lines[-1])["x"])
    elif label == "cauchy-modulus":
        cert = _load(out, "cauchy_modulus.json")
        per_eps = cert["witness"]["per_eps"]
        v.update(
            sound=cert["sound"], vacuous=cert["vacuous"],
            theta={e: per_eps[e]["theta"] for e in sorted(per_eps)},
            status={e: per_eps[e]["status"] for e in sorted(per_eps)},
        )
    elif label == "regularity-grid":
        v.update(_load(out, "grid_moduli.json"))
    else:
        raise ValueError(f"unknown invocation {label!r}")
    return v


def digests(inv: dict) -> dict:
    """SHA-256 and size of every file an invocation wrote."""
    out = inv["out"]
    result = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        result[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return result


def counts(v: dict) -> dict:
    """Exact semantic counts a verdict carries, reported by the traced pass."""
    c = {}
    if "psi_digits" in v:
        c["moduli.psi_digits"] = v["psi_digits"]
        c["moduli.recursion_steps"] = int(v["P"]) if isinstance(v["P"], str) else 0
        c["moduli.overflows"] = int(v["psi_digits"] == 0) + int(v["psi_prime_overflow"])
    if "theta" in v:
        c["moduli.overflows"] = c.get("moduli.overflows", 0) + sum(
            isinstance(t, dict) for t in v["theta"].values()
        )
    if "checked" in v:
        c["verification.checked"] = sum(v["checked"])
    return c


def grid_points(radius: Fraction, pitch: Fraction) -> int:
    """Points of the one-dimensional grid over B(z; r) at the given pitch,
    as ``regularity._ball_grid`` builds it: ceil(2r / pitch) + 1."""
    return int(-((-2 * radius) // pitch) + 1)
