"""fejerquant benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload meta-1d --seed 0 --seconds 25 --trace 0

Run from the repository root. The program under test is ``src/fejerquant``
from that checkout; every invocation is a fresh interpreter with
BLAS/OpenMP threads pinned to 1, started one at a time from this process.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median wall time of
one workload pass), ``setup_s`` (median set-up time of fresh interpreters)
and ``peak_rss_mb`` (median over passes of the largest child RSS).
``--trace 1`` alternates untraced passes with traced passes and reports
the per-layer metrics. Every pass's outputs are checked against the
verdicts recorded in ``expected.json``; a mismatch counts as a failed
invocation. The last line of stdout is the JSON result. See README.md.

``--record-expected`` rewrites ``expected.json`` from the current program
(one pass of every workload, variant and size). Use it only on the commit
whose behaviour is the reference.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
REPLAY = os.path.join(HERE, "replay.py")
RUNS_DIR = ".perfbench_runs"
CLI_SNIPPET = "import sys; from fejerquant.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_PROBES_PER_ROUND = 2
CHILD_TIMEOUT_S = 150.0
LAYERS = ("cli", "iteration", "moduli", "regularity", "verification")
# median time of calibrate() on the 2-vCPU virtual machine the bounds were set on
CALIB_REF_S = 0.36
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def calibrate() -> float:
    """Seconds a fixed reference kernel takes on this CPU right now.

    The kernel mixes small numpy arrays with interpreter float arithmetic,
    like the workloads, and uses nothing from src/, so no change to the
    program can move it. Timings are scaled by CALIB_REF_S / calibrate(),
    which removes the host's CPU speed swings (up to 40% over minutes on a
    shared virtual machine) while keeping every change to the program.
    """
    import numpy as np

    x = np.array([0.5])
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(40000):
        lam = 1.0 / (i + 1)
        mu = lam ** 3
        y = x + mu * np.sign(x) * np.minimum(np.abs(x) / lam, 1.0)
        x = np.sign(y) * np.maximum(np.abs(y) - mu, 0.0)
        acc += float(np.linalg.norm(x - y)) / mu
    return time.perf_counter() - t0


class Child:
    """One finished child process: exit code, wall time, peak RSS, log."""

    def __init__(self, cmd, log_path, env, cwd):
        with open(log_path, "wb") as log:
            self.started = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=cwd)
            box = []
            # os.wait4 reports the child's own peak RSS; waiting in a thread
            # keeps a timeout without polling
            waiter = threading.Thread(target=lambda: box.append(os.wait4(proc.pid, 0)))
            waiter.start()
            waiter.join(CHILD_TIMEOUT_S)
            self.timed_out = waiter.is_alive()
            if self.timed_out:
                proc.kill()
                waiter.join()
            self.ended = time.perf_counter()
        _, status, usage = box[0]
        proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
        self.wall = self.ended - self.started
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
            self.log = fh.read()

    def last_json(self):
        """The JSON result line a replay child prints last, whatever its exit
        code: a traced CLI task that fails still reports its spans."""
        try:
            return json.loads(self.log.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise RuntimeError(f"child failed (exit {self.exit}):\n{self.log[-2000:]}") from None


class Bench:
    def __init__(self, args, root):
        self.root = root
        self.variant = workloads.variant_of(args.seed)
        self.run_dir = os.path.join(root, RUNS_DIR, f"{args.workload}-{args.size}-s{args.seed}-p{os.getpid()}")
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        self.spec = workloads.write_spec(args.workload, args.seed, args.size, self.run_dir)
        self.spec_path = os.path.join(self.run_dir, "spec.json")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env["PYTHONHASHSEED"] = "0"
        for var in THREAD_VARS:
            self.env[var] = "1"
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.expected = None
        self.traced_passes = 0
        self._n = 0
        self._probes = 0

    def child(self, cmd) -> Child:
        self._n += 1
        log = os.path.join(self.run_dir, f"child{self._n}.log")
        return Child([sys.executable] + cmd, log, self.env, self.root)

    def command(self, i: int, mode: str) -> list:
        inv = self.spec["invocations"][i]
        if mode == "traced":
            return [REPLAY, "traced", self.spec_path, str(i), str(self.traced_passes)]
        if inv["task"] == "grid":
            return [REPLAY, "untraced", self.spec_path, str(i)]
        return ["-c", CLI_SNIPPET, inv["task"], "--config", inv["config"], "--out", inv["out"]]

    # ---------------------------------------------------------------- set-up

    def setup_probes(self, n: int) -> list:
        """Set-up times of n fresh interpreters, cycling through the configs."""
        configs = [inv["config"] for inv in self.spec["invocations"]]
        times = []
        for _ in range(n):
            config = configs[self._probes % len(configs)]
            self._probes += 1
            times.append(self.child([REPLAY, "setup", config]).last_json()["setup_s"])
        return times

    # ---------------------------------------------------------------- passes

    def run_pass(self, mode: str) -> dict:
        """One pass of the workload; mode "cli" (untraced) or "traced"."""
        children = []
        for i, inv in enumerate(self.spec["invocations"]):
            shutil.rmtree(inv["out"], ignore_errors=True)
            children.append(self.child(self.command(i, mode)))
        self.traced_passes += mode == "traced"
        verdicts = [self.check(i, c) for i, c in enumerate(children)]
        return {"children": children, "verdicts": verdicts,
                "wall": sum(c.wall for c in children),
                "rss_mb": max(c.rss_mb for c in children)}

    def check(self, i: int, c: Child):
        """Compare one invocation's outputs with the recorded verdict."""
        self.attempted += 1
        inv = self.spec["invocations"][i]
        try:
            got = workloads.verdict(inv, c.exit)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            got = {"exit": c.exit, "error": repr(exc)}
        if self.expected is not None:
            want = self.expected[i]
            if got != want or c.timed_out:
                self.failed += 1
                self.failures.append({"invocation": inv["label"], "got": got, "want": want,
                                      "log": c.log[-1000:]})
        return got

    def close(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)
        parent = os.path.dirname(self.run_dir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def layer_metrics(traced: dict, untraced_wall: float, out_bytes: int) -> dict:
    """Per-layer metrics of one traced pass. A layer's share is its self
    time over the traced pass's wall time, so the shares and
    unattributed_s / traced wall add up to 1."""
    spans = []  # (name, parent name, duration, self time, counts)
    traced_wall = 0.0
    micro = {}
    last = len(traced["children"]) - 1
    for i, c in enumerate(traced["children"]):
        res = c.last_json()
        traced_wall += (res["done_at"] if i == last else c.ended) - c.started
        micro.update(res["micro"])
        raw = res["spans"]
        child_time = [0.0] * len(raw)
        for name, parent, start, end, _, _ in raw:
            if parent is not None:
                child_time[parent] += end - start
        for j, (name, parent, start, end, _, counts) in enumerate(raw):
            pname = raw[parent][0] if parent is not None else None
            spans.append((name, pname, end - start, end - start - child_time[j], counts))

    def total(name):
        return sum(s[2] for s in spans if s[0] == name)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def summed(name, key):
        return sum(s[4].get(key, 0) for s in spans if s[0] == name)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m = {}
    m["cli.load_build_s"] = total("cli.load_build")
    m["cli.out_bytes"] = out_bytes
    m["iteration.validate_against_s"] = total("iteration.validate_against")
    m["iteration.run_s"] = total("iteration.run")
    steps = summed("iteration.run", "steps")
    m["iteration.steps_per_s"] = rate(steps, m["iteration.run_s"])
    m["iteration.to_jsonl_s"] = total("iteration.to_jsonl")
    m["iteration.trace_bytes"] = summed("iteration.to_jsonl", "bytes")
    m["iteration.trace_mb_s"] = rate(m["iteration.trace_bytes"] / 1e6, m["iteration.to_jsonl_s"])
    n_gamma = calls("iteration.gamma_k_check")
    m["iteration.gamma_k_check_calls"] = n_gamma
    m["iteration.gamma_k_check_us"] = rate(total("iteration.gamma_k_check") * 1e6, n_gamma)
    grid_points = summed("regularity.grid_oracle", "points") + summed("regularity.verify_grid", "points")
    m["operators.calls"] = 2 * steps + 2 * grid_points
    for key in ("resolvent_us", "yosida_us", "evaluate_us", "minimal_selection_us"):
        m[f"operators.{key}"] = micro[f"operators.{key}"]
    m["moduli.psi_s"] = total("moduli.psi")
    m["moduli.psi_prime_s"] = total("moduli.psi_prime")
    m["moduli.psi_digits"] = 0
    m["moduli.recursion_steps"] = 0
    m["moduli.overflows"] = 0
    m["regularity.grid_oracle_s"] = total("regularity.grid_oracle")
    m["regularity.verify_grid_s"] = total("regularity.verify_grid")
    m["regularity.grid_points"] = grid_points
    m["regularity.grid_points_per_s"] = rate(
        grid_points, m["regularity.grid_oracle_s"] + m["regularity.verify_grid_s"]
    )
    m["regularity.eval_gap_us"] = micro["regularity.eval_gap_us"]
    m["regularity.validate_ball_s"] = total("regularity.validate_ball")
    m["regularity.theta_s"] = total("regularity.theta")
    m["verification.build_phi_s"] = total("verification.build_phi")
    m["verification.find_metastable_s"] = total("verification.find_metastable")
    m["verification.windows_tested"] = sum(
        1 for s in spans
        if s[0] == "verification.window_diameter" and s[1] == "verification.find_metastable"
    )
    m["verification.gamma_scan_s"] = sum(
        s[3] for s in spans if s[0] == "verification.certify_metastability"
    )
    m["verification.quasi_fejer_s"] = total("verification.quasi_fejer")
    m["verification.quasi_fejer_ineq_per_s"] = rate(
        summed("verification.quasi_fejer", "checked"), m["verification.quasi_fejer_s"]
    )
    m["verification.approx_error_s"] = total("verification.approx_error")
    m["verification.approx_error_ineq_per_s"] = rate(
        summed("verification.approx_error", "checked"), m["verification.approx_error_s"]
    )
    m["verification.checked"] = 0
    m["verification.cauchy_check_s"] = total("verification.cauchy_check")
    m["verification.window_diameter_s"] = total("verification.window_diameter")
    m["verification.window_points"] = summed("verification.window_diameter", "points")
    for v in traced["verdicts"]:
        m.update(workloads.counts(v))
    attributed = 0.0
    for layer in LAYERS:
        own = sum(s[3] for s in spans if s[0].split(".")[0] == layer)
        attributed += own
        m[f"{layer}.self_s"] = own
        m[f"{layer}.share"] = own / traced_wall
    m["unattributed_s"] = traced_wall - attributed
    m["tracing_overhead_s"] = traced_wall - untraced_wall
    return m


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------


def pin_to_one_cpu() -> None:
    """Run this process and every child on the lowest allowed CPU.

    Children run one at a time, so they never compete for it; without the
    pin the scheduler migrates them between virtual CPUs whose speeds differ,
    which spreads pass times far more than the program's own variation.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def metadata(root: str) -> dict:
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
    }


def load_spec_metrics() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def load_expected(size: str, workload: str, variant: int):
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        exp = json.load(fh)
    key = str(variant)
    return exp["verdicts"][size][workload][key], exp["digests"][size][workload][key]


def record_expected(root: str) -> None:
    verdicts: dict = {}
    digests: dict = {}
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            for variant in range(workloads.N_VARIANTS):
                args = argparse.Namespace(workload=workload, seed=variant, size=size)
                b = Bench(args, root)
                try:
                    p = b.run_pass("cli")
                    verdicts.setdefault(size, {}).setdefault(workload, {})[str(variant)] = p["verdicts"]
                    digests.setdefault(size, {}).setdefault(workload, {})[str(variant)] = [
                        workloads.digests(inv) for inv in b.spec["invocations"]
                    ]
                    print(size, workload, variant, p["verdicts"], file=sys.stderr, flush=True)
                finally:
                    b.close()
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"recorded_at": metadata(root), "verdicts": verdicts, "digests": digests},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--out", help="also write the full result (samples, digests) to this JSON file")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fejerquant", "__init__.py")):
        print("perfbench: run from a checkout root containing src/fejerquant", file=sys.stderr)
        return 2
    if args.record_expected:
        record_expected(root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    units = load_spec_metrics()[args.trace]
    pin_to_one_cpu()
    bench = Bench(args, root)
    try:
        bench.expected, seed_digests = load_expected(args.size, args.workload, bench.variant)
        result = measure(bench, args)
    finally:
        bench.close()
    meta = metadata(root)
    metrics = result["metrics"]
    print(f"perfbench workload={args.workload} seed={args.seed} variant={bench.variant} "
          f"size={args.size} trace={args.trace} seconds={args.seconds:g}")
    print("  " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>16.6g} {unit:<6} {result['notes'].get(name, '')}")
    error_rate = bench.failed / bench.attempted
    print(f"  {'error_rate':<40} {error_rate:>16.6g} ratio  "
          f"({bench.failed} failed / {bench.attempted} attempted invocations)")
    for i, d in enumerate(result["digests"]):
        for name, info in d.items():
            same = seed_digests[i].get(name, {}).get("sha256") == info["sha256"]
            print(f"  digest {bench.spec['invocations'][i]['label']}/{name} sha256={info['sha256']} "
                  f"bytes={info['bytes']} same_as_recorded={'yes' if same else 'no'}")
    for line in result["attribution"]:
        print("  " + line)
    for f in bench.failures[:3]:
        print(f"  FAILED {json.dumps(f)[:1500]}", file=sys.stderr)
    out = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({**out, "workload": args.workload, "seed": args.seed, "variant": bench.variant,
                       "size": args.size, "trace": args.trace, "meta": meta,
                       "samples": result["samples"], "digests": result["digests"],
                       "error_rate": error_rate}, fh, indent=2, sort_keys=True)
    print(json.dumps(out))
    return 0


def corrected(raw: list, around: list) -> list:
    """raw[i] scaled to the reference CPU speed by the mean of the two
    calibrations around[i] taken just before and just after it."""
    return [r * 2 * CALIB_REF_S / (b + a) for r, (b, a) in zip(raw, around)]


def summary(values: list, what: str) -> str:
    q1, q3 = quartiles(values)
    return f"median {statistics.median(values):.4f}, q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)} {what}"


def measure(bench: Bench, args) -> dict:
    """Rounds of: untraced pass, set-up probes, traced pass (with --trace 1),
    each timed between two calibrations, until --seconds are used."""
    # a warm-up probe writes the bytecode caches
    bench.setup_probes(1)
    t0 = time.perf_counter()
    untraced, traced, around = [], [], []
    setups_raw, setup_around = [], []
    last = None
    while True:
        before = calibrate() if last is None else last
        untraced.append(bench.run_pass("cli"))
        after = calibrate()
        around.append((before, after))
        setups_raw += bench.setup_probes(SETUP_PROBES_PER_ROUND)
        last = calibrate()
        setup_around += [(after, last)] * SETUP_PROBES_PER_ROUND
        if args.trace:
            traced.append(bench.run_pass("traced"))
            last = None
        # stop when another round would end more than half a round late
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(untraced) / 2 >= args.seconds:
            break
    walls_raw = [p["wall"] for p in untraced]
    walls = corrected(walls_raw, around)
    setups = corrected(setups_raw, setup_around)
    rss = [p["rss_mb"] for p in untraced]
    digests = [workloads.digests(inv) for inv in bench.spec["invocations"]]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "wall_s": f"{summary(walls, 'passes')}; raw {summary(walls_raw, 'passes')}",
        "setup_s": f"{summary(setups, 'fresh interpreters')}; raw {summary(setups_raw, 'fresh interpreters')}",
        "peak_rss_mb": f"median over n={len(rss)} passes of the largest child RSS",
    }
    attribution = []
    samples = {"wall_s": walls, "wall_raw_s": walls_raw, "setup_s": setups,
               "setup_raw_s": setups_raw, "calib_setup_s": setup_around,
               "calib_pass_s": around, "peak_rss_mb": rss}
    if args.trace:
        out_bytes = sum(info["bytes"] for d in digests for info in d.values())
        wall = statistics.median(walls_raw)
        per_pass = [layer_metrics(t, wall, out_bytes) for t in traced]
        metrics.update({k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]})
        samples["traced"] = per_pass
        dominant = workloads.DOMINANT_LAYERS[args.workload]
        # operator time has no span of its own: it sits inside its callers
        share = sum(metrics.get(f"{layer}.share", 0.0) for layer in dominant)
        shares = " ".join(f"{layer}={metrics[f'{layer}.share']:.3f}" for layer in LAYERS)
        of_wall = " ".join(f"{layer}={metrics[f'{layer}.self_s'] / wall:.3f}" for layer in LAYERS)
        attribution = [
            f"layer self-time share of the traced wall: {shares} unattributed={metrics['unattributed_s']:.3f}s",
            f"layer self time over the untraced raw wall_s ({wall:.3f}s): {of_wall}",
            f"attribution: {'+'.join(dominant)} = {share:.3f} of the traced wall "
            f"({'dominant' if share >= 0.5 else 'NOT dominant'}); n={len(per_pass)} traced passes",
        ]
    return {"metrics": metrics, "notes": notes, "digests": digests,
            "attribution": attribution, "samples": samples}


if __name__ == "__main__":
    sys.exit(main())
