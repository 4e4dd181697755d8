"""Tiny-size self-check of the benchmark, so that it cannot rot.

    python3 -m pytest -q perfbench      # from the repository root, about a minute

It is not part of the tier-1 suite (pytest's testpaths is ``tests``).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "11", "--seconds", "0.1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.load_spec_metrics()[trace]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_a_changed_verdict_counts_as_a_failure():
    b = run.Bench(argparse.Namespace(workload="meta-1d", seed=0, size="tiny"), ROOT)
    try:
        want, _ = run.load_expected("tiny", "meta-1d", 0)
        b.expected = [dict(want[0], N=want[0]["N"] + 1)]
        b.run_pass("cli")
    finally:
        b.close()
    assert (b.attempted, b.failed) == (1, 1)


def test_expected_verdicts_cover_every_variant():
    with open(run.EXPECTED_PATH, "r", encoding="utf-8") as fh:
        exp = json.load(fh)
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            recorded = exp["verdicts"][size][workload]
            assert sorted(recorded) == sorted(str(v) for v in range(workloads.N_VARIANTS))
            n_inv = len(workloads.configs(workload, 0, size))
            assert all(len(v) == n_inv for v in recorded.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "meta-1d", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
