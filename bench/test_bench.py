"""Smoke test of the benchmark itself, on toy-sized inputs.

    python3 -m pytest bench/test_bench.py

Every workload runs untraced and traced; each metric BENCHMARK.json names
must come out with its unit, and every quality number must either have a
value or be marked not applicable.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(cwd, *args, toy=True):
    cmd = [sys.executable, os.path.join(os.path.relpath(BENCH, ROOT), "run.py"), *args]
    if toy:
        cmd.append("--toy")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    report, last = parse(proc.stdout)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True, report["failures"]
    assert last["failed"] == 0 and last["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    for name in report["not_applicable"]:
        assert name in last["metrics"] or report["quality"][name]["value"] is None
        if name in last["metrics"]:
            assert last["metrics"][name]["value"] == 0.0
    for name, q in report["quality"].items():
        assert q["unit"]
        assert (q["value"] is None) == (name in report["not_applicable"]), name


def test_same_seed_gives_same_estimates():
    args = ("--workload", "mc_random_sl", "--seed", "5", "--seconds", "0.2")
    reports = [parse(run_bench(ROOT, *args, "--trace", t).stdout)[0] for t in "001"]
    assert len({r["beta_digest"] for r in reports}) == 1
    assert len({r["quality"]["beta_rmse"]["value"] for r in reports}) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0", toy=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
