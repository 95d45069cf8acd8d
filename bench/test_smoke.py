"""Smoke test of the benchmark on tiny sizes of every workload.

    python3 -m pytest bench/test_smoke.py

Checks that each run emits exactly the metrics BENCHMARK.json names, with
their units, that no run fails its output checks (error rate 0), and that
the benchmark refuses to run where the stroblim sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from scenarios import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stderr
    assert f"error_rate 0/{result['attempted']} = 0" in proc.stdout
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], (int, float)), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "raw_wall_s (not host-adjusted)" in proc.stdout


def test_refuses_without_sources():
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, "--workload", "selective_sweep", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
