"""Smoke test of the benchmark at tiny geometry (the test suite's TINY_BLOCKS).

    python3 -m pytest -q perfbench

Checks that every workload emits exactly the metrics BENCHMARK.json
names, traced and untraced, with every output check passing; that a
deliberately corrupted output is counted as failed; and that the
benchmark refuses to run without the program's source.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--geometry", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload,corruption", [
    ("train-single", "loss"), ("train-multi", "checkpoint"),
    ("eval-scenes", "confusion"), ("eval-scenes", "prediction"),
])
def test_corrupted_output_is_counted_as_failed(workload, corruption):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--geometry", "tiny", "--corrupt", corruption))
    assert res["correct"] is False
    assert 1 <= res["failed"] <= res["attempted"]


def test_refuses_to_run_without_program_source():
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
