"""Smoke test of the benchmark at tiny size: every workload, both trace modes,
emits every metric BENCHMARK.json names, with its unit; a run repeats its
counts exactly at one seed; and a run without the library fails.

    python3 -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, *CONFIG["command"][1:]]
    command += ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    completed = bench(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(emitted["value"]), metric["name"]


def test_counts_and_outputs_repeat_at_one_seed():
    runs = [bench(ROOT, WORKLOADS[0], 0) for _ in range(2)]
    assert all(completed.returncode == 0 for completed in runs)
    lines = [completed.stdout.strip().splitlines() for completed in runs]
    results = [json.loads(line[-1]) for line in lines]
    records = [json.loads(line[-2])["record"] for line in lines]
    assert results[0]["attempted"] == results[1]["attempted"]
    assert results[0]["failed"] == results[1]["failed"]
    assert records[0]["failures"] == records[1]["failures"]
    assert records[0]["output_sha256"] == records[1]["output_sha256"]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in CONFIG["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = bench(tmp_path, WORKLOADS[0], 0)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
