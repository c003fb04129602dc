"""Smoke test of running an experiment as a program: `python -m neurokey.cli
scenario NAME` runs a bundled scenario serially at a tiny size, writes its CSV
and prints the per-point summary on stderr."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_scenario_program(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "neurokey.cli", "scenario", name, "--workers", "1", *args]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)


def test_run_table1(tmp_path):
    out = tmp_path / "table1.csv"
    done = run_scenario_program("table1", "--trials", "100", "--out", str(out))
    assert done.returncode == 0, done.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    for length in (500, 600):
        for algorithm in ("bbbss", "cascade", "tpm"):
            trials = [row[1] for row in rows if row[0] == f"table1/{algorithm}/{length}b"]
            assert trials == [str(trial) for trial in range(100)]
    # the 600-bit keys are drawn at error rate 3%
    assert "from_qber:0.03" in done.stderr


def test_run_attack_study(tmp_path):
    out = tmp_path / "fig2.csv"
    done = run_scenario_program("fig2", "--trials", "2", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert len(out.read_text().splitlines()) == 2 + 2
    assert "eve_synced" in done.stderr.splitlines()[0].split()
