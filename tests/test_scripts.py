"""Smoke test of running an experiment as a program: `python -m neurokey.cli
scenario NAME` runs a bundled scenario serially at a tiny size, writes its CSV
and prints the per-point summary on stderr. A reader that closes stdout early
ends the program with exit code 1 and no traceback. `--help` into such a
reader prints no traceback either: buffered, it exits 1 at the last flush;
unbuffered, it exits 0 where argparse drops its failed write (3.11.7, 3.12,
3.13) and 1 where argparse raises `BrokenPipeError` (3.10, 3.11.2)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def program_env(**overrides):
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_scenario_program(name, *args):
    command = [sys.executable, "-m", "neurokey.cli", "scenario", name, "--workers", "1", *args]
    return subprocess.run(command, env=program_env(), capture_output=True, text=True, timeout=300)


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


def run_into_a_closed_reader(args, unbuffered):
    # a buffered stdout meets the closed pipe at the last flush, an unbuffered one at the first write
    command = [sys.executable, "-m", "neurokey.cli", *args]
    env = program_env(PYTHONUNBUFFERED=unbuffered)
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as program:
        program.stdout.close()
        stderr = program.stderr.read()
        return program.wait(timeout=300), stderr


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "args",
    [["scenario", "fig4", "--trials", "1"], ["sync", "--K", "6", "--N", "8", "--trace"], ["pipeline", "--seed", "1"]],
    ids=lambda args: args[0],
)
def test_a_closed_stdout_exits_one_without_a_traceback(args, unbuffered):
    code, stderr = run_into_a_closed_reader(args, unbuffered)
    assert code == 1, stderr
    for noise in ("Traceback", "BrokenPipeError", "Exception ignored"):
        assert noise not in stderr


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("args", [["--help"], ["sync", "--help"]], ids=["help", "sync-help"])
def test_help_into_a_closed_stdout_ends_without_a_traceback(args, unbuffered):
    # an unbuffered write fails inside argparse, which drops the error on some Pythons (exit 0) and
    # raises it on others (exit 1); a buffered stdout meets the closed pipe at the last flush
    code, stderr = run_into_a_closed_reader(args, unbuffered)
    assert code in ((0, 1) if unbuffered else (1,)), stderr
    for noise in ("Traceback", "BrokenPipeError", "Exception ignored"):
        assert noise not in stderr
