import re

import pytest

from neurokey.cli import main
from neurokey.harness import Scenario, StartMode, run_scenario


def test_sync_success_exit_zero(capsys):
    code = main(["sync", "--K", "3", "--N", "4", "--L", "2", "--seed", "5", "--budget", "50000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "converged=True" in out


def test_sync_trace_prints_overlaps(capsys):
    code = main(
        ["sync", "--K", "3", "--N", "4", "--L", "2", "--seed", "5", "--budget", "50000",
         "--overlap", "0.9", "--trace"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 1


def test_sync_non_convergence_exit_two(capsys):
    code = main(["sync", "--K", "8", "--N", "20", "--L", "3", "--seed", "5", "--budget", "2"])
    assert code == 2


@pytest.mark.parametrize(
    "flags, mode",
    [
        ([], StartMode("random")),
        (["--overlap", "0.9"], StartMode("overlap", 0.9)),
        (["--qber", "0.15"], StartMode("from_qber", 0.15)),
    ],
)
@pytest.mark.parametrize("seed", [5, 12])
def test_sync_replays_trial_zero_of_the_one_point_scenario(capsys, flags, mode, seed):
    shape = ["--K", "3", "--N", "4", "--L", "2"]
    code = main(["sync", *shape, "--seed", str(seed), "--budget", "50000", *flags])
    assert code == 0
    out = capsys.readouterr().out
    printed = re.search(r"iterations=(\d+) learning_steps=(\d+)", out)
    scenario = Scenario(
        name="sync",
        K_values=(3,),
        N_values=(4,),
        start_modes=(mode,),
        trials=1,
        base_seed=seed,
        max_iterations=50000,
    )
    (record,) = run_scenario(scenario)
    assert record.iterations > 0
    assert (int(printed[1]), int(printed[2])) == (record.iterations, record.learning_steps)


def test_bad_flag_value_exit_three():
    code = main(["sync", "--K", "0", "--N", "4", "--L", "2"])
    assert code == 3


def test_unknown_argument_exit_three():
    code = main(["sync", "--bogus"])
    assert code == 3


def test_scenario_roundtrip_determinism(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(
        """
[scenario]
name = tiny
kind = sync
trials = 2
base_seed = 3
L = 2
K = 3
N = 4
start_mode = overlap:0.9
max_iterations = 50000
"""
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["scenario", str(config), "--out", str(out1)]) == 0
    assert main(["scenario", str(config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scenario_bundled_name_with_overrides(tmp_path, capsys):
    out = tmp_path / "fig4.csv"
    code = main(["scenario", "fig4", "--trials", "1", "--seed", "1", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[1].startswith("scenario,")
    # fig4 sweeps K in {6,8,10} and N in 20..25 -> 18 rows for one trial each
    assert len(text.splitlines()) == 2 + 18


def test_scenario_missing_file_exit_three(capsys):
    assert main(["scenario", "no-such-scenario"]) == 3


def test_scenario_protocol_mode_on_attack_exit_three(capsys):
    assert main(["scenario", "fig2", "--protocol-mode"]) == 3
    assert "protocol_mode" in capsys.readouterr().err


def test_scenario_worker_count_out_of_range_exit_three(capsys, tmp_path):
    out = tmp_path / "never.csv"
    assert main(["scenario", "fig2", "--workers", "0", "--out", str(out)]) == 3
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


def test_compare_prints_table(capsys, tmp_path):
    out = tmp_path / "cmp.csv"
    code = main(
        ["compare", "--length", "200", "--qber", "0.05", "--trials", "100", "--seed", "2",
         "--K", "4", "--N", "5", "--L", "2", "--out", str(out)]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "cascade" in table
    assert out.read_text().startswith("#")


def test_pipeline_success(capsys):
    code = main(
        ["pipeline", "--length", "400", "--qber", "0.02", "--K", "4", "--N", "6", "--L", "2",
         "--security-bits", "10", "--seed", "3"]
    )
    assert code == 0
    assert "keys identical        True" in capsys.readouterr().out


def test_pipeline_abort_exit_two(capsys):
    code = main(
        ["pipeline", "--length", "2000", "--qber", "0.2", "--K", "4", "--N", "6", "--L", "2",
         "--seed", "3"]
    )
    assert code == 2


def test_pipeline_infeasible_budget_exit_three(capsys):
    code = main(
        ["pipeline", "--length", "500", "--qber", "0.0", "--K", "3", "--N", "4", "--L", "2",
         "--security-bits", "100", "--seed", "4"]
    )
    assert code == 3


def test_attack_summary_and_csv(tmp_path, capsys):
    out = tmp_path / "attack.csv"
    code = main(
        ["attack", "--K", "4", "--N", "6", "--L", "2", "--strategy", "passive",
         "--budget", "200", "--trials", "3", "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    assert "eve_success_rate" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 2 + 3


def test_help_exit_zero(capsys):
    assert main(["--help"]) == 0
