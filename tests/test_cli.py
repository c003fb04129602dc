import dataclasses
import re

import pytest

from neurokey import cli, harness, sync
from neurokey.cli import main
from neurokey.harness import Scenario, ScenarioError, StartMode, load_scenario, run_scenario
from neurokey.sync import SyncConfig, synchronize_batch


@pytest.mark.parametrize(
    "flags",
    [
        ["--K", "3", "--N", "4", "--L", "2", "--seed", "5", "--budget", "50000"],
        # the default 10x25 reads the pinned budget table; 7x9 is not in it, so it runs the pilots
        [],
        ["--K", "7", "--N", "9"],
        ["--K", "6", "--N", "8", "--start", "from_qber:0.05"],
    ],
    ids=["3x4", "pinned-10x25", "pilot-7x9", "from_qber-6x8"],
)
def test_sync_success_exit_zero(capsys, flags):
    assert main(["sync", *flags]) == 0
    assert capsys.readouterr().out.startswith("converged=True ")


TRACED_SYNCS = {
    "3x4-overlap": ["--K", "3", "--N", "4", "--L", "2", "--seed", "5", "--budget", "50000", "--start", "overlap:0.9"],
    **{
        f"{K}x{N}-{mode}-seed{seed}": ["--K", K, "--N", N, "--seed", str(seed), *flags]
        for K, N in (("6", "8"), ("10", "25"))
        for mode, flags in (("simulation", []), ("protocol", ["--protocol-mode", "--digest-interval", "7"]))
        for seed in range(4)
    },
}


@pytest.mark.parametrize("flags", TRACED_SYNCS.values(), ids=TRACED_SYNCS)
def test_sync_trace_prints_overlaps_before_the_untraced_summary(capsys, flags):
    assert main(["sync", *flags]) == 0
    untraced = capsys.readouterr().out
    assert main(["sync", *flags, "--trace"]) == 0
    *overlaps, summary = capsys.readouterr().out.splitlines()
    # the trace adds lines and changes no round: its summary is the whole untraced output
    assert untraced == summary + "\n"
    fields = dict(field.split("=") for field in summary.split())
    iterations = int(fields["iterations"])
    assert fields["converged"] == "True" and iterations > 0
    # one iteration<TAB>overlap line per round, in order, before the summary
    assert [line.split("\t")[0] for line in overlaps] == [str(i) for i in range(1, iterations + 1)]
    assert all(re.fullmatch(r"\d+\t[01]\.\d{6}", line) for line in overlaps)
    if "--protocol-mode" in flags:  # the run stops on a digest round, one every 7
        exchanges = int(fields["digest_exchanges"])
        assert exchanges > 0 and iterations == 7 * exchanges


def test_sync_non_convergence_exit_two(capsys):
    code = main(["sync", "--K", "8", "--N", "20", "--L", "3", "--seed", "5", "--budget", "2"])
    assert code == 2


def test_sync_out_of_budget_still_prints_its_trace_and_summary(capsys):
    code = main(["sync", "--K", "8", "--N", "20", "--L", "3", "--seed", "5", "--budget", "2", "--trace"])
    assert code == 2
    captured = capsys.readouterr()
    *overlaps, summary = captured.out.splitlines()
    assert [line.split("\t")[0] for line in overlaps] == ["1", "2"]
    assert all(re.fullmatch(r"\d+\t[01]\.\d{6}", line) for line in overlaps)
    assert summary.startswith("converged=False iterations=2 ")
    assert captured.err.startswith("neurokey: non-convergence: no convergence within 2 iterations")


@pytest.mark.parametrize(
    "flags, mode",
    [
        ([], StartMode("random")),
        (["--start", "overlap:0.9"], StartMode("overlap", 0.9)),
        (["--start", "from_qber:0.15"], StartMode("from_qber", 0.15)),
        # no --digest-interval: the command and the scenario share SyncConfig's default
        (["--protocol-mode"], StartMode("random")),
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
        protocol_mode="--protocol-mode" in flags,
    )
    (record,) = run_scenario(scenario)
    assert record.iterations > 0
    assert (int(printed[1]), int(printed[2])) == (record.iterations, record.learning_steps)


@pytest.mark.parametrize("flags", [["--overlap", "0.9"], ["--qber", "0.15"]], ids=["overlap", "qber"])
def test_sync_takes_its_start_only_from_start(capsys, flags):
    assert main(["sync", "--K", "3", "--N", "4", *flags]) == 3
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, message",
    [
        ("overlap:1.5", "overlap must be in [0, 1], got 1.5"),
        ("from_qber:0.9", "from_qber must be in [0, 0.5], got 0.9"),
        ("random:0.5", "random start mode takes no value"),
        ("bogus", "cannot parse start mode 'bogus'"),
    ],
    ids=["overlap-1.5", "from_qber-0.9", "random-0.5", "bogus"],
)
def test_sync_bad_start_fails_with_the_scenario_files_message(capsys, tmp_path, mode, message):
    config = tmp_path / "start.ini"
    config.write_text(f"[scenario]\nK = 3\nN = 4\nstart_mode = {mode}\n")
    assert main(["scenario", str(config)]) == 3
    from_file = capsys.readouterr().err
    assert main(["sync", "--K", "3", "--N", "4", "--start", mode]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == from_file == f"neurokey: config error: {message}\n"


@pytest.mark.parametrize(
    "flags, cadence",
    [
        (["--K", "6", "--N", "8", "--seed", "1", "--protocol-mode", "--digest-interval", "100", "--budget", "199"],
         "1 digest exchanges, one every 100 rounds"),
        (["--K", "8", "--N", "20", "--L", "3", "--seed", "5", "--budget", "2"], None),
    ],
    ids=["protocol", "simulation"],
)
def test_sync_non_convergence_names_the_digest_cadence_in_protocol_mode(capsys, flags, cadence):
    # the parties meet at round 180, after the last digest round of the budget, and still exit 2
    assert main(["sync", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("neurokey: non-convergence: no convergence within ")
    if cadence:
        assert err.endswith(f"; final party overlap 1.0000; {cadence}\n")
    else:
        assert "digest" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sync", "--K", "6", "--N", "8", "--protocol-mode", "--digest-interval", "200", "--budget", "100"],
         "digest interval 200 exceeds the budget (explicit max_iterations=100)"),
        (["sync", "--K", "6", "--N", "8", "--protocol-mode", "--digest-interval", "5000", "--seed", "1"],
         "digest interval 5000 exceeds the budget (pilot budget 2384)"),
        (["sync", "--K", "6", "--N", "8", "--protocol-mode", "--budget", "5"],
         "digest interval 10 exceeds the budget (explicit max_iterations=5)"),
        # a scenario's cadence is SyncConfig's 10
        (["scenario", "{short}", "--protocol-mode", "--out", "{out}"],
         "digest interval 10 exceeds the budget (explicit max_iterations=5)"),
    ],
    ids=["sync-explicit", "sync-pilot", "sync-default-interval", "scenario-explicit"],
)
def test_a_digest_interval_beyond_the_budget_is_a_config_error_exit_three(capsys, tmp_path, argv, message):
    # no digest round falls inside the budget, so no run could stop: it fails before round 0
    short, out = tmp_path / "short.ini", tmp_path / "never.csv"
    short.write_text("[scenario]\nkind = sync\nK = 6\nN = 8\ntrials = 2\nmax_iterations = 5\n")
    assert main([arg.format(short=short, out=out) for arg in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"neurokey: config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sync", "--K", "6", "--N", "8", "--digest-interval", "7"],
        ["pipeline", "--digest-interval", "5"],
        ["sync", "--K", "6", "--N", "8", "--digest-interval", "1"],
    ],
    ids=["sync", "pipeline", "sync-interval-1"],
)
def test_digest_interval_without_protocol_mode_is_a_config_error(capsys, argv):
    # SyncConfig refuses the interval, so every caller meets the same message
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "neurokey: config error: digest_check_interval applies only in protocol mode\n"


@pytest.mark.parametrize("command, default", [("sync", 13), ("pipeline", 17)])
def test_digest_interval_help_shows_the_callee_default(capsys, monkeypatch, command, default):
    # the help text reads each default where it is set, so a changed default shows
    monkeypatch.setattr(
        "neurokey.cli.SyncConfig", lambda protocol_mode: SyncConfig(digest_check_interval=13, protocol_mode=protocol_mode)
    )
    monkeypatch.setattr("neurokey.cli.DEFAULT_PIPELINE_DIGEST_INTERVAL", 17)
    assert main([command, "--help"]) == 0
    assert f"digest cadence (default: {default})" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sync", "--K", "0", "--N", "4", "--L", "2"], "K must be a positive integer, got 0"),
        (["sync", "--budget", "0"], "max_iterations must be >= 1"),
        (["sync", "--protocol-mode", "--digest-interval", "0"], "digest_check_interval must be >= 1"),
        (["sync", "--L", "0"], "L must be a positive integer, got 0"),
        (["pipeline", "--length", "0"], "length must be >= 1"),
        (["pipeline", "--qber", "0.7"], "qber must be in [0, 0.5], got 0.7"),
        (["pipeline", "--K", "0"], "K must be a positive integer, got 0"),
        (["pipeline", "--sample-fraction", "1.5"], "sample_fraction must be in (0, 1), got 1.5"),
        (["scenario", "fig4", "--trials", "0"], "trials must be >= 1"),
    ],
    ids=["sync-K-0", "sync-budget-0", "sync-digest-interval-0", "sync-L-0", "pipeline-length-0",
         "pipeline-qber-0.7", "pipeline-K-0", "pipeline-sample-fraction-1.5", "scenario-trials-0"],
)
def test_bad_flag_value_exit_three(capsys, argv, message):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"neurokey: config error: {message}\n"


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (cli, "synchronize_from_weights", ["sync", "--K", "3", "--N", "4"]),
        (harness, "synchronize_batch", ["scenario", "{tiny}"]),
        (harness, "reconcile", ["pipeline", "--length", "400", "--K", "4", "--N", "6", "--security-bits", "10"]),
    ],
    ids=["sync", "scenario", "pipeline"],
)
def test_a_library_value_error_is_a_bug_not_a_config_error(monkeypatch, capsys, tmp_path, module, name, argv):
    # only bad input is a config error; any other exception leaves main with its traceback
    bug = ValueError("operands could not be broadcast together")

    def broken(*args, **kwargs):
        raise bug

    monkeypatch.setattr(module, name, broken)
    tiny = tmp_path / "tiny.ini"
    tiny.write_text("[scenario]\nK = 3\nN = 4\ntrials = 1\n")
    with pytest.raises(ValueError) as excinfo:
        main([arg.format(tiny=tiny) for arg in argv])
    assert excinfo.value is bug
    assert "config error" not in capsys.readouterr().err


def test_a_scenario_budget_below_the_digest_cadence_starts_no_pool(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", lambda *args, **kwargs: pytest.fail("a pool started"))
    short = tmp_path / "short.ini"
    short.write_text("[scenario]\nkind = sync\nK = 6\nN = 8\ntrials = 2\nmax_iterations = 5\n")
    assert main(["scenario", str(short), "--protocol-mode", "--workers", "2"]) == 3
    message = "digest interval 10 exceeds the budget (explicit max_iterations=5)"
    assert capsys.readouterr().err == f"neurokey: config error: {message}\n"


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


def test_scenario_without_out_writes_the_csv_to_stdout(capsys):
    assert main(["scenario", "fig4", "--trials", "1"]) == 0
    captured = capsys.readouterr()
    records = list(run_scenario(dataclasses.replace(load_scenario("fig4"), trials=1)))
    assert captured.out == harness.records_to_csv(records)
    assert captured.out.startswith("# neurokey-trials v1\n")
    # the summary goes to stderr; its last column is the run's wall time
    expected = harness.format_summary(harness.summarize(records)).splitlines()
    printed = captured.err.splitlines()
    assert [line.rsplit(None, 1)[0] for line in printed] == [line.rsplit(None, 1)[0] for line in expected]


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


@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing-directory", "directory"])
def test_scenario_bad_out_path_fails_before_any_trial(monkeypatch, capsys, tmp_path, target):
    calls = []
    monkeypatch.setattr("neurokey.cli.run_scenario", lambda *args, **kwargs: calls.append(args) or [])
    out = tmp_path / target
    assert main(["scenario", "fig4", "--trials", "1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"neurokey: config error: --out {out} must name a file in an existing directory\n"
    assert calls == []
    assert not (tmp_path / "missing").exists() and list(tmp_path.iterdir()) == []


BAD_SYNC = "[scenario]\nkind = sync\nK = 3\nN = 4\nmax_iterations = {}\n"
BAD_COMPARE = "[scenario]\nkind = compare\ntrials = 2\nL = {}\n[compare]\nsettings = {}\n"
BAD_ATTACK = "[scenario]\nkind = attack\nK = 4\nN = 6\n[attack]\nstrategy = {}\nensemble_size = {}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (BAD_COMPARE.format(2, "200:0.7:5"), "settings entry 200:0.7:5: compare qber must be in (0, 0.5], got 0.7"),
        (BAD_COMPARE.format(2, "0:0.05:5"), "settings entry 0:0.05:5: compare key length and tpm_N must be positive"),
        (BAD_COMPARE.format(2, "200:0.0:5"), "settings entry 200:0.0:5: compare qber must be in (0, 0.5], got 0.0"),
        (BAD_COMPARE.format(0, "200:0.05:5"), ""),
        (BAD_SYNC.format(-5), ""),
        (BAD_SYNC.format(0), ""),
        (BAD_ATTACK.format("passive", 4), ""),
        (BAD_COMPARE.format(2, "500:x:25"), "bad compare setting '500:x:25'"),
        ("[scenario]\nname = runs/x\nK = 3\nN = 4\n", "scenario name must not contain '/', got 'runs/x'"),
    ],
    ids=[
        "qber-0.7",
        "length-0",
        "qber-0",
        "L-0",
        "max_iterations-negative",
        "max_iterations-0",
        "ensemble_size-passive",
        "setting-not-a-number",
        "name-with-slash",
    ],
)
def test_scenario_bad_value_exit_three_before_output_opens(capsys, tmp_path, text, message):
    config = tmp_path / "bad.ini"
    config.write_text(text)
    out = tmp_path / "never.csv"
    assert main(["scenario", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    if message:  # the whole message, so the entry is named once and no repr follows
        assert err == f"neurokey: config error: {message}\n"
    else:
        assert "neurokey: config error: " in err
    assert not out.exists()


def test_scenario_repeated_value_exit_three_before_output_opens(capsys, tmp_path):
    config = tmp_path / "twice.ini"
    config.write_text("[scenario]\nK = 6, 6\nN = 8\ntrials = 2\n")
    out = tmp_path / "never.csv"
    assert main(["scenario", str(config), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "neurokey: config error: K lists 6 twice\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, message",
    [
        ("overlap:1.5", "overlap must be in [0, 1], got 1.5"),
        ("from_qber:0.9", "from_qber must be in [0, 0.5], got 0.9"),
        ("random:0.5", "random start mode takes no value"),
        ("overlap:high", "bad start mode value in 'overlap:high'"),
    ],
    ids=["overlap-1.5", "from_qber-0.9", "random-0.5", "overlap-not-a-number"],
)
def test_scenario_start_mode_error_names_the_range(capsys, tmp_path, mode, message):
    config = tmp_path / "bad.ini"
    config.write_text(f"[scenario]\nK = 3\nN = 4\nstart_mode = {mode}\n")
    assert main(["scenario", str(config)]) == 3
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, key",
    [
        ("[scenario]\nK = 6\nN = 8\ntrials = 2\nstart_mode = overlap:0.99\n", "start_mode = overlap:0.99"),
        (
            "[scenario]\nkind = attack\nK = 6\nN = 8\ntrials = 2\n[attack]\neve_initial_overlap = 0.99\n",
            "eve_initial_overlap = 0.99",
        ),
    ],
    ids=["party", "eve"],
)
def test_scenario_overlap_that_changes_no_weight_exit_three(capsys, tmp_path, text, key):
    config = tmp_path / "still.ini"
    config.write_text(text)
    assert main(["scenario", str(config)]) == 3
    assert f"config error: {key}: overlap 0.99 changes no weight of K*N = 48" in capsys.readouterr().err


def test_scenario_compare_setting_that_changes_no_weight_fails_before_any_trial(capsys, tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run_scenario called for a setting that changes no weight")

    monkeypatch.setattr("neurokey.cli.run_scenario", no_run)
    config = tmp_path / "two.ini"
    config.write_text(
        "[scenario]\nkind = compare\ntrials = 1000\n[compare]\ntpm_K = 10\nsettings = 500:0.05:25, 200:0.01:5\n"
    )
    out = tmp_path / "two.csv"
    assert main(["scenario", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "config error: settings entry 200:0.01:5: overlap 0.99 changes no weight of K*N = 50" in err
    assert not out.exists()


def test_scenario_directory_exit_three(capsys, tmp_path):
    assert main(["scenario", str(tmp_path)]) == 3
    assert "config error" in capsys.readouterr().err
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path))


@pytest.mark.parametrize(
    "argv",
    [
        ["scenario", "fig4", "--trials", "1", "--seed", "-1"],
        ["scenario", "{ini}"],
        ["sync", "--K", "3", "--N", "4", "--seed", "-1"],
        ["pipeline", "--seed", "-1"],
    ],
    ids=["scenario", "base_seed", "sync", "pipeline"],
)
def test_negative_seed_is_a_named_config_error(capsys, tmp_path, argv):
    config = tmp_path / "neg.ini"
    config.write_text("[scenario]\nK = 3\nN = 4\ntrials = 1\nbase_seed = -1\n")
    assert main([arg.format(ini=config) for arg in argv]) == 3
    assert "config error: seed must be a non-negative integer, got -1" in capsys.readouterr().err


def test_negative_seed_fails_before_a_worker_pool_starts(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run_scenario called with a negative seed")

    monkeypatch.setattr("neurokey.cli.run_scenario", no_run)
    assert main(["scenario", "fig4", "--seed", "-1", "--workers", "2"]) == 3
    assert "config error: seed must be a non-negative integer, got -1" in capsys.readouterr().err


def test_compare_tpm_K_not_an_integer_is_a_named_config_error(capsys, tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text(BAD_COMPARE.format(2, "200:0.05:5") + "tpm_K = ten\n")
    assert main(["scenario", str(config)]) == 3
    assert "tpm_K" in capsys.readouterr().err
    with pytest.raises(ScenarioError, match="tpm_K"):
        load_scenario(str(config))


def test_compare_prints_table(capsys, tmp_path):
    out = tmp_path / "table1.csv"
    assert main(["scenario", "table1", "--trials", "2", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    names = [line.split()[0] for line in captured.err.splitlines()[1:]]
    assert names == [
        f"table1/{algorithm}/{length}b" for length in (500, 600) for algorithm in ("bbbss", "cascade", "tpm")
    ]


def test_attack_summary_and_csv(capsys, tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["scenario", "fig2", "--trials", "3", "--out", str(out)]) == 0
    assert "eve_synced" in capsys.readouterr().err.splitlines()[0].split()
    assert len(out.read_text().splitlines()) == 2 + 3


@pytest.mark.parametrize(
    "name, points", [("fig2", 1), ("fig3", 18), ("fig4", 18), ("fig5", 8), ("fig6", 8), ("table1", 6)]
)
def test_bundled_scenario_runs_with_one_summary_line_per_point(capsys, tmp_path, name, points):
    out = tmp_path / f"{name}.csv"
    assert main(["scenario", name, "--trials", "1", "--out", str(out)]) == 0
    assert len(capsys.readouterr().err.splitlines()) == 1 + points


def test_scenario_run_failure_leaves_no_output(monkeypatch, tmp_path):
    run_task = harness._run_task

    def fail_on_trial_one(task):
        # the task whose trial slice holds trial 1
        if 1 in task[-1]:
            raise RuntimeError("trial 1 failed")
        return run_task(task)

    monkeypatch.setattr(harness, "_run_task", fail_on_trial_one)
    out = tmp_path / "f.csv"
    with pytest.raises(RuntimeError, match="trial 1 failed"):
        main(["scenario", "fig4", "--trials", "2", "--out", str(out)])
    assert not out.exists()


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


def test_pipeline_margin_beyond_the_key_is_a_config_error_exit_three(capsys):
    code = main(
        ["pipeline", "--length", "500", "--qber", "0.0", "--K", "3", "--N", "4", "--L", "2",
         "--security-bits", "100", "--seed", "4"]
    )
    assert code == 3


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--threshold", "-1"], "qber_threshold must be in [0, 0.5], got -1.0"),
        (["--threshold", "0.6"], "qber_threshold must be in [0, 0.5], got 0.6"),
        (["--security-bits", "-5"], "security_bits=-5 must be in [0, K*N*(b-1)) = [0, 600)"),
        (["--security-bits", "600"], "security_bits=600 must be in [0, K*N*(b-1)) = [0, 600)"),
        # floor(0.01 * 100) = 1 sampled bit, whose one mismatch would abort
        (["--length", "100", "--qber", "0.05", "--K", "2", "--N", "10", "--L", "2", "--security-bits", "10",
          "--sample-fraction", "0.01", "--threshold", "0.5", "--seed", "3"],
         "a 1-bit sample cannot resolve qber_threshold=0.5: one mismatch aborts"),
    ],
    ids=["threshold-negative", "threshold-0.6", "security-bits-negative", "security-bits-600",
         "sample-below-threshold"],
)
def test_pipeline_bad_threshold_or_margin_fails_before_any_sync(monkeypatch, capsys, flags, message):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return synchronize_batch(*args, **kwargs)

    monkeypatch.setattr(sync, "synchronize_batch", spy)
    assert main(["pipeline", *flags]) == 3
    assert capsys.readouterr().err == f"neurokey: config error: {message}\n"
    assert calls == []
    # the spy sees the sync of a valid run
    assert main(["pipeline", "--length", "400", "--qber", "0.02", "--K", "4", "--N", "6", "--seed", "3",
                 "--security-bits", "10"]) == 0
    assert calls


def test_pipeline_exhausted_budget_is_an_abort_exit_two(capsys):
    # seeds 0 and 2 leave a key with these flags; seed 1 discloses too much
    assert main(["pipeline", "--protocol-mode", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("neurokey: abort: security_bits=30")


def test_a_pipeline_digest_interval_no_budget_pays_for_is_an_abort_exit_two(capsys):
    # the pipeline syncs at most to the last round its 570 bits pay for, and the
    # first digest round at an interval of 100000 already discloses 100000 + 64
    assert main(["pipeline", "--protocol-mode", "--digest-interval", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "neurokey: abort: security_bits=30 must be < 600 - 100064\n"


def test_pipeline_summary_reports_dropped_key_bits(capsys):
    # 2250 raw bits less 225 sampled leave 2025, and the K=10, N=30 machine holds 900
    assert main(["pipeline"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "dropped key bits      1125" in lines
    assert "keys identical        True" in lines


PIPELINE_SUMMARIES = {
    "seed-1": (["--seed", "1"], """\
raw key length        2250
estimated QBER        0.0178 (4/225)
sync iterations       381 (learning steps 207)
disclosed: estimation 225 (not charged: the sample left the key)
charged: sync outputs 381 (the paper's accounting, not shown to be sound), digests 0
reconciled length     900 (budget on its min-entropy 600; the paper's Shannon figure 675)
dropped key bits      1125
removed (known+margin) 381+30
final key length      189
keys identical        True
"""),
    "protocol-mode": (["--protocol-mode"], """\
raw key length        2250
estimated QBER        0.0267 (6/225)
sync iterations       300 (learning steps 162)
disclosed: estimation 225 (not charged: the sample left the key)
charged: sync outputs 300 (the paper's accounting, not shown to be sound), digests 192
reconciled length     900 (budget on its min-entropy 600; the paper's Shannon figure 675)
dropped key bits      1125
removed (known+margin) 492+30
final key length      78
keys identical        True
"""),
    # K=10, N=30, L=2 loads 600 bits of min-entropy; 173 rounds and the 30-bit margin leave 397
    "capped": (["--length", "3000", "--qber", "0.03", "--K", "10", "--N", "30", "--sample-fraction", "0.02",
                "--seed", "1"], """\
raw key length        3000
estimated QBER        0.0167 (1/60)
sync iterations       173 (learning steps 104)
disclosed: estimation 60 (not charged: the sample left the key)
charged: sync outputs 173 (the paper's accounting, not shown to be sound), digests 0
reconciled length     900 (budget on its min-entropy 600; the paper's Shannon figure 675)
dropped key bits      2040
removed (known+margin) 173+30
final key length      397
keys identical        True
"""),
}


@pytest.mark.parametrize("flags, expected", PIPELINE_SUMMARIES.values(), ids=PIPELINE_SUMMARIES)
def test_pipeline_prints_the_whole_summary(capsys, flags, expected):
    assert main(["pipeline", *flags]) == 0
    assert capsys.readouterr().out == expected


def test_help_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert "{sync,scenario,pipeline}" in capsys.readouterr().out
