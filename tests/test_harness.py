import os

import pytest

from neurokey.adversary import AttackConfig
from neurokey.harness import (
    CSV_COLUMNS,
    CompareSetting,
    QberAbortError,
    Scenario,
    ScenarioError,
    StartMode,
    compare_algorithms,
    comparison_csv,
    format_comparison_table,
    load_scenario,
    parse_scenario,
    records_to_csv,
    run_pipeline,
    run_scenario,
    trial_seed,
)
from neurokey.privacy import InfeasibleBudgetError
from neurokey.tpm import TpmParams

SMALL_SYNC = Scenario(
    name="small",
    kind="sync",
    L=2,
    K_values=(3,),
    N_values=(4, 5),
    start_modes=(StartMode("overlap", 0.9),),
    trials=3,
    base_seed=77,
    max_iterations=50_000,
)


class TestStartMode:
    def test_parse_forms(self):
        assert StartMode.parse("random") == StartMode("random")
        assert StartMode.parse("overlap:0.95") == StartMode("overlap", 0.95)
        assert StartMode.parse("from_qber:0.05") == StartMode("from_qber", 0.05)
        assert str(StartMode.parse("overlap:0.95")) == "overlap:0.95"

    def test_parse_rejects_garbage(self):
        for bad in ("overlap", "overlap:1.5", "from_qber:0.9", "sideways:1"):
            with pytest.raises(ScenarioError):
                StartMode.parse(bad)


class TestScenarioParsing:
    def test_sync_scenario_ini(self):
        text = """
[scenario]
name = demo
kind = sync
trials = 12
base_seed = 9
L = 2
K = 6, 8
N = 20-22
start_mode = random, overlap:0.95
"""
        scenario = parse_scenario(text)
        assert scenario.name == "demo"
        assert scenario.K_values == (6, 8)
        assert scenario.N_values == (20, 21, 22)
        assert scenario.start_modes == (StartMode("random"), StartMode("overlap", 0.95))
        assert scenario.trials == 12

    def test_attack_scenario_requires_section(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[scenario]\nkind = attack\nK = 6\nN = 8\n")

    def test_compare_scenario_ini(self):
        text = """
[scenario]
name = cmp
kind = compare
trials = 5
L = 2

[compare]
tpm_K = 10
settings = 500:0.05:25, 600:0.03:30
"""
        scenario = parse_scenario(text)
        assert scenario.compare_settings == (
            CompareSetting(500, 0.05, 25),
            CompareSetting(600, 0.03, 30),
        )

    def test_bundled_scenarios_load(self):
        for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "table1"):
            scenario = load_scenario(name)
            assert scenario.name == name

    def test_missing_scenario_errors(self):
        with pytest.raises(ScenarioError):
            load_scenario("fig99")

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[scenario]\nkind = sync\nK = 8-6\nN = 4\n")


class TestTrialSeeds:
    def test_distinct_and_stable(self):
        a = trial_seed(1, 2, 3)
        b = trial_seed(1, 2, 3)
        c = trial_seed(1, 2, 4)
        assert a == b
        assert a != c


class TestRunScenario:
    def test_records_in_fixed_order_with_sentinels(self):
        records = list(run_scenario(SMALL_SYNC))
        assert len(records) == 6
        assert [(r.N, r.trial) for r in records] == [
            (4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (5, 2),
        ]
        for record in records:
            assert record.parity_checks == -1
            assert record.attacker_best_overlap == -1.0
            assert record.converged
            assert record.iterations >= 0
            assert record.wall_time > 0

    def test_csv_deterministic_and_worker_invariant(self):
        first = records_to_csv(run_scenario(SMALL_SYNC))
        second = records_to_csv(run_scenario(SMALL_SYNC))
        parallel = records_to_csv(run_scenario(SMALL_SYNC, workers=2))
        assert first == second == parallel
        header = first.splitlines()
        assert header[0].startswith("#")
        assert header[1] == ",".join(CSV_COLUMNS)
        assert "wall_time" not in first

    @pytest.mark.parametrize("workers", [0, -1, (os.cpu_count() or 1) + 1])
    def test_worker_count_out_of_range_rejected_before_any_pool(self, workers, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("no pool may be created for a rejected worker count")

        monkeypatch.setattr("neurokey.harness.multiprocessing.Pool", no_pool)
        with pytest.raises(ScenarioError, match="workers"):
            run_scenario(SMALL_SYNC, workers=workers)

    def test_attack_scenario_records_overlap(self):
        scenario = Scenario(
            name="atk",
            kind="attack",
            L=2,
            K_values=(4,),
            N_values=(6,),
            start_modes=(StartMode("random"),),
            trials=2,
            base_seed=5,
            attack=AttackConfig(strategy="passive", iteration_budget=300),
        )
        records = list(run_scenario(scenario))
        assert len(records) == 2
        for record in records:
            assert 0.0 <= record.attacker_best_overlap <= 1.0

    def test_wide_machine_iterations_grow_with_k(self):
        # N=50, 99% initial agreement: mean rounds must rise with K
        scenario = Scenario(
            name="growth",
            kind="sync",
            L=2,
            K_values=(6, 8, 10, 12),
            N_values=(50,),
            start_modes=(StartMode("overlap", 0.99),),
            trials=200,
            base_seed=606,
            max_iterations=100_000,
        )
        sums: dict[int, list[int]] = {}
        for record in run_scenario(scenario):
            entry = sums.setdefault(record.K, [0, 0])
            entry[0] += record.iterations
            entry[1] += 1
        means = [sums[k][0] / sums[k][1] for k in (6, 8, 10, 12)]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_from_qber_mode_runs_bit_path(self):
        scenario = Scenario(
            name="bits",
            kind="sync",
            L=2,
            K_values=(3,),
            N_values=(5,),
            start_modes=(StartMode("from_qber", 0.05),),
            trials=2,
            base_seed=6,
            max_iterations=50_000,
        )
        records = list(run_scenario(scenario))
        assert all(r.converged for r in records)


class TestCompare:
    def test_rows_and_formats(self):
        rows = compare_algorithms(200, 0.05, trials=100, seed=3, tpm_params=TpmParams(4, 5, 2))
        assert [r.algorithm for r in rows] == ["bbbss", "cascade", "tpm"]
        assert all(r.trials == 100 for r in rows)
        assert all(r.mean_iterations > 0 for r in rows)
        table = format_comparison_table(rows)
        assert "bbbss" in table and "tpm" in table
        csv_text = comparison_csv(rows)
        assert csv_text.splitlines()[1].startswith("algorithm,")

    def test_deterministic(self):
        a = compare_algorithms(200, 0.05, trials=100, seed=3, tpm_params=TpmParams(4, 5, 2))
        b = compare_algorithms(200, 0.05, trials=100, seed=3, tpm_params=TpmParams(4, 5, 2))
        assert a == b

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError):
            compare_algorithms(200, 0.05, trials=99, seed=3, tpm_params=TpmParams(4, 5, 2))


class TestPipeline:
    def test_zero_error_channel_succeeds(self):
        params = TpmParams(K=4, N=6, L=2)
        report = run_pipeline(length=300, qber=0.0, params=params, security_bits=10, seed=1)
        assert report.identical
        assert report.transcript.iterations == 0
        assert report.final_alice.length == report.budget.final_length

    def test_worked_example_lengths(self):
        params = TpmParams(K=10, N=30, L=2)
        report = run_pipeline(length=2250, qber=0.03, params=params, security_bits=30, seed=2)
        assert report.identical
        assert report.budget.reconciled_length == 900
        expected = 900 - report.budget.eve_known_bits - 30
        assert report.final_alice.length == expected
        stages = report.stage_disclosed_bits
        assert stages["qber_estimation"] == 225
        assert stages["sync_outputs"] == report.transcript.iterations
        assert "final key length" in report.summary()

    def test_aborts_above_threshold(self):
        params = TpmParams(K=4, N=6, L=2)
        with pytest.raises(QberAbortError):
            run_pipeline(length=2000, qber=0.2, params=params, seed=3, qber_threshold=0.11)

    def test_infeasible_budget_surfaces(self):
        params = TpmParams(K=3, N=4, L=2)  # reconciled length 72
        with pytest.raises(InfeasibleBudgetError):
            run_pipeline(length=500, qber=0.0, params=params, security_bits=100, seed=4)

    def test_protocol_mode_digests_are_charged(self):
        params = TpmParams(K=10, N=20, L=2)
        report = run_pipeline(
            length=1500, qber=0.02, params=params, security_bits=10, seed=5, protocol_mode=True
        )
        assert report.transcript.digest_exchanges >= 1
        assert report.stage_disclosed_bits["sync_digests"] == 64 * report.transcript.digest_exchanges
