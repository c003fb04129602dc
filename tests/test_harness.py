import dataclasses
import hashlib
import os
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from neurokey import harness
from neurokey.adversary import AttackConfig
from neurokey.channel import generate_key_pair
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
    machine_trial_seeds,
    parse_scenario,
    records_to_csv,
    run_pipeline,
    run_scenario,
)
from neurokey.privacy import InfeasibleBudgetError
from neurokey.sync import seed_initial_overlap
from neurokey.tpm import Tpm, TpmParams, bits_to_weights

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


_run_task = harness._run_task


def _die_on_trial_one(task):
    # a worker killed mid-scenario
    if task[-1] == 1:
        os._exit(1)
    return _run_task(task)


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

    @pytest.mark.parametrize(
        "kind, override",
        [
            ("attack", {"protocol_mode": True}),
            ("compare", {"protocol_mode": True}),
            ("attack", {"max_iterations": 500}),
        ],
    )
    def test_settings_a_kind_ignores_are_rejected(self, kind, override):
        base = load_scenario("fig2" if kind == "attack" else "table1")
        with pytest.raises(ScenarioError):
            dataclasses.replace(base, **override)

    @pytest.mark.parametrize(
        "kind, override",
        [
            ("sync", {"max_iterations": -5}),
            ("sync", {"max_iterations": 0}),
            ("compare", {"L": 0}),
            ("compare", {"K_values": (0,)}),
        ],
    )
    def test_out_of_range_values_are_rejected(self, kind, override):
        base = load_scenario("fig4" if kind == "sync" else "table1")
        with pytest.raises(ScenarioError):
            dataclasses.replace(base, **override)

    @pytest.mark.parametrize(
        "setting", [(0, 0.05, 5), (200, 0.0, 5), (200, 0.7, 5), (200, -0.1, 5), (200, 0.05, 0)]
    )
    def test_out_of_range_compare_settings_are_rejected(self, setting):
        with pytest.raises(ScenarioError):
            CompareSetting(*setting)

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
        params = TpmParams(K=3, N=4, L=2)
        a = machine_trial_seeds(1, 2, params, 3)
        b = machine_trial_seeds(1, 2, params, 3)
        c = machine_trial_seeds(1, 2, params, 4)
        assert a == b
        assert len(set(a + c)) == 6


class TestStartModeMachines:
    PARAMS = TpmParams(K=3, N=4, L=2)

    def test_random_pair_is_two_draws_of_one_generator(self):
        alice, bob = StartMode("random").machines(self.PARAMS, 11, 12)
        rng = np.random.default_rng(11)
        assert np.array_equal(alice.weights, Tpm.random(self.PARAMS, rng).weights)
        assert np.array_equal(bob.weights, Tpm.random(self.PARAMS, rng).weights)

    def test_overlap_pair_copies_alice_at_that_overlap(self):
        alice, bob = StartMode("overlap", 0.75).machines(self.PARAMS, 11, 12)
        expected = seed_initial_overlap(alice, 0.75, seed=12)
        assert np.array_equal(bob.weights, expected.weights)
        assert (alice.weights == bob.weights).mean() == 0.75

    def test_from_qber_pair_loads_the_keys(self):
        alice, bob = StartMode("from_qber", 0.1).machines(self.PARAMS, 11, 12)
        pair = generate_key_pair(self.PARAMS.key_bits, 0.1, seed=11)
        assert np.array_equal(alice.weights, bits_to_weights(pair.alice, self.PARAMS).weights)
        assert np.array_equal(bob.weights, bits_to_weights(pair.bob, self.PARAMS).weights)


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

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        with pytest.raises(ScenarioError, match="workers"):
            run_scenario(SMALL_SYNC, workers=workers)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two workers")
    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        monkeypatch.setattr(harness, "_run_task", _die_on_trial_one)
        errors = []

        def drain():
            try:
                list(run_scenario(SMALL_SYNC, workers=2))
            except Exception as err:
                errors.append(err)

        thread = threading.Thread(target=drain, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "the scenario hung after its worker died"
        assert len(errors) == 1 and isinstance(errors[0], BrokenProcessPool)

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

    def test_converged_run_with_differing_machines_raises(self, monkeypatch):
        # every digest collides, so protocol mode stops at the first check
        monkeypatch.setattr("neurokey.sync._weight_digest", lambda weights: b"")
        scenario = dataclasses.replace(
            SMALL_SYNC, start_modes=(StartMode("random"),), protocol_mode=True
        )
        with pytest.raises(RuntimeError, match="differing machines"):
            list(run_scenario(scenario))

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


# ---------------------------------------------------------------------------
# golden CSV slices, captured before start-mode setup moved into StartMode


def _qber_slice(protocol_mode):
    # from_qber starts at two error rates; the 40-iteration cap leaves some
    # rows unconverged
    return Scenario(
        name="qber",
        kind="sync",
        L=2,
        K_values=(3, 4),
        N_values=(5,),
        start_modes=(StartMode("from_qber", 0.05), StartMode("from_qber", 0.15)),
        trials=4,
        base_seed=41,
        max_iterations=40,
        protocol_mode=protocol_mode,
    )


def _attack_slice(strategy, size):
    return Scenario(
        name=f"atk-{strategy}",
        kind="attack",
        L=2,
        K_values=(4,),
        N_values=(6,),
        start_modes=tuple(StartMode.parse(m) for m in ("random", "overlap:0.9", "from_qber:0.05")),
        trials=3,
        base_seed=52,
        attack=AttackConfig(strategy, size, 300),
    )


GOLDEN_SLICES = {
    "fig4": lambda: dataclasses.replace(load_scenario("fig4"), trials=3),
    "fig3-protocol": lambda: dataclasses.replace(load_scenario("fig3"), trials=2, protocol_mode=True),
    "from_qber-simulation": lambda: _qber_slice(False),
    "from_qber-protocol": lambda: _qber_slice(True),
    "table1": lambda: dataclasses.replace(load_scenario("table1"), trials=3),
    "attack-passive": lambda: _attack_slice("passive", 1),
    "attack-geometric": lambda: _attack_slice("geometric", 1),
    "attack-ensemble": lambda: _attack_slice("ensemble", 3),
}

# sha256 of each slice's CSV
GOLDEN_SLICE_DIGESTS = {
    "attack-ensemble": "380386de06608166af60606446c6327ea8b436092564b19b145efd10e4597045",
    "attack-geometric": "d4c75a71590f200255c4fadb6c86bab21893700ad945ac8c3ef6eec1cbbf1ad5",
    "attack-passive": "66bac1f9a6d18a1f577bc62dedd12332e85360a37f451aa487c804bd88b94cce",
    "fig3-protocol": "fd0d35b49ccfd25f8da1d20d706e54d54d015b3157dad7b96ba2c6ce8c34abfb",
    "fig4": "e7e20fe832fc4732ff6d744f96b53db14b2366209552f92c80e5d6cf86c5fdde",
    "from_qber-protocol": "6eb904cc77a1c53b1b3a1b1f9f2a65677426245e2d3119d6106ad35ef2b51182",
    "from_qber-simulation": "5813266cf72e946e8b7ecae4d96dbb28160e615cd8ccf9e9f2c5a5000fd50b1b",
    "table1": "d83f56ba93467661a7df5a1559b000c15015c5da6308d3de150434f46029ae41",
}


def slice_digest(name):
    csv_text = records_to_csv(run_scenario(GOLDEN_SLICES[name]()))
    return hashlib.sha256(csv_text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SLICES))
def test_golden_csv_slice(name):
    assert slice_digest(name) == GOLDEN_SLICE_DIGESTS[name]


def test_golden_from_qber_slices_include_unconverged_rows():
    for protocol_mode in (False, True):
        converged = {r.converged for r in run_scenario(_qber_slice(protocol_mode))}
        assert converged == {True, False}
