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
    TrialRecord,
    compare_algorithms,
    format_summary,
    load_scenario,
    machine_trial_seeds,
    parse_scenario,
    records_to_csv,
    run_pipeline,
    run_scenario,
    summarize,
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
    # a worker killed mid-scenario, on the task whose trial slice holds trial 1
    if 1 in task[-1]:
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
            ("attack", {"kind": "sync"}),
            ("attack", {"compare_settings": (CompareSetting(500, 0.05, 25),)}),
            ("compare", {"kind": "sync"}),
            ("compare", {"attack": AttackConfig()}),
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

    def test_wide_machine_scenarios_pinned(self):
        # no CSV golden covers fig5 and fig6
        for name, N, overlap, seed in (("fig5", 30, 0.97, 1005), ("fig6", 50, 0.99, 1006)):
            assert load_scenario(name) == Scenario(
                name=name,
                kind="sync",
                L=2,
                K_values=(6, 8, 10, 12),
                N_values=(N,),
                start_modes=(StartMode("random"), StartMode("overlap", overlap)),
                trials=1000,
                base_seed=seed,
            )

    def test_compare_scenario_pinned(self):
        # the same Scenario that compare_algorithms builds for these settings
        assert load_scenario("table1") == Scenario(
            name="table1",
            kind="compare",
            L=2,
            K_values=(10,),
            trials=1000,
            base_seed=1010,
            compare_settings=(CompareSetting(500, 0.05, 25), CompareSetting(600, 0.03, 30)),
        )

    def test_left_out_keys_keep_the_dataclass_defaults(self):
        scenario = parse_scenario("[scenario]\nkind = attack\nK = 3\nN = 4\n[attack]\n", "bare")
        assert scenario == Scenario(
            name="bare", kind="attack", K_values=(3,), N_values=(4,), attack=AttackConfig()
        )

    def test_keys_convert_by_field_type(self):
        scenario = parse_scenario(
            "[scenario]\nkind = attack\nK = 3\nN = 4\nL = 3\n[attack]\n"
            "strategy = ensemble\nensemble_size = 2\neve_initial_overlap = 0.5\n"
        )
        assert (scenario.L, scenario.attack) == (3, AttackConfig("ensemble", 2, 1000, 0.5))
        assert parse_scenario("[scenario]\nK = 3\nN = 4\nprotocol_mode = yes\n").protocol_mode is True

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[scenario]\nK = 3\nN = 4\ntrails = 10\n", "unknown key trails in [scenario]"),
            (
                "[scenario]\nkind = attack\nK = 3\nN = 4\n[attack]\nstratgy = geometric\n",
                "unknown key stratgy in [attack]",
            ),
            (
                "[scenario]\nkind = compare\n[compare]\nsettings = 200:0.05:5\ntpm_N = 5\n",
                "unknown key tpm_n in [compare]",
            ),
            ("[scenario]\nK = 3\nN = 4\ntrials = ten\n", "bad trials in [scenario]: 'ten'"),
            ("[scenario]\nK = 3\nN = 4\nprotocol_mode = maybe\n", "bad protocol_mode in [scenario]: 'maybe'"),
            (
                "[scenario]\nkind = attack\nK = 3\nN = 4\n[attack]\nensemble_size = x\n",
                "bad ensemble_size in [attack]: 'x'",
            ),
            (
                "[scenario]\nkind = compare\nK = 3\n[compare]\nsettings = 200:0.05:5\n",
                "key K in [scenario] does not apply to compare scenarios",
            ),
            (
                "[scenario]\nkind = compare\nN = 5\n[compare]\nsettings = 200:0.05:5\n",
                "key N in [scenario] does not apply to compare scenarios",
            ),
            (
                "[scenario]\nkind = compare\nstart_mode = random\n[compare]\nsettings = 200:0.05:5\n",
                "key start_mode in [scenario] does not apply to compare scenarios",
            ),
            ("[scenario]\nK = 3\nN = 4\n[bogus]\n", "unknown section [bogus]"),
            (
                "[scenario]\nK = 3\nN = 4\n[compare]\nsettings = 200:0.05:5\n",
                "a [compare] section applies only to compare scenarios, not sync",
            ),
            (
                "[scenario]\nkind = sync\nK = 3\nN = 4\n[attack]\nstrategy = geometric\n",
                "an [attack] section applies only to attack scenarios, not sync",
            ),
            ("[scenario]\nkind = compare\n", "compare scenarios need a [compare] section"),
        ],
        ids=[
            "unknown-scenario",
            "unknown-attack",
            "unknown-compare",
            "bad-int",
            "bad-bool",
            "bad-attack-int",
            "compare-K",
            "compare-N",
            "compare-start_mode",
            "unknown-section",
            "compare-section-in-sync",
            "attack-section-in-sync",
            "compare-without-section",
        ],
    )
    def test_unknown_keys_and_bad_values_name_key_and_section(self, text, message):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value) == message

    def test_default_section_keys_are_not_unknown(self):
        text = "[DEFAULT]\ntrials = 7\n[scenario]\nkind = attack\nK = 3\nN = 4\n[attack]\n"
        assert parse_scenario(text).trials == 7

    def test_negative_base_seed_is_rejected_before_any_run(self):
        with pytest.raises(ScenarioError, match="seed must be a non-negative integer, got -1"):
            dataclasses.replace(load_scenario("fig4"), base_seed=-1)


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

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two workers")
    def test_one_point_sliced_across_workers_is_worker_invariant(self):
        # one sweep point of many trials: two workers each run a contiguous slice
        scenario = dataclasses.replace(
            SMALL_SYNC, N_values=(4,), start_modes=(StartMode("random"),), trials=41
        )
        tasks = harness._scenario_tasks(scenario, 2)
        assert [task[-1] for task in tasks] == [range(0, 20), range(20, 41)]
        serial = records_to_csv(run_scenario(scenario))
        assert records_to_csv(run_scenario(scenario, workers=2)) == serial
        assert serial.count("\n") == 2 + 41

    def test_batch_wall_time_is_split_across_its_trials(self):
        records = list(run_scenario(SMALL_SYNC))
        for point in summarize(records):
            times = {r.wall_time for r in records if r.N == point.N}
            assert len(times) == 1 and times.pop() > 0
            assert point.wall_time == pytest.approx(
                sum(r.wall_time for r in records if r.N == point.N)
            )

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


def _record(iterations=10, parity_checks=-1, converged=True, overlap=-1.0, wall_time=0.0):
    return TrialRecord(
        scenario="s",
        trial=0,
        K=3,
        N=4,
        L=2,
        start_mode="random",
        iterations=iterations,
        learning_steps=0,
        parity_checks=parity_checks,
        disclosed_bits=7,
        attacker_best_overlap=overlap,
        converged=converged,
        wall_time=wall_time,
    )


class TestSummarize:
    def test_point_without_a_converged_trial_has_finite_statistics(self):
        fig2 = load_scenario("fig2")
        attack = dataclasses.replace(fig2.attack, iteration_budget=2)
        (summary,) = summarize(run_scenario(dataclasses.replace(fig2, trials=3, attack=attack)))
        assert (summary.trials, summary.converged) == (3, 0)
        assert summary.mean_iterations == summary.median_iterations == summary.p90_iterations == 2

    def test_median_interpolates_and_p90_covers_every_record(self):
        (summary,) = summarize([_record(10), _record(20, converged=False)])
        assert (summary.median_iterations, summary.mean_iterations, summary.p90_iterations) == (15, 15, 19)
        assert (summary.trials, summary.converged, summary.mean_disclosed_bits) == (2, 1, 7)

    def test_parity_rows_count_parity_checks_and_tpm_rows_iterations(self):
        (parity,) = summarize([_record(-1, parity_checks=30), _record(-1, parity_checks=50)])
        (tpm,) = summarize([_record(30), _record(50)])
        assert parity.mean_iterations == tpm.mean_iterations == 40

    def test_eve_synced_counts_full_overlap(self):
        (summary,) = summarize([_record(overlap=1.0), _record(overlap=0.99), _record(overlap=1.0)])
        assert summary.eve_synced == 2

    def test_one_summary_per_point_in_record_order(self):
        records = list(run_scenario(dataclasses.replace(load_scenario("fig4"), trials=2)))
        summaries = summarize(records)
        assert len(summaries) == 18
        assert [(s.K, s.N) for s in summaries] == list(dict.fromkeys((r.K, r.N) for r in records))
        assert all(s.trials == 2 and s.algorithm == "tpm" for s in summaries)

    def test_equality_ignores_wall_time(self):
        assert summarize([_record(wall_time=1.0)]) == summarize([_record(wall_time=2.0)])
        assert summarize(run_scenario(SMALL_SYNC)) == summarize(run_scenario(SMALL_SYNC))


class TestCompare:
    def test_rows_and_formats(self):
        rows = compare_algorithms(200, 0.05, trials=100, seed=3, tpm_params=TpmParams(4, 5, 2))
        assert [r.algorithm for r in rows] == ["bbbss", "cascade", "tpm"]
        assert all(r.trials == 100 for r in rows)
        assert all(r.mean_iterations > 0 for r in rows)
        lines = format_summary(rows).splitlines()
        assert lines[0].split()[:2] == ["scenario", "start_mode"]
        names = [line.split()[0] for line in lines[1:]]
        assert names == ["compare/bbbss/200b", "compare/cascade/200b", "compare/tpm/200b"]

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
