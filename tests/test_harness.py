import collections
import dataclasses
import hashlib
import math
import os
import re
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from neurokey import harness, sync
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
from neurokey.privacy import DEFAULT_SECURITY_BITS, InfeasibleBudgetError
from neurokey.sync import NonConvergenceError, seed_initial_overlap
from neurokey.tpm import BitKey, KeyMaterialError, Tpm, TpmParams, bits_to_weights

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


# a key-loaded sync start and an attack race, 4 trials at K=6, N=8
QBER_START = "[scenario]\nkind = sync\nK = 6\nN = 8\nstart_mode = from_qber:0.05\ntrials = 4\n"
RACE = "[scenario]\nkind = attack\nK = 6\nN = 8\ntrials = 4\n[attack]\nstrategy = {}\nensemble_size = {}\n"


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

    def test_random_takes_no_value(self):
        with pytest.raises(ScenarioError, match="random start mode takes no value"):
            StartMode("random", 0.5)


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

    def test_empty_compare_settings_entries_are_skipped(self):
        text = "[scenario]\nkind = compare\n[compare]\nsettings = 500:0.05:25,,600:0.03:30,\n"
        assert parse_scenario(text).compare_settings == (
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
            ("compare", {"K_values": (10, 12)}),
        ],
    )
    def test_settings_a_kind_ignores_are_rejected(self, kind, override):
        base = load_scenario("fig2" if kind == "attack" else "table1")
        with pytest.raises(ScenarioError):
            dataclasses.replace(base, **override)

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"N_values": (9,)}, "N_values does not apply to compare scenarios, got 9"),
            (
                {"start_modes": (StartMode("overlap", 0.9),)},
                "start_modes does not apply to compare scenarios, got overlap:0.9",
            ),
        ],
        ids=["N", "start_mode"],
    )
    def test_compare_sweep_settings_built_in_code_are_rejected(self, override, message):
        # the mutual-learning rows take tpm_N and a 1 - qber overlap start from each setting
        with pytest.raises(ScenarioError) as excinfo:
            dataclasses.replace(load_scenario("table1"), **override)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "kind, override",
        [
            ("sync", {"max_iterations": -5}),
            ("sync", {"max_iterations": 0}),
            ("compare", {"L": 0}),
            ("compare", {"K_values": (0,)}),
            ("sync", {"kind": "bogus"}),
            ("sync", {"trials": 0}),
            ("sync", {"K_values": ()}),
            ("sync", {"start_modes": ()}),
            ("compare", {"compare_settings": ()}),
            ("sync", {"name": "runs/k6/n8"}),
            ("sync", {"K_values": (6, 8.5)}),
            ("sync", {"N_values": (20, 22.5)}),
            ("sync", {"trials": 2.5}),
            ("sync", {"max_iterations": 50.5}),
        ],
    )
    def test_out_of_range_values_are_rejected(self, kind, override):
        base = load_scenario("fig4" if kind == "sync" else "table1")
        with pytest.raises(ScenarioError):
            dataclasses.replace(base, **override)

    @pytest.mark.parametrize(
        "setting", [(0, 0.05, 5), (200, 0.0, 5), (200, 0.7, 5), (200, -0.1, 5), (200, 0.05, 0), (500.5, 0.05, 25)]
    )
    def test_out_of_range_compare_settings_are_rejected(self, setting):
        with pytest.raises(ScenarioError):
            CompareSetting(*setting)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[scenario]\nK = 6, 8, 6\nN = 8\n", "K lists 6 twice"),
            ("[scenario]\nK = 6\nN = 8-10, 9\n", "N lists 9 twice"),
            ("[scenario]\nK = 6\nN = 8\nstart_mode = random, overlap:0.9, random\n", "start_mode lists random twice"),
            ("[scenario]\nK = 6\nN = 8\nstart_mode = overlap:0.9, overlap:0.90\n", "start_mode lists overlap:0.9 twice"),
            (
                "[scenario]\nkind = compare\n[compare]\nsettings = 500:0.05:25, 600:0.03:30, 500:0.05:25\n",
                "settings lists 500:0.05:25 twice",
            ),
        ],
        ids=["K", "N", "start_mode", "start_mode-spelled-twice", "settings"],
    )
    def test_a_repeated_sweep_value_is_rejected(self, text, message):
        # a repeat would run its point twice, and summarize would merge the two runs
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(text)

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
            ("[attack]\nstrategy = passive\n", "missing [scenario] section"),
            ("[scenario]\nK = a-b\nN = 4\n", "bad K range 'a-b'"),
            ("[scenario]\nK = x\nN = 4\n", "bad K value 'x'"),
            ("[scenario]\nK = ,\nN = 4\n", "K list is empty"),
            (
                "[scenario]\nkind = compare\n[compare]\nsettings = 500:0.05\n",
                "compare setting must be length:qber:tpm_N, got '500:0.05'",
            ),
            ("[scenario]\nkind = compare\n[compare]\nsettings = 500:x:25\n", "bad compare setting '500:x:25'"),
            (
                "[scenario]\nkind = attack\nK = 3\nN = 4\n[attack]\nstrategy = foo\n",
                "strategy must be one of ('passive', 'geometric', 'ensemble'), got 'foo'",
            ),
            (
                "[scenario]\nkind = attack\nK = 3\nN = 4\n[attack]\nuntil = later\n",
                "until in [attack] must be 'stop' or 'budget', got 'later'",
            ),
            ("[scenario]\nK = 0\nN = 4\n", "K must be a positive integer, got 0"),
            ("[scenario]\nK = 3\nN = 4\nmax_iterations = 0\n", "max_iterations must be a positive integer, got 0"),
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
            "no-scenario-section",
            "K-bad-range",
            "K-bad-value",
            "K-empty",
            "compare-setting-two-fields",
            "compare-setting-not-a-number",
            "attack-strategy",
            "attack-until",
            "K-zero",
            "max_iterations-zero",
        ],
    )
    def test_unknown_keys_and_bad_values_name_key_and_section(self, text, message):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value) == message

    def test_text_without_a_section_header_is_rejected(self):
        with pytest.raises(ScenarioError, match="cannot parse scenario file: File contains no section headers"):
            parse_scenario("K = 3\nN = 4\n")

    def test_empty_sweep_list_entries_are_skipped(self):
        assert parse_scenario("[scenario]\nK = 6,,8\nN = 4\n").K_values == (6, 8)

    def test_file_that_is_not_utf8_is_a_scenario_error(self, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes(b"[scenario]\nname = caf\xe9\nK = 3\nN = 4\n")
        with pytest.raises(ScenarioError, match="cannot read scenario file"):
            load_scenario(str(path))

    def test_default_section_keys_are_not_unknown(self):
        text = "[DEFAULT]\ntrials = 7\n[scenario]\nkind = attack\nK = 3\nN = 4\n[attack]\n"
        assert parse_scenario(text).trials == 7

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_negative_base_seed_is_rejected_before_any_run(self, seed):
        with pytest.raises(ScenarioError) as excinfo:
            dataclasses.replace(load_scenario("fig4"), base_seed=seed)
        assert str(excinfo.value) == f"seed must be a non-negative integer, got {seed}"

    def test_points_state_each_sweep_point_in_run_order(self):
        assert load_scenario("table1").points() == [
            (0, TpmParams(10, 25, 2), StartMode("overlap", 0.95)),
            (1, TpmParams(10, 30, 2), StartMode("overlap", 0.97)),
        ]
        assert load_scenario("fig5").points() == [
            (index, TpmParams(K, 30, 2), mode)
            for index, mode in enumerate((StartMode("random"), StartMode("overlap", 0.97)))
            for K in (6, 8, 10, 12)
        ]


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

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two workers")
    @pytest.mark.parametrize(
        "scenario",
        [
            SMALL_SYNC,
            dataclasses.replace(load_scenario("table1"), trials=4),
            dataclasses.replace(load_scenario("fig2"), trials=4),
            dataclasses.replace(load_scenario("fig4"), trials=4),
            dataclasses.replace(load_scenario("fig3"), trials=4, protocol_mode=True),
            parse_scenario(QBER_START),
            parse_scenario(QBER_START + "protocol_mode = true\n"),
            parse_scenario(RACE.format("geometric", 1)),
            parse_scenario(RACE.format("ensemble", 4)),
            # a passive Eve at overlap 0.9 reaches Alice in trial 2, so her block is re-run under the stop flags
            parse_scenario(RACE.format("passive", 1) + "eve_initial_overlap = 0.9\n"),
        ],
        ids=["small", "table1", "fig2", "fig4", "fig3-protocol", "from_qber", "from_qber-protocol", "geometric",
             "ensemble4", "passive-overlap-0.9"],
    )
    def test_csv_deterministic_and_worker_invariant(self, scenario):
        first = records_to_csv(run_scenario(scenario))
        second = records_to_csv(run_scenario(scenario))
        parallel = records_to_csv(run_scenario(scenario, workers=2))
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

    def test_an_integral_float_trial_count_runs_as_an_int(self):
        scenario = dataclasses.replace(SMALL_SYNC, trials=2.0)
        assert type(scenario.trials) is int
        assert [(r.N, r.trial) for r in run_scenario(scenario)] == [(4, 0), (4, 1), (5, 0), (5, 1)]

    @pytest.mark.parametrize("workers", [0, -1, (os.cpu_count() or 1) + 1, 1.5])
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

    def test_protocol_mode_budget_below_the_digest_cadence_fails_before_any_round(self, monkeypatch):
        monkeypatch.setattr(harness, "synchronize_batch", lambda *args: pytest.fail("a round ran"))
        message = "digest interval 10 exceeds the budget (explicit max_iterations=5)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scenario = dataclasses.replace(SMALL_SYNC, protocol_mode=True, max_iterations=5)
            list(run_scenario(scenario))

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

    def test_attack_scenario_from_equal_parties_converges_at_round_zero(self):
        scenario = parse_scenario(
            "[scenario]\nkind = attack\nK = 6\nN = 8\nstart_mode = overlap:1\ntrials = 2\n"
            "[attack]\niteration_budget = 200\n"
        )
        records = list(run_scenario(scenario))
        assert [(r.iterations, r.learning_steps, r.converged) for r in records] == [(0, 0, True)] * 2

    @pytest.mark.parametrize(
        "fields, message",
        [
            (
                {"start_modes": (StartMode("overlap", 0.99),)},
                "start_mode = overlap:0.99: overlap 0.99 changes no weight of K*N = 48",
            ),
            (
                {"kind": "attack", "attack": AttackConfig(iteration_budget=300, eve_initial_overlap=0.99)},
                "eve_initial_overlap = 0.99: overlap 0.99 changes no weight of K*N = 48",
            ),
            # 0.98 changes one weight of 10*8 but none of 6*8
            (
                {"K_values": (10, 6), "start_modes": (StartMode("overlap", 0.98),)},
                "start_mode = overlap:0.98: overlap 0.98 changes no weight of K*N = 48",
            ),
            # the TPM row at qber 0.01 starts at overlap 0.99, of 10*5 weights
            (
                {
                    "kind": "compare",
                    "K_values": (10,),
                    "compare_settings": (CompareSetting(500, 0.05, 25), CompareSetting(200, 0.01, 5)),
                },
                "settings entry 200:0.01:5: overlap 0.99 changes no weight of K*N = 50",
            ),
        ],
        ids=["party", "eve", "sweep", "compare"],
    )
    def test_overlap_that_changes_no_weight_is_rejected(self, fields, message):
        # refused when the scenario is built, before any trial runs
        with pytest.raises(ScenarioError) as excinfo:
            Scenario(**{"name": "still", "K_values": (6,), "N_values": (8,), "trials": 2, **fields})
        assert str(excinfo.value).startswith(message)

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
        # the 900-bit key's min-entropy under the mod loader, 2 bits per weight
        assert report.budget.entropy_bits == 600
        # the 225 sampled bits left the key before sync, so they are not charged
        assert report.budget.eve_known_bits == report.transcript.iterations
        expected = 600 - report.budget.eve_known_bits - 30
        assert report.final_alice.length == expected
        summary = report.summary().splitlines()
        assert "disclosed: estimation 225 (not charged: the sample left the key)" in summary
        assert (
            f"charged: sync outputs {report.transcript.iterations} (the paper's accounting,"
            " not shown to be sound), digests 0"
        ) in summary
        assert "reconciled length     900 (budget on its min-entropy 600; the paper's Shannon figure 675)" in summary
        assert f"final key length      {expected}" in summary

    def test_aborts_above_threshold(self):
        params = TpmParams(K=4, N=6, L=2)
        with pytest.raises(QberAbortError):
            run_pipeline(length=2000, qber=0.2, params=params, seed=3, qber_threshold=0.11)

    def test_infeasible_budget_surfaces(self):
        # protocol mode exchanges one 64-bit digest, longer than the machine's 36-bit key
        params = TpmParams(K=3, N=4, L=2)
        assert params.key_bits < 64
        with pytest.raises(InfeasibleBudgetError):
            run_pipeline(length=500, qber=0.0, params=params, security_bits=0, seed=4, protocol_mode=True)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # the 4*6*3 = 72-bit key holds K*N*(b-1) = 48 bits of min-entropy:
            # the margin must leave some of them
            ({"security_bits": -5}, "security_bits=-5 must be in [0, K*N*(b-1)) = [0, 48)"),
            ({"security_bits": 48}, "security_bits=48 must be in [0, K*N*(b-1)) = [0, 48)"),
            ({"security_bits": 72}, "security_bits=72 must be in [0, K*N*(b-1)) = [0, 48)"),
            (
                {"protocol_mode": True, "digest_check_interval": 0},
                "digest_check_interval must be a positive integer, got 0",
            ),
            ({"digest_check_interval": 7}, "digest_check_interval applies only in protocol mode"),
            ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
            ({"security_bits": 30.5}, "security_bits must be a non-negative integer, got 30.5"),
            ({"length": 2250.5}, "length must be a positive integer, got 2250.5"),
        ],
        ids=["margin-negative", "margin-min-entropy", "margin-key-bits", "digest-interval-0",
             "digest-interval-in-simulation", "seed-fractional", "margin-fractional", "length-fractional"],
    )
    def test_bad_input_fails_before_any_key_is_drawn(self, monkeypatch, kwargs, message):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return generate_key_pair(*args, **kwargs)

        monkeypatch.setattr(harness, "generate_key_pair", spy)
        params = TpmParams(K=4, N=6, L=2)
        with pytest.raises(ValueError) as excinfo:
            run_pipeline(**{"length": 400, "qber": 0.02, "params": params, "seed": 3, **kwargs})
        assert not calls
        assert str(excinfo.value) == message
        # the spy sees the key draw of a run with a valid margin
        run_pipeline(length=300, qber=0.0, params=params, security_bits=0, seed=1)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            # 500 - floor(0.1 * 500) = 450 bits are left for a 10*30*3 = 900-bit machine
            ({}, KeyMaterialError, "need 900 bits for K=10, N=30, L=2; got 450"),
            ({"sample_fraction": 0.0}, ScenarioError, "sample_fraction must be in (0, 1), got 0.0"),
            ({"sample_fraction": 0.001}, ScenarioError, "sample would be empty; use a larger fraction or key"),
        ],
        ids=["key-short", "fraction-0", "sample-empty"],
    )
    def test_bad_sample_or_short_key_fails_before_any_key_is_drawn(self, monkeypatch, kwargs, error, message):
        calls = []
        for module, name in ((harness, "generate_key_pair"), (sync, "synchronize_batch")):
            monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: calls.append(name))
        with pytest.raises(ValueError) as excinfo:
            run_pipeline(500, 0.03, TpmParams(10, 30, 2), **kwargs)
        assert not calls
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message

    def test_a_sample_that_cannot_resolve_its_threshold_fails_before_any_key_is_drawn(self, monkeypatch):
        # floor(0.01 * 100) = 1 sampled bit: its estimate is 0 or 1, so the
        # run would pass or abort at 0.5 by whether that one bit is an error
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return generate_key_pair(*args, **kwargs)

        monkeypatch.setattr(harness, "generate_key_pair", spy)
        params = TpmParams(2, 10, 2)
        with pytest.raises(ValueError) as excinfo:
            run_pipeline(100, 0.05, params, security_bits=10, seed=3, sample_fraction=0.01, qber_threshold=0.5)
        assert not calls
        assert str(excinfo.value) == "a 1-bit sample cannot resolve qber_threshold=0.5: one mismatch aborts"
        # a threshold of 0 aborts on any mismatch by design, and 2 bits resolve 0.5
        run_pipeline(100, 0.0, params, security_bits=10, seed=3, sample_fraction=0.01, qber_threshold=0.0)
        run_pipeline(200, 0.0, params, security_bits=10, seed=3, sample_fraction=0.01, qber_threshold=0.5)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "params, kwargs, message",
        [
            # the first digest round already discloses 4769 + 64 bits of the 600
            (TpmParams(10, 30, 2), {"digest_check_interval": 4769}, "security_bits=30 must be < 600 - 4833"),
            # K=3, N=4, L=2 loads 24 bits of min-entropy, fewer than one 64-bit digest
            (TpmParams(3, 4, 2), {"security_bits": 0}, "security_bits=0 must be < 24 - 164"),
        ],
        ids=["interval-4769", "min-entropy-24"],
    )
    def test_a_digest_interval_beyond_the_budget_fails_before_any_key_is_drawn(
        self, monkeypatch, params, kwargs, message
    ):
        calls = []
        for module, name in ((harness, "generate_key_pair"), (sync, "synchronize_batch")):
            monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: calls.append(name))
        with pytest.raises(InfeasibleBudgetError) as excinfo:
            run_pipeline(2250, 0.03, params, protocol_mode=True, **kwargs)
        assert not calls
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "protocol_mode, cap, digests, message",
        # 600 - 30 = 570 bits pay for 569 rounds, or for 3 digest rounds at 100 + 64 bits each
        [(True, 300, 3, "security_bits=30 must be < 600 - 656"), (False, 569, 0, "security_bits=30 must be < 600 - 570")],
        ids=["protocol", "simulation"],
    )
    def test_a_session_not_synced_by_its_budgets_last_round_aborts_there(
        self, monkeypatch, protocol_mode, cap, digests, message
    ):
        configs = []
        reconcile = harness.reconcile

        def spy(alice, bob, params, config, seed):
            configs.append(config)
            return reconcile(alice, bob, params, config, seed)

        monkeypatch.setattr(harness, "reconcile", spy)
        # neither run has synced by its cap (uncapped, the protocol-mode one syncs at round 400)
        qber, seed = (0.03, 1) if protocol_mode else (0.05, 8)
        with pytest.raises(InfeasibleBudgetError) as excinfo:
            run_pipeline(2250, qber, TpmParams(10, 30, 2), seed=seed, protocol_mode=protocol_mode)
        assert [config.max_iterations for config in configs] == [cap]
        assert str(excinfo.value) == message
        stalled = excinfo.value.__cause__
        assert isinstance(stalled, NonConvergenceError)
        assert (stalled.transcript.iterations, stalled.transcript.digest_exchanges) == (cap, digests)
        assert not stalled.transcript.converged

    @pytest.mark.parametrize("protocol_mode", [True, False], ids=["protocol", "simulation"])
    def test_the_pipeline_runs_no_pilots(self, monkeypatch, protocol_mode):
        # 7x33 is not a pinned shape, so any automatic budget would run the pilots
        params = TpmParams(7, 33, 2)
        assert (params.K, params.N) not in sync._PINNED_BUDGETS
        calls = []
        monkeypatch.setattr(sync, "resolve_iteration_budget", lambda params: calls.append(params) or 10**6)
        report = run_pipeline(1000, 0.02, params, seed=0, protocol_mode=protocol_mode)
        assert report.transcript.converged
        assert calls == []

    def test_every_key_the_pipeline_yields_is_unchanged_by_its_sync_cap(self):
        # sha256 over 360 runs' packed final keys, or their exception class names, recorded
        # before the sync was capped at the budget's last payable round: 146 keys and 34
        # InfeasibleBudgetError in protocol mode, 179 keys and 1 in simulation mode
        digest, outcomes = hashlib.sha256(), collections.Counter()
        for protocol_mode in (True, False):
            for qber, mode in ((0.02, "uniform"), (0.03, "burst"), (0.05, "uniform")):
                for seed in range(60):
                    try:
                        report = run_pipeline(
                            2250, qber, TpmParams(10, 30, 2), seed=seed, protocol_mode=protocol_mode, error_mode=mode
                        )
                        digest.update(np.packbits(report.final_alice.bits).tobytes())
                        outcomes[protocol_mode, "key"] += 1
                    except InfeasibleBudgetError as error:
                        digest.update(type(error).__name__.encode())
                        outcomes[protocol_mode, "abort"] += 1
        assert outcomes == {(True, "key"): 146, (True, "abort"): 34, (False, "key"): 179, (False, "abort"): 1}
        assert digest.hexdigest() == "d5887dbdef0bc57eca8fa13815d709f316181dced9359c8e74ed1002abbbcb0f"

    @pytest.mark.parametrize(
        "length, threshold, dropped",
        # the 4*6*3 = 72-bit machine loads the first 72 of the bits the sample
        # leaves: 300 - 30 and 80 - 8 (a 0 threshold, as 8 bits cannot resolve 0.11)
        [(300, 0.11, 198), (80, 0.0, 0)],
    )
    def test_summary_counts_the_dropped_key_bits(self, length, threshold, dropped):
        params = TpmParams(K=4, N=6, L=2)
        report = run_pipeline(length, 0.0, params, security_bits=10, seed=1, qber_threshold=threshold)
        assert report.qber_estimate.remaining_alice.length - params.key_bits == dropped
        assert f"dropped key bits      {dropped}" in report.summary().splitlines()

    def test_protocol_mode_digests_are_charged(self):
        params = TpmParams(K=10, N=20, L=2)
        report = run_pipeline(
            length=1500, qber=0.02, params=params, security_bits=10, seed=5, protocol_mode=True
        )
        digests = 64 * report.transcript.digest_exchanges
        assert report.transcript.digest_exchanges >= 1
        assert report.budget.eve_known_bits == report.transcript.iterations + digests
        assert (
            f"charged: sync outputs {report.transcript.iterations} (the paper's accounting,"
            f" not shown to be sound), digests {digests}"
        ) in report.summary().splitlines()

    @pytest.fixture(scope="class")
    def measured_case(self):
        # ROADMAP item 3's measured case: K=10, N=30, L=2 at 3%
        params = TpmParams(K=10, N=30, L=2)
        return params, run_pipeline(3000, 0.03, params, sample_fraction=0.02, seed=1)

    @staticmethod
    def mod_loader_min_entropy(params):
        # load every b-bit chunk once, as the weights of one K=1 machine
        b = params.bits_per_weight
        chunks = (np.arange(2**b)[:, None] >> np.arange(b - 1, -1, -1)) & 1
        loaded = bits_to_weights(BitKey(chunks.reshape(-1)), TpmParams(K=1, N=2**b, L=params.L))
        _, counts = np.unique(loaded.weights, return_counts=True)
        return -np.log2(counts.max() / 2**b)

    def test_measured_case_inputs_to_the_entropy_bound(self, measured_case):
        params, report = measured_case
        assert self.mod_loader_min_entropy(params) == 2.0
        assert report.transcript.iterations == 173

    def test_final_length_fits_the_loaders_min_entropy(self, measured_case):
        params, report = measured_case
        cap = params.weight_count * self.mod_loader_min_entropy(params)
        assert cap == params.min_entropy_bits
        # 300 * 2 - 173 - 30 = 397 bits
        assert report.budget.final_length <= cap - report.transcript.iterations - report.budget.security_bits
        assert report.budget.final_length == 397

    @pytest.fixture
    def amplify_calls(self, monkeypatch):
        calls, amplify = [], harness.amplify

        def spy(key, spec):
            calls.append(key)
            return amplify(key, spec)

        monkeypatch.setattr(harness, "amplify", spy)
        return calls

    def test_the_reconciled_key_is_hashed_once(self, amplify_calls):
        report = run_pipeline(3000, 0.03, TpmParams(10, 30, 2), sample_fraction=0.02, seed=1)
        assert len(amplify_calls) == 1
        assert report.final_alice == report.final_bob
        assert report.final_alice.length == 397

    def test_differing_reconciled_keys_fail_before_any_hash(self, monkeypatch, amplify_calls):
        reconcile = harness.reconcile

        def flip_bob(*args):
            key_a, key_b, transcript = reconcile(*args)
            return key_a, key_b ^ BitKey(np.eye(1, key_b.length, dtype=np.uint8)[0]), transcript

        monkeypatch.setattr(harness, "reconcile", flip_bob)
        with pytest.raises(RuntimeError, match="^pipeline reconciled differing keys$"):
            run_pipeline(300, 0.0, TpmParams(K=4, N=6, L=2), security_bits=10, seed=1)
        assert not amplify_calls

    @settings(max_examples=60)
    @given(
        st.integers(1, 10),
        st.integers(1, 30),
        st.integers(1, 4),
        st.floats(0.0, 0.1),
        st.floats(0.01, 0.3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_final_length_fits_the_min_entropy_and_the_shannon_bound(
        self, K, N, L, qber, sample_fraction, protocol_mode, seed
    ):
        params = TpmParams(K, N, L)
        if params.min_entropy_bits <= DEFAULT_SECURITY_BITS:
            reject()  # the margin must leave some of the min-entropy
        # enough raw bits to fill the machine after a sample of at least two
        # bits, the fewest in which one mismatch does not cross the 0.5 threshold
        length = max(math.ceil(params.key_bits / (1 - sample_fraction)) + 2, math.ceil(2 / sample_fraction) + 1)
        try:
            report = run_pipeline(
                length, qber, params, seed=seed, sample_fraction=sample_fraction,
                qber_threshold=0.5, protocol_mode=protocol_mode,
            )
        except (InfeasibleBudgetError, QberAbortError):
            reject()  # no key, so nothing to bound
        final, transcript = report.budget.final_length, report.transcript
        removed = transcript.iterations + transcript.disclosed_bits + DEFAULT_SECURITY_BITS
        assert final <= params.min_entropy_bits - removed
        # reconciling n bits at the channel's error rate q discloses at least n*h(q) of them
        h = -sum(p * math.log2(p) for p in (qber, 1 - qber) if p > 0)
        assert final <= params.key_bits * (1 - h)


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


def _attack_slice(strategy, size, until):
    return Scenario(
        name=f"atk-{strategy}",
        kind="attack",
        L=2,
        K_values=(4,),
        N_values=(6,),
        start_modes=tuple(StartMode.parse(m) for m in ("random", "overlap:0.9", "from_qber:0.05")),
        trials=3,
        base_seed=52,
        attack=AttackConfig(strategy, size, 300, until=until),
    )


GOLDEN_SLICES = {
    "fig4": lambda: dataclasses.replace(load_scenario("fig4"), trials=3),
    "fig3-protocol": lambda: dataclasses.replace(load_scenario("fig3"), trials=2, protocol_mode=True),
    "from_qber-simulation": lambda: _qber_slice(False),
    "from_qber-protocol": lambda: _qber_slice(True),
    "table1": lambda: dataclasses.replace(load_scenario("table1"), trials=3),
    "attack-passive": lambda: _attack_slice("passive", 1, "budget"),
    "attack-geometric": lambda: _attack_slice("geometric", 1, "budget"),
    "attack-ensemble": lambda: _attack_slice("ensemble", 3, "budget"),
    "attack-passive-stop": lambda: _attack_slice("passive", 1, "stop"),
    "attack-geometric-stop": lambda: _attack_slice("geometric", 1, "stop"),
    "attack-ensemble-stop": lambda: _attack_slice("ensemble", 3, "stop"),
}

# sha256 of each slice's CSV
GOLDEN_SLICE_DIGESTS = {
    "attack-ensemble": "380386de06608166af60606446c6327ea8b436092564b19b145efd10e4597045",
    "attack-geometric": "d4c75a71590f200255c4fadb6c86bab21893700ad945ac8c3ef6eec1cbbf1ad5",
    "attack-passive": "66bac1f9a6d18a1f577bc62dedd12332e85360a37f451aa487c804bd88b94cce",
    # the same races ended at the parties' stop
    "attack-ensemble-stop": "aaecdfb4606785e232fca68292cd9fd1cde2dbd0fbb95b296075cdb979499cab",
    "attack-geometric-stop": "7329e76bd499bea18aabdcf7f802ad18d663982437353b42ec7f5619c94a7d58",
    "attack-passive-stop": "d5a16d3b8baf657e1da7f23e028246c6d5cad1c63114a0158e8196ad13e1e1ca",
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
