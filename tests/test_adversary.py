import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from neurokey import harness
from neurokey.adversary import AttackConfig, leakage_after, run_attack
from neurokey.channel import generate_key_pair
from neurokey.sync import SyncConfig, _exchange_round, _inputs, seed_initial_overlap
from neurokey.tpm import (
    Tpm,
    TpmEvaluation,
    TpmParams,
    bits_to_weights,
    evaluate,
    hebbian_step,
    weight_overlap,
)

PARAMS = TpmParams(K=6, N=8, L=2)


def fresh_pair(seed, params=PARAMS):
    rng = np.random.default_rng(seed)
    return Tpm.random(params, rng), Tpm.random(params, rng)


class TestLeakage:
    def test_zero_iterations(self):
        estimate = leakage_after(0, TpmParams(10, 25, 2))
        assert estimate.weight_equivalent_reduction == 0.0
        assert estimate.bit_reduction == 0
        assert estimate.key_space_log2 == pytest.approx(250 * math.log2(5))

    def test_single_iteration_l2(self):
        estimate = leakage_after(1, TpmParams(10, 25, 2))
        assert estimate.weight_equivalent_reduction == pytest.approx(
            math.log(2) / math.log(5), rel=1e-12
        )

    def test_table_shape_reduction(self):
        estimate = leakage_after(120, TpmParams(10, 25, 2))
        assert estimate.weight_equivalent_reduction == pytest.approx(51.6812, abs=1e-3)
        # about a fifth of the 250 weights
        assert 0.15 < estimate.weight_equivalent_reduction / 250 < 0.25

    def test_bit_reduction_is_exactly_the_iteration_count(self):
        for iterations in (0, 1, 7, 120, 9999):
            estimate = leakage_after(iterations, TpmParams(3, 4, 5))
            assert estimate.bit_reduction == iterations

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            leakage_after(-1, PARAMS)


class TestAttackConfig:
    def test_ensemble_size_requires_ensemble_strategy(self):
        with pytest.raises(ValueError):
            AttackConfig(strategy="passive", ensemble_size=3)
        AttackConfig(strategy="ensemble", ensemble_size=3)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            AttackConfig(strategy="quantum")


class TestRunAttack:
    def test_eve_identical_to_alice_syncs_immediately(self):
        alice, bob = fresh_pair(1)
        config = SyncConfig(PARAMS, seed=2)
        attack = AttackConfig(strategy="passive", iteration_budget=2000, eve_initial_overlap=1.0)
        transcript, result = run_attack(alice, bob, config, attack)
        assert result.synced
        assert result.best_overlap == 1.0

    def test_ensemble_of_one_equals_passive_under_same_seed(self):
        for seed in (3, 4, 5):
            alice_a, bob_a = fresh_pair(seed)
            alice_b, bob_b = fresh_pair(seed)
            config = SyncConfig(PARAMS, seed=100 + seed)
            t1, r1 = run_attack(alice_a, bob_a, config, AttackConfig("passive", iteration_budget=400))
            t2, r2 = run_attack(alice_b, bob_b, config, AttackConfig("ensemble", 1, iteration_budget=400))
            assert t1 == t2
            assert r1.per_machine_overlap == r2.per_machine_overlap
            assert r1.eve_learning_steps == r2.eve_learning_steps

    def test_eve_learns_on_a_subset_of_exchanges(self):
        for seed in range(8):
            alice, bob = fresh_pair(20 + seed)
            config = SyncConfig(PARAMS, seed=40 + seed)
            _, result = run_attack(alice, bob, config, AttackConfig("passive", iteration_budget=600))
            assert result.eve_learning_steps[0] <= result.exchange_learning_steps

    def test_passive_eve_usually_fails(self):
        trials, failures = 60, 0
        for seed in range(trials):
            alice, bob = fresh_pair(200 + seed)
            config = SyncConfig(PARAMS, seed=300 + seed)
            _, result = run_attack(alice, bob, config, AttackConfig("passive", iteration_budget=1000))
            failures += not result.synced
        assert failures / trials >= 0.8

    def test_geometric_beats_passive_on_average(self):
        trials = 60
        totals = {"passive": 0.0, "geometric": 0.0}
        for strategy in totals:
            for seed in range(trials):
                alice, bob = fresh_pair(400 + seed)
                config = SyncConfig(PARAMS, seed=500 + seed)
                _, result = run_attack(
                    alice, bob, config, AttackConfig(strategy, iteration_budget=400)
                )
                totals[strategy] += result.best_overlap
        assert totals["geometric"] >= totals["passive"]

    def test_ensemble_takes_the_best_machine(self):
        alice, bob = fresh_pair(600)
        config = SyncConfig(PARAMS, seed=601)
        _, result = run_attack(alice, bob, config, AttackConfig("ensemble", 4, iteration_budget=300))
        assert len(result.per_machine_overlap) == 4
        assert result.best_overlap == max(result.per_machine_overlap)

    def test_parties_converge_while_eve_watches(self):
        alice, bob = fresh_pair(700)
        config = SyncConfig(PARAMS, seed=701)
        transcript, result = run_attack(alice, bob, config, AttackConfig("passive", iteration_budget=2000))
        assert transcript.converged
        assert transcript.iterations <= result.iterations_observed
        assert np.array_equal(alice.weights, bob.weights) is False  # inputs untouched

    def test_shape_mismatch_rejected(self):
        alice, _ = fresh_pair(800)
        other = Tpm.random(TpmParams(5, 8, 2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_attack(alice, other, SyncConfig(PARAMS, seed=1), AttackConfig())

    def test_median_eve_overlap_at_convergence_below_one(self):
        # median over >= 500 trials of the best Eve overlap measured at the
        # round the parties first coincide
        overlaps = []
        for seed in range(500):
            alice, bob = fresh_pair(900 + seed)
            config = SyncConfig(PARAMS, seed=1500 + seed)
            _, result = run_attack(alice, bob, config, AttackConfig("passive", iteration_budget=600))
            if result.best_overlap_at_convergence >= 0:
                overlaps.append(result.best_overlap_at_convergence)
        assert len(overlaps) >= 450
        overlaps.sort()
        assert overlaps[len(overlaps) // 2] < 1.0


# ---------------------------------------------------------------------------
# golden races, captured with the per-Eve update loop that preceded the
# stacked exchange kernel

GOLDEN_STRATEGIES = (("passive", 1), ("geometric", 1), ("ensemble", 3), ("ensemble", 16))
GOLDEN_STARTS = ("random", "overlap", "from_qber")
GOLDEN_EVE_OVERLAPS = (None, 0.9, 1.0)
GOLDEN_CASES = list(
    itertools.product(GOLDEN_STRATEGIES, GOLDEN_STARTS, GOLDEN_EVE_OVERLAPS, (False, True))
)


def race_parties(start, seed):
    rng = np.random.default_rng(seed)
    alice = Tpm.random(PARAMS, rng)
    if start == "random":
        return alice, Tpm.random(PARAMS, rng)
    if start == "overlap":
        return alice, seed_initial_overlap(alice, 0.9, seed=seed + 1)
    pair = generate_key_pair(PARAMS.key_bits, 0.05, seed=seed)
    return bits_to_weights(pair.alice, PARAMS), bits_to_weights(pair.bob, PARAMS)


def race_digest(index):
    """First 16 hex digits of the sha256 of one race's transcript record and
    every AttackResult field."""
    (strategy, size), start, eve_overlap, record = GOLDEN_CASES[index]
    alice, bob = race_parties(start, seed=7000 + index)
    config = SyncConfig(PARAMS, seed=8000 + index, record_overlap=record)
    attack = AttackConfig(strategy, size, iteration_budget=300, eve_initial_overlap=eve_overlap)
    transcript, result = run_attack(alice, bob, config, attack)
    payload = json.dumps([transcript.to_record(), dataclasses.asdict(result)])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


GOLDEN_RACE_DIGESTS = {
    "passive1-random-eveNone-notrace": "a3a5eaff8822dcfa",
    "passive1-random-eveNone-trace": "1c6a879e235deee0",
    "passive1-random-eve0.9-notrace": "af13fc6394eece32",
    "passive1-random-eve0.9-trace": "a81692d7d16a585f",
    "passive1-random-eve1.0-notrace": "40bf2fdb52350fe5",
    "passive1-random-eve1.0-trace": "86b855261530488a",
    "passive1-overlap-eveNone-notrace": "94c63b2d74341529",
    "passive1-overlap-eveNone-trace": "3829eb460cd3f4b9",
    "passive1-overlap-eve0.9-notrace": "c705b4f2c9a5d434",
    "passive1-overlap-eve0.9-trace": "d37ed5d7c8e85416",
    "passive1-overlap-eve1.0-notrace": "40bf2fdb52350fe5",
    "passive1-overlap-eve1.0-trace": "4a997daa97d6679c",
    "passive1-from_qber-eveNone-notrace": "c9ff8175cc9ec9d9",
    "passive1-from_qber-eveNone-trace": "8b634e9a497ad0e7",
    "passive1-from_qber-eve0.9-notrace": "b2b1d84f49fcbf65",
    "passive1-from_qber-eve0.9-trace": "2a091b76c709c83a",
    "passive1-from_qber-eve1.0-notrace": "25bad75538f46e6e",
    "passive1-from_qber-eve1.0-trace": "4d70d706cd19686c",
    "geometric1-random-eveNone-notrace": "67d4a85f4b2a5c1c",
    "geometric1-random-eveNone-trace": "2878589af498bae7",
    "geometric1-random-eve0.9-notrace": "776537a94be103ad",
    "geometric1-random-eve0.9-trace": "abfb4dabbb1eb540",
    "geometric1-random-eve1.0-notrace": "40bf2fdb52350fe5",
    "geometric1-random-eve1.0-trace": "86b855261530488a",
    "geometric1-overlap-eveNone-notrace": "a06741b6831fe60e",
    "geometric1-overlap-eveNone-trace": "328012f7426406c4",
    "geometric1-overlap-eve0.9-notrace": "471fe31f11b83c3c",
    "geometric1-overlap-eve0.9-trace": "70a8fcd9058fff2b",
    "geometric1-overlap-eve1.0-notrace": "40bf2fdb52350fe5",
    "geometric1-overlap-eve1.0-trace": "4a997daa97d6679c",
    "geometric1-from_qber-eveNone-notrace": "7f0d6ca2677139fa",
    "geometric1-from_qber-eveNone-trace": "fa2882be0f92661c",
    "geometric1-from_qber-eve0.9-notrace": "6e4eeef1fe59ff20",
    "geometric1-from_qber-eve0.9-trace": "1e2be5db18d7d143",
    "geometric1-from_qber-eve1.0-notrace": "25bad75538f46e6e",
    "geometric1-from_qber-eve1.0-trace": "f6e13d2d66253a18",
    "ensemble3-random-eveNone-notrace": "5b24338254a37740",
    "ensemble3-random-eveNone-trace": "edecef561297d2b3",
    "ensemble3-random-eve0.9-notrace": "b9cdccebd23fc823",
    "ensemble3-random-eve0.9-trace": "f5ca5f31e58c943d",
    "ensemble3-random-eve1.0-notrace": "2f49cc2a33441a72",
    "ensemble3-random-eve1.0-trace": "4ec5d7c461bb439f",
    "ensemble3-overlap-eveNone-notrace": "dcb588e5d628b205",
    "ensemble3-overlap-eveNone-trace": "75510539786c428d",
    "ensemble3-overlap-eve0.9-notrace": "cc9b7aa367d76cbf",
    "ensemble3-overlap-eve0.9-trace": "4016555d59fb1411",
    "ensemble3-overlap-eve1.0-notrace": "2f49cc2a33441a72",
    "ensemble3-overlap-eve1.0-trace": "a26895eadb6ce40d",
    "ensemble3-from_qber-eveNone-notrace": "b024fbe85ef69670",
    "ensemble3-from_qber-eveNone-trace": "a301cbb8294fcd3e",
    "ensemble3-from_qber-eve0.9-notrace": "3ca0956daef68e07",
    "ensemble3-from_qber-eve0.9-trace": "7c54f1b10ac483d1",
    "ensemble3-from_qber-eve1.0-notrace": "cac75e85619dd0cb",
    "ensemble3-from_qber-eve1.0-trace": "f5938c6bf5eb683f",
    "ensemble16-random-eveNone-notrace": "b17019b702f16d58",
    "ensemble16-random-eveNone-trace": "fd8984b2c891002f",
    "ensemble16-random-eve0.9-notrace": "a77f3fccafa808fd",
    "ensemble16-random-eve0.9-trace": "965ac4a56cd0b9a9",
    "ensemble16-random-eve1.0-notrace": "9a5378fd2f452ac2",
    "ensemble16-random-eve1.0-trace": "a835c5380973bdbb",
    "ensemble16-overlap-eveNone-notrace": "553dd0304150e4ae",
    "ensemble16-overlap-eveNone-trace": "1f88b3e3994909c0",
    "ensemble16-overlap-eve0.9-notrace": "96932e77843debf1",
    "ensemble16-overlap-eve0.9-trace": "65238be8c4d36286",
    "ensemble16-overlap-eve1.0-notrace": "9a5378fd2f452ac2",
    "ensemble16-overlap-eve1.0-trace": "ba12ea69abbccd61",
    "ensemble16-from_qber-eveNone-notrace": "f656080f980a0172",
    "ensemble16-from_qber-eveNone-trace": "7e051afeb5c9d415",
    "ensemble16-from_qber-eve0.9-notrace": "1529a105a6d0a11f",
    "ensemble16-from_qber-eve0.9-trace": "26d45d8ef701a7ff",
    "ensemble16-from_qber-eve1.0-notrace": "edf29293d0b4ce4a",
    "ensemble16-from_qber-eve1.0-trace": "5ff940feac101e17",
}

# sha256 of the CSV of the bundled fig2 scenario cut to its first 20 trials
GOLDEN_FIG2_SLICE = "6ed63ca6d48a93954eb393b397a20e73aef9c19a838aca883691233ba25b2a8f"


def golden_case_id(case):
    (strategy, size), start, eve_overlap, record = case
    return f"{strategy}{size}-{start}-eve{eve_overlap}-{'trace' if record else 'notrace'}"


@pytest.mark.parametrize("index", range(len(GOLDEN_CASES)), ids=[golden_case_id(c) for c in GOLDEN_CASES])
def test_golden_race_digests(index):
    assert race_digest(index) == GOLDEN_RACE_DIGESTS[golden_case_id(GOLDEN_CASES[index])]


def fig2_slice_digest():
    scenario = dataclasses.replace(harness.load_scenario("fig2"), trials=20)
    csv_text = harness.records_to_csv(harness.run_scenario(scenario))
    return hashlib.sha256(csv_text.encode()).hexdigest()


def test_golden_fig2_slice():
    assert fig2_slice_digest() == GOLDEN_FIG2_SLICE


# ---------------------------------------------------------------------------
# the stacked exchange kernel against the reference evaluate/hebbian_step


def oracle_round(machines, x, geometric):
    """One public round machine by machine: parties first, then each Eve.
    Returns the new machines and which of them learned (None if nobody)."""
    alice, bob = machines[:2]
    ea, eb = evaluate(alice, x), evaluate(bob, x)
    if ea.tau != eb.tau:
        return machines, None
    moved = [hebbian_step(alice, x, ea, eb.tau), hebbian_step(bob, x, eb, ea.tau)]
    learned = [True, True]
    for eve in machines[2:]:
        own = evaluate(eve, x)
        if own.tau != ea.tau and geometric:
            # flip the hidden unit with the weakest local field by hand
            fields = (eve.weights * x).sum(axis=1)
            sigma = own.sigma.copy()
            weakest = int(np.argmin(np.abs(fields)))
            sigma[weakest] = -sigma[weakest]
            own = TpmEvaluation(sigma, ea.tau)
        if own.tau == ea.tau:
            moved.append(hebbian_step(eve, x, own, ea.tau))
            learned.append(True)
        else:
            moved.append(eve)
            learned.append(False)
    return moved, learned


@pytest.mark.parametrize("geometric", [False, True])
def test_exchange_round_matches_the_oracle_round_by_round(geometric):
    params = TpmParams(K=3, N=4, L=2)
    rng = np.random.default_rng(31 + geometric)
    machines = [Tpm.random(params, rng) for _ in range(7)]
    w = np.stack([m.weights for m in machines])
    silent = 0
    for _ in range(300):
        x = rng.integers(0, 2, size=(params.K, params.N), dtype=np.int32) * 2 - 1
        before = w.copy()
        learn = _exchange_round(w, x, params.L, geometric)
        machines, learned = oracle_round(machines, x, geometric)
        if learned is None:
            silent += 1
            assert learn is None
            assert np.array_equal(w, before)
        else:
            assert learn.tolist() == learned
        assert np.array_equal(w, np.stack([m.weights for m in machines]))
    assert silent > 0


@pytest.mark.parametrize("strategy", ["passive", "geometric"])
def test_run_attack_replays_with_the_reference_operations(strategy):
    # the same race, rebuilt from evaluate/hebbian_step on the input stream
    # run_attack draws, must give the same overlaps and learning counts
    for seed in range(4):
        alice, bob = fresh_pair(1100 + seed)
        config = SyncConfig(PARAMS, seed=1200 + seed, record_overlap=True)
        attack = AttackConfig(strategy, iteration_budget=500)
        transcript, result = run_attack(alice, bob, config, attack)

        input_seq, eve_seq = np.random.SeedSequence(config.seed).spawn(2)
        inputs = _inputs(np.random.default_rng(input_seq), (PARAMS.K, PARAMS.N))
        machines = [alice, bob, Tpm.random(PARAMS, np.random.default_rng(eve_seq))]
        eve_steps = party_steps = 0
        party_trace, eve_trace = [], []
        for _ in range(attack.iteration_budget):
            machines, learned = oracle_round(machines, next(inputs), strategy == "geometric")
            if learned is not None:
                party_steps += 1
                eve_steps += learned[2]
            party_trace.append(weight_overlap(machines[0], machines[1]))
            eve_trace.append(weight_overlap(machines[2], machines[0]))
            if eve_trace[-1] == 1.0:
                break
        assert result.eve_learning_steps == [eve_steps]
        assert result.exchange_learning_steps == party_steps
        assert result.per_machine_overlap == [eve_trace[-1]]
        assert [v for _, v in result.eve_overlap_trace] == eve_trace
        assert [v for _, v in transcript.overlap_trace] == party_trace
        assert result.iterations_observed == len(eve_trace)
