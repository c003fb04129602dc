import collections
import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from neurokey import harness, sync
from neurokey.adversary import AttackConfig, leakage_after, run_attack
from neurokey.channel import generate_key_pair
from neurokey.sync import (
    SyncConfig,
    _draw_inputs,
    _exchange_rounds,
    _stack_dtype,
    seed_initial_overlap,
    synchronize_batch,
)
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

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"strategy": "ensemble", "ensemble_size": 0}, "ensemble_size must be >= 1"),
            ({"iteration_budget": 0}, "iteration_budget must be >= 1"),
            ({"eve_initial_overlap": 1.5}, "eve_initial_overlap must be in [0, 1]"),
        ],
    )
    def test_out_of_range_values_are_rejected(self, override, message):
        with pytest.raises(ValueError) as info:
            AttackConfig(**override)
        assert str(info.value) == message


class TestRunAttack:
    def test_eve_identical_to_alice_syncs_immediately(self):
        alice, bob = fresh_pair(1)
        attack = AttackConfig(strategy="passive", iteration_budget=2000, eve_initial_overlap=1.0)
        transcript, result = run_attack(alice, bob, 2, attack)
        assert result.synced
        assert result.best_overlap == 1.0
        assert result.iterations_observed == 0

    def test_ensemble_of_one_equals_passive_under_same_seed(self):
        for seed in (3, 4, 5):
            alice_a, bob_a = fresh_pair(seed)
            alice_b, bob_b = fresh_pair(seed)
            t1, r1 = run_attack(alice_a, bob_a, 100 + seed, AttackConfig("passive", iteration_budget=400))
            t2, r2 = run_attack(alice_b, bob_b, 100 + seed, AttackConfig("ensemble", 1, iteration_budget=400))
            assert (t1, r1) == (t2, r2)

    def test_passive_eve_usually_fails(self):
        trials, failures = 60, 0
        for seed in range(trials):
            alice, bob = fresh_pair(200 + seed)
            _, result = run_attack(alice, bob, 300 + seed, AttackConfig("passive", iteration_budget=1000))
            failures += not result.synced
        assert failures / trials >= 0.8

    def test_geometric_beats_passive_on_average(self):
        trials = 60
        totals = {"passive": 0.0, "geometric": 0.0}
        for strategy in totals:
            for seed in range(trials):
                alice, bob = fresh_pair(400 + seed)
                _, result = run_attack(
                    alice, bob, 500 + seed, AttackConfig(strategy, iteration_budget=400)
                )
                totals[strategy] += result.best_overlap
        assert totals["geometric"] >= totals["passive"]

    def test_ensemble_takes_the_best_machine(self):
        # the ensemble's first machine is the passive race's Eve: both draw
        # her first from the same Eve seed, and both see the same inputs
        alice, bob = fresh_pair(600)
        _, passive = run_attack(alice, bob, 601, AttackConfig("passive", iteration_budget=300))
        _, ensemble = run_attack(alice, bob, 601, AttackConfig("ensemble", 4, iteration_budget=300))
        assert ensemble.best_overlap >= passive.best_overlap

    def test_parties_converge_while_eve_watches(self):
        alice, bob = fresh_pair(700)
        transcript, result = run_attack(alice, bob, 701, AttackConfig("passive", iteration_budget=2000))
        assert transcript.converged
        assert transcript.iterations <= result.iterations_observed
        assert np.array_equal(alice.weights, bob.weights) is False  # inputs untouched

    def test_shape_mismatch_rejected(self):
        alice, _ = fresh_pair(800)
        other = Tpm.random(TpmParams(5, 8, 2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_attack(alice, other, 1, AttackConfig())

    def test_median_eve_overlap_at_convergence_below_one(self):
        # median over >= 500 trials of the best Eve overlap measured at the
        # round the parties first coincide
        overlaps = []
        for seed in range(500):
            alice, bob = fresh_pair(900 + seed)
            _, result = run_attack(alice, bob, 1500 + seed, AttackConfig("passive", iteration_budget=600))
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
    attack = AttackConfig(strategy, size, iteration_budget=300, eve_initial_overlap=eve_overlap)
    transcript, result = run_attack(alice, bob, 8000 + index, attack, record_overlap=record)
    payload = json.dumps([transcript.to_record(), dataclasses.asdict(result)])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


GOLDEN_RACE_DIGESTS = {
    "passive1-random-eveNone-notrace": "c9b98d1caf7a3bad",
    "passive1-random-eveNone-trace": "38a43e9506d427ad",
    "passive1-random-eve0.9-notrace": "dcbb408c79a52bf8",
    "passive1-random-eve0.9-trace": "52a5fa3b688ce742",
    "passive1-random-eve1.0-notrace": "467064cdbd104498",
    "passive1-random-eve1.0-trace": "0d88801892eef02a",
    "passive1-overlap-eveNone-notrace": "6d4f15aea0ea066d",
    "passive1-overlap-eveNone-trace": "0ad26abf9fa5aa2f",
    "passive1-overlap-eve0.9-notrace": "999b6cf99e99136c",
    "passive1-overlap-eve0.9-trace": "f365df9c04d124fb",
    "passive1-overlap-eve1.0-notrace": "467064cdbd104498",
    "passive1-overlap-eve1.0-trace": "0d88801892eef02a",
    "passive1-from_qber-eveNone-notrace": "460b44edc388e23a",
    "passive1-from_qber-eveNone-trace": "06f22d696ba71339",
    "passive1-from_qber-eve0.9-notrace": "af0ff6c5ab1f52fe",
    "passive1-from_qber-eve0.9-trace": "021123e299ef10d3",
    "passive1-from_qber-eve1.0-notrace": "467064cdbd104498",
    "passive1-from_qber-eve1.0-trace": "0d88801892eef02a",
    "geometric1-random-eveNone-notrace": "dab64504eba8d84c",
    "geometric1-random-eveNone-trace": "28c2d2c27c39812c",
    "geometric1-random-eve0.9-notrace": "fdc56744ad9df38e",
    "geometric1-random-eve0.9-trace": "e4801ab7a7f75b1d",
    "geometric1-random-eve1.0-notrace": "467064cdbd104498",
    "geometric1-random-eve1.0-trace": "0d88801892eef02a",
    "geometric1-overlap-eveNone-notrace": "8cc7c72275060acb",
    "geometric1-overlap-eveNone-trace": "3519dd2b60d63af5",
    "geometric1-overlap-eve0.9-notrace": "add9fbfc81655af9",
    "geometric1-overlap-eve0.9-trace": "ca1922b32e25a51c",
    "geometric1-overlap-eve1.0-notrace": "467064cdbd104498",
    "geometric1-overlap-eve1.0-trace": "0d88801892eef02a",
    "geometric1-from_qber-eveNone-notrace": "4a31d40649bfef6d",
    "geometric1-from_qber-eveNone-trace": "30fdc71e89a35fdf",
    "geometric1-from_qber-eve0.9-notrace": "690e62d223dd145b",
    "geometric1-from_qber-eve0.9-trace": "23c7e5c83f3bc922",
    "geometric1-from_qber-eve1.0-notrace": "467064cdbd104498",
    "geometric1-from_qber-eve1.0-trace": "0d88801892eef02a",
    "ensemble3-random-eveNone-notrace": "c6531f26124c0180",
    "ensemble3-random-eveNone-trace": "d8ea62aa485ed6e2",
    "ensemble3-random-eve0.9-notrace": "72f28298689a5278",
    "ensemble3-random-eve0.9-trace": "b93f93efa3cf8064",
    "ensemble3-random-eve1.0-notrace": "467064cdbd104498",
    "ensemble3-random-eve1.0-trace": "0d88801892eef02a",
    "ensemble3-overlap-eveNone-notrace": "8bdb67bb573165e1",
    "ensemble3-overlap-eveNone-trace": "db1a1f364bdfdd1e",
    "ensemble3-overlap-eve0.9-notrace": "e8dc2c8c73981993",
    "ensemble3-overlap-eve0.9-trace": "9d4ea665f5b3f9fb",
    "ensemble3-overlap-eve1.0-notrace": "467064cdbd104498",
    "ensemble3-overlap-eve1.0-trace": "0d88801892eef02a",
    "ensemble3-from_qber-eveNone-notrace": "d4498a194fe7e912",
    "ensemble3-from_qber-eveNone-trace": "94917a496f57826e",
    "ensemble3-from_qber-eve0.9-notrace": "2e31ba56ff3be35e",
    "ensemble3-from_qber-eve0.9-trace": "3e75c48a0de35902",
    "ensemble3-from_qber-eve1.0-notrace": "467064cdbd104498",
    "ensemble3-from_qber-eve1.0-trace": "0d88801892eef02a",
    "ensemble16-random-eveNone-notrace": "4fee788f9dbb44d6",
    "ensemble16-random-eveNone-trace": "798a05ee0244853f",
    "ensemble16-random-eve0.9-notrace": "521670f25cf7a46c",
    "ensemble16-random-eve0.9-trace": "0698e6f7501aa7e3",
    "ensemble16-random-eve1.0-notrace": "467064cdbd104498",
    "ensemble16-random-eve1.0-trace": "0d88801892eef02a",
    "ensemble16-overlap-eveNone-notrace": "c2d2c8f4a2f521e0",
    "ensemble16-overlap-eveNone-trace": "c27aab41ffb3e1d5",
    "ensemble16-overlap-eve0.9-notrace": "783192cd0c13e905",
    "ensemble16-overlap-eve0.9-trace": "2b383e81e0437468",
    "ensemble16-overlap-eve1.0-notrace": "467064cdbd104498",
    "ensemble16-overlap-eve1.0-trace": "0d88801892eef02a",
    "ensemble16-from_qber-eveNone-notrace": "25c684a1381a7482",
    "ensemble16-from_qber-eveNone-trace": "abf9701d7d3a352a",
    "ensemble16-from_qber-eve0.9-notrace": "ac0b481b2ebf2849",
    "ensemble16-from_qber-eve0.9-trace": "95b76037b20bad53",
    "ensemble16-from_qber-eve1.0-notrace": "467064cdbd104498",
    "ensemble16-from_qber-eve1.0-trace": "0d88801892eef02a",
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
# an untraced race runs each block of rounds on a copy of the kernel's stop
# flags compared once, after its last round, and re-runs a block whose copy
# shows an absorbing event under the flags at cadence 1; a traced race runs
# blocks of one round, so the two must agree in everything but the trace


def untraced_and_traced(alice, bob, seed, attack):
    """Both runs of one race, each with its overlap trace blanked."""
    runs = []
    for record in (False, True):
        transcript, result = run_attack(alice, bob, seed, attack, record)
        runs.append((dataclasses.replace(transcript, overlap_trace=None), result))
    return runs


EQUIVALENCE_CASES = list(itertools.product(GOLDEN_STRATEGIES, GOLDEN_STARTS, GOLDEN_EVE_OVERLAPS))


@pytest.mark.parametrize(
    "case", EQUIVALENCE_CASES, ids=[f"{s}{n}-{start}-eve{eve}" for (s, n), start, eve in EQUIVALENCE_CASES]
)
def test_untraced_race_equals_the_traced_race(case):
    (strategy, size), start, eve_overlap = case
    alice, bob = race_parties(start, seed=9000 + size)
    for budget in (1, 15, 16, 17, 64, 65, 300):
        attack = AttackConfig(strategy, size, iteration_budget=budget, eve_initial_overlap=eve_overlap)
        untraced, traced = untraced_and_traced(alice, bob, 9100 + budget, attack)
        assert untraced == traced


@pytest.mark.parametrize("strategy,size", GOLDEN_STRATEGIES, ids=[f"{s}{n}" for s, n in GOLDEN_STRATEGIES])
def test_parties_that_start_equal_converge_at_round_zero(strategy, size):
    # the race checks both events before its first round, as synchronize_batch
    # does: equal parties converge at round 0, where each Eve still holds her
    # starting overlap, 44/48 (floor(0.1 * 48) = 4 of Alice's weights changed)
    alice, _ = fresh_pair(11)
    batch = synchronize_batch([(alice.copy(), alice.copy())], SyncConfig(), [12])
    assert (batch[0].iterations, batch[0].learning_steps, batch[0].converged) == (0, 0, True)
    attack = AttackConfig(strategy, size, iteration_budget=40, eve_initial_overlap=0.9)
    for transcript, result in untraced_and_traced(alice, alice.copy(), 12, attack):
        assert [transcript] == batch
        assert result.best_overlap_at_convergence == 44 / 48


# (strategy, start, seed, budget, the event, the round it happens on); the
# intervals are rounds 1-16, 17-32, ..., and a budget not a multiple of 16
# ends on a partial one
BOUNDARY_RACES = {
    "eve-last-round-of-interval": ("geometric", "overlap", 1, 300, "eve", 48),
    "eve-first-round-of-interval": ("geometric", "random", 24, 300, "eve", 97),
    "eve-inside-final-partial-interval": ("passive", "random", 4, 12, "eve", 10),
    "parties-last-round-of-interval": ("passive", "random", 5, 300, "parties", 272),
    "parties-first-round-of-interval": ("passive", "overlap", 6, 300, "parties", 49),
    "parties-inside-final-partial-interval": ("passive", "random", 0, 207, "parties", 205),
}


@pytest.mark.parametrize("case", BOUNDARY_RACES)
def test_untraced_race_finds_events_at_interval_boundaries(case):
    strategy, start, seed, budget, event, round_ = BOUNDARY_RACES[case]
    alice, bob = race_parties(start, seed)
    attack = AttackConfig(strategy, iteration_budget=budget, eve_initial_overlap=0.9)
    untraced, traced = untraced_and_traced(alice, bob, seed + 1, attack)
    assert untraced == traced
    transcript, result = untraced
    if event == "eve":
        assert result.synced and result.iterations_observed == round_
    else:
        assert transcript.converged and transcript.iterations == round_


# ---------------------------------------------------------------------------
# the stacked exchange kernel against the reference evaluate/hebbian_step


def oracle_round(machines, x, geometric, seen=None):
    """One public round machine by machine: parties first, then each Eve.
    Returns the new machines and which of them learned (None if nobody).

    ``seen``, a Counter, gets one count per kind of edge case the round hit:
    a zero local field, a geometric flip with a tie for the smallest
    |local field|, a weight clamped at +/-L, and, per sign of the public
    tau, a geometric flip and a row that sits out an agreed round."""
    hits = set()
    if any(((m.weights * x).sum(axis=1) == 0).any() for m in machines):
        hits.add("zero field")
    alice, bob = machines[:2]
    ea, eb = evaluate(alice, x), evaluate(bob, x)
    moved, learned = list(machines), None
    if ea.tau == eb.tau:
        moved, learned = [], []
        for machine in machines:
            own = evaluate(machine, x)
            if own.tau != ea.tau:
                hits.add(f"{'flip' if geometric else 'idle row'} at tau {ea.tau:+d}")
            if own.tau != ea.tau and geometric:
                # flip the hidden unit with the weakest local field by hand
                strength = np.abs((machine.weights * x).sum(axis=1))
                sigma = own.sigma.copy()
                weakest = int(np.argmin(strength))
                sigma[weakest] = -sigma[weakest]
                own = TpmEvaluation(sigma, ea.tau)
                if np.count_nonzero(strength == strength[weakest]) > 1:
                    hits.add("tie")
            if own.tau == ea.tau:
                new = hebbian_step(machine, x, own, ea.tau)
                # an unclamped step moves all N weights of each unit whose sign is tau
                moved_weights = np.count_nonzero(new.weights != machine.weights)
                if moved_weights < x.shape[1] * np.count_nonzero(own.sigma == ea.tau):
                    hits.add("clamp")
                moved.append(new)
                learned.append(True)
            else:
                moved.append(machine)
                learned.append(False)
    if seen is not None:
        seen.update(hits)
    return moved, learned


def random_inputs(rng, shape, dtype):
    return (rng.integers(0, 2, size=shape, dtype=np.int32) * 2 - 1).astype(dtype)


def check_lone_round(w, machines, x, geometric, seen):
    """The kernel on a lone stack, one round, against the oracle."""
    before = w.copy()
    learn = np.empty((1, len(w)), dtype=bool)
    differ = np.ones(len(w) - 1, dtype=bool)  # fresh, all set: one round runs either way
    assert _exchange_rounds(w, x[None], machines[0].params.L, learn, geometric, differ=differ) == 1
    machines, learned = oracle_round(machines, x, geometric, seen)
    if learned is None:
        assert not learn.any()
        assert np.array_equal(w, before)
    else:
        assert learn[0].tolist() == learned
    assert np.array_equal(w, np.stack([m.weights for m in machines]))
    return machines, learned is None


def check_batch_round(stack, trials, x, seen):
    """The kernel on a parties-only trial stack, one round, against the
    oracle trial by trial; a trial whose parties disagree learns nothing."""
    learn = np.empty((1,) + stack.shape[:2], dtype=bool)
    differ = np.ones((len(stack), 1), dtype=bool)  # fresh, all set: one round runs either way
    assert _exchange_rounds(stack, x[None], trials[0][0].params.L, learn, differ=differ) == 1
    outcomes = [oracle_round(machines, x[t, 0], False, seen) for t, machines in enumerate(trials)]
    trials = [machines for machines, _ in outcomes]
    learned = [flags for _, flags in outcomes]
    assert learn[0].tolist() == [flags or [False] * len(trials[0]) for flags in learned]
    assert np.array_equal(stack, np.stack([[m.weights for m in machines] for machines in trials]))
    return trials, learned


@pytest.mark.parametrize("geometric", [False, True])
def test_exchange_round_matches_the_oracle_round_by_round(geometric):
    rng = np.random.default_rng(31 + geometric)
    lone_seen, batch_seen = collections.Counter(), collections.Counter()
    silent = all_silent = mixed = 0
    for L in (1, 2, 3):
        params = TpmParams(K=3, N=4, L=L)
        # a lone stack: 7 rows on int32 inputs, as a 5-machine ensemble race
        # passes them where L*N > 32767, and the parties with one Eve on int8
        # inputs, the shape of a geometric race and (less the Eve) of a lone
        # batch trial
        for rows, dtype in ((7, np.int32), (3, np.int8)):
            machines = [Tpm.random(params, rng) for _ in range(rows)]
            w = np.stack([m.weights for m in machines])
            for _ in range(300):
                x = random_inputs(rng, (params.K, params.N), dtype)
                machines, quiet = check_lone_round(w, machines, x, geometric, lone_seen)
                silent += quiet

        # a 3-trial stack of the parties only, each trial with its own int8 input
        trials = [[Tpm.random(params, rng) for _ in range(2)] for _ in range(3)]
        stack = np.stack([[m.weights for m in machines] for machines in trials])
        for _ in range(300):
            x = random_inputs(rng, (3, 1, params.K, params.N), np.int8)
            trials, learned = check_batch_round(stack, trials, x, batch_seen)
            all_silent += all(flags is None for flags in learned)
            mixed += None in learned and not all(flags is None for flags in learned)
    assert silent > 0 and all_silent > 0 and mixed > 0

    # every weight at +L and every input +1 at N=64: each local field is
    # 128, beyond the int8 range of the inputs, and must still count as positive
    params = TpmParams(K=3, N=64, L=2)
    machines = [Tpm(params, np.full((params.K, params.N), params.L)) for _ in range(3)]
    x = np.ones((params.K, params.N), dtype=np.int8)
    check_lone_round(np.stack([m.weights for m in machines]), machines, x, geometric, lone_seen)
    stack = np.stack([[m.weights for m in machines[:2]]] * 2)
    check_batch_round(stack, [machines[:2]] * 2, np.stack([[x]] * 2), batch_seen)

    # a geometric flip or tie, or a row that sits out an agreed round, needs
    # an Eve, and only a lone stack holds Eves; the stack moves by a masked
    # subtract where tau is -1 and a masked add where it is +1, so each
    # sign must meet a row that flips or one that sits out
    if geometric:
        edge_cases = ("zero field", "clamp", "tie", "flip at tau -1", "flip at tau +1")
    else:
        edge_cases = ("zero field", "clamp", "idle row at tau -1", "idle row at tau +1")
    assert all(lone_seen[case] > 0 for case in edge_cases), lone_seen
    assert all(batch_seen[case] > 0 for case in ("zero field", "clamp")), batch_seen


@pytest.mark.parametrize("geometric", [False, True])
def test_a_race_block_stops_right_after_the_round_an_eve_equals_alice(geometric):
    # Bob and a second Eve start at random, and the first Eve is Alice with a
    # tenth of her weights redrawn; on these inputs the reference rule makes
    # that Eve equal Alice on round 22, before Bob or the other Eve do
    params = TpmParams(K=4, N=6, L=2)
    rng = np.random.default_rng(18)
    alice, bob, far = (Tpm.random(params, rng) for _ in range(3))
    start = [alice, bob, seed_initial_overlap(alice, 0.9, 19), far]
    xs = random_inputs(rng, (64, params.K, params.N), np.int8)
    machines = start
    for coincide_at, x in enumerate(xs, 1):
        machines, _ = oracle_round(machines, x, geometric)
        equal = [weight_overlap(machines[0], m) == 1.0 for m in machines[1:]]
        if any(equal):
            break
    assert (coincide_at, equal) == (22, [False, True, False])

    w = np.stack([m.weights for m in start]).astype(np.int32)
    learned = np.zeros((len(xs), len(w)), dtype=bool)
    differ = np.ones(len(w) - 1, dtype=bool)
    assert _exchange_rounds(w, xs, params.L, learned, geometric, differ=differ) == 22
    assert np.array_equal(w, np.stack([m.weights for m in machines]))
    assert differ.tolist() == [True, False, True]


@pytest.mark.parametrize("strategy", ["passive", "geometric"])
def test_run_attack_replays_with_the_reference_operations(strategy):
    # the same race, rebuilt from evaluate/hebbian_step on the input stream
    # run_attack draws, must give the same overlaps and learning counts, both
    # over the whole race and when a shorter budget cuts it at any round
    for seed in range(4):
        alice, bob = fresh_pair(1100 + seed)
        attack = AttackConfig(strategy, iteration_budget=500)
        transcript, result = run_attack(alice, bob, 1200 + seed, attack, record_overlap=True)

        input_seq, eve_seq = np.random.SeedSequence(1200 + seed).spawn(2)
        stream = np.random.PCG64(input_seq)
        inputs = (x for _ in itertools.count() for x in _draw_inputs(stream, (PARAMS.K, PARAMS.N)))
        machines = [alice, bob, Tpm.random(PARAMS, np.random.default_rng(eve_seq))]
        party_steps = [0]  # after each round; the parties learn on every agreed round
        party_trace, eve_trace = [], []
        for _ in range(attack.iteration_budget):
            machines, learned = oracle_round(machines, next(inputs), strategy == "geometric")
            party_steps.append(party_steps[-1] + (learned is not None))
            party_trace.append(weight_overlap(machines[0], machines[1]))
            eve_trace.append(weight_overlap(machines[2], machines[0]))
            if eve_trace[-1] == 1.0:
                break
        assert [v for _, v in transcript.overlap_trace] == party_trace
        assert result.iterations_observed == len(eve_trace)

        # the transcript freezes at the parties' first equal round
        converged_at = party_trace.index(1.0) + 1 if 1.0 in party_trace else len(party_trace)
        for budget in (1, 2, 15, 16, 17, 63, 64, 65, 128, len(eve_trace)):
            short = dataclasses.replace(attack, iteration_budget=budget)
            transcript, result = run_attack(alice, bob, 1200 + seed, short)
            observed = min(budget, len(eve_trace))
            assert result.iterations_observed == observed
            assert result.best_overlap == eve_trace[observed - 1]
            assert transcript.learning_steps == party_steps[min(observed, converged_at)]


@pytest.mark.parametrize("N, dtype", [(16383, np.int16), (16384, np.int32)])
def test_race_stack_dtype_follows_the_sync_rule(monkeypatch, N, dtype):
    # L*N = 32766 fits int16 and 32768 does not: the race's weights and its
    # inputs take sync._stack_dtype, as a sync batch's do
    params = TpmParams(K=1, N=N, L=2)
    assert _stack_dtype(params) is dtype
    seen = []

    def spy(w, xs, *args, **kwargs):
        seen.append((w.dtype, xs.dtype))
        return _exchange_rounds(w, xs, *args, **kwargs)

    monkeypatch.setattr(sync, "_exchange_rounds", spy)
    alice, bob = fresh_pair(41, params)
    run_attack(alice, bob, 42, AttackConfig(iteration_budget=1))
    assert seen and set(seen) == {(np.dtype(dtype), np.dtype(dtype))}
