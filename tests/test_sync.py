import dataclasses
import json
import re

import numpy as np
import pytest

from neurokey import sync
from neurokey.channel import generate_key_pair
from neurokey.cli import build_parser
from neurokey.harness import StartMode, load_scenario, machine_trial_seeds
from neurokey.sync import (
    NonConvergenceError,
    SyncConfig,
    SyncTranscript,
    reconcile,
    resolve_iteration_budget,
    seed_initial_overlap,
    synchronize_batch,
    synchronize_from_weights,
)
from neurokey.tpm import (
    BitKey,
    Tpm,
    TpmParams,
    bits_to_weights,
    evaluate,
    hebbian_step,
    weight_overlap,
)

PARAMS = TpmParams(K=4, N=6, L=2)


def fresh_pair(params, seed, overlap=None):
    rng = np.random.default_rng(seed)
    alice = Tpm.random(params, rng)
    if overlap is None:
        bob = Tpm.random(params, rng)
    else:
        bob = seed_initial_overlap(alice, overlap, seed=seed + 1)
    return alice, bob


class TestSynchronize:
    def test_identical_start_simulation_mode(self):
        alice, _ = fresh_pair(PARAMS, 1)
        twin = alice.copy()
        transcript = synchronize_from_weights(alice, twin, SyncConfig(max_iterations=50), 2)
        assert transcript.converged
        assert transcript.iterations == 0
        assert transcript.learning_steps == 0

    def test_identical_start_protocol_mode_takes_one_digest_interval(self):
        alice, _ = fresh_pair(PARAMS, 3)
        twin = alice.copy()
        config = SyncConfig(max_iterations=200, protocol_mode=True, digest_check_interval=10)
        transcript = synchronize_from_weights(alice, twin, config, 4)
        assert transcript.converged
        assert transcript.iterations == 10
        assert transcript.digest_exchanges == 1
        assert transcript.disclosed_bits == 64

    def test_converges_and_machines_end_identical(self):
        alice, bob = fresh_pair(PARAMS, 5)
        transcript = synchronize_from_weights(alice, bob, SyncConfig(max_iterations=20_000), 6)
        assert transcript.converged
        assert weight_overlap(alice, bob) == 1.0
        assert transcript.learning_steps <= transcript.iterations

    def test_protocol_mode_converges_and_counts_digests(self):
        alice, bob = fresh_pair(PARAMS, 7)
        config = SyncConfig(max_iterations=20_000, protocol_mode=True)
        transcript = synchronize_from_weights(alice, bob, config, 8)
        assert transcript.converged
        assert transcript.digest_exchanges >= 1
        assert transcript.iterations % config.digest_check_interval == 0
        assert np.array_equal(alice.weights, bob.weights)

    def test_protocol_mode_runs_a_block_through_its_digest_rounds(self, monkeypatch):
        # the kernel compares the pair on rounds 10, 20, ..., 60 itself, so an
        # unconverged 64-round session is one call, not one per digest round
        exchange_rounds, calls = sync._exchange_rounds, []

        def spy(w, xs, *args, **kwargs):
            calls.append(len(xs))
            return exchange_rounds(w, xs, *args, **kwargs)

        monkeypatch.setattr(sync, "_exchange_rounds", spy)
        alice, bob = fresh_pair(TpmParams(K=6, N=8, L=2), 16)
        config = SyncConfig(max_iterations=64, protocol_mode=True, digest_check_interval=10)
        [transcript] = synchronize_batch([(alice, bob)], config, [17])
        assert not transcript.converged
        assert (transcript.iterations, transcript.digest_exchanges) == (64, 6)
        assert calls == [64]

    def test_protocol_mode_misses_a_coincidence_after_the_last_digest_round(self):
        # simulation mode finds the pair equal on a round that no digest round
        # reaches within a budget ending short of the next one
        alice, bob = fresh_pair(PARAMS, 7)
        simulated = synchronize_from_weights(alice.copy(), bob.copy(), SyncConfig(max_iterations=20_000), 8)
        coincide_at, interval = simulated.iterations, 7
        assert coincide_at % interval
        budget = coincide_at - coincide_at % interval + interval - 1
        config = SyncConfig(max_iterations=budget, protocol_mode=True, digest_check_interval=interval)
        [transcript] = synchronize_batch([(alice, bob)], config, [8])
        assert not transcript.converged
        assert transcript.iterations == budget
        assert transcript.digest_exchanges == budget // interval
        assert np.array_equal(alice.weights, bob.weights)

    def test_deterministic_replay(self):
        results = []
        for _ in range(2):
            alice, bob = fresh_pair(PARAMS, 9)
            config = SyncConfig(max_iterations=20_000)
            results.append(synchronize_from_weights(alice, bob, config, 10, record_overlap=True).to_record())
        assert results[0] == results[1]

    def test_non_convergence_raises_with_partial_transcript(self):
        alice, bob = fresh_pair(PARAMS, 11)
        bob.weights[...] = np.clip(-alice.weights, -2, 2)
        with pytest.raises(NonConvergenceError) as excinfo:
            synchronize_from_weights(alice, bob, SyncConfig(max_iterations=3), 12)
        transcript = excinfo.value.transcript
        assert not transcript.converged
        assert transcript.iterations == 3

    def test_non_convergence_names_an_explicit_budget_and_the_overlap(self):
        alice, bob = fresh_pair(PARAMS, 11)
        with pytest.raises(NonConvergenceError) as excinfo:
            synchronize_from_weights(alice, bob, SyncConfig(max_iterations=3), 12)
        overlap = weight_overlap(alice, bob)
        assert "explicit max_iterations=3" in str(excinfo.value)
        assert f"final party overlap {overlap:.4f}" in str(excinfo.value)
        assert excinfo.value.transcript.iterations == 3

    def test_non_convergence_names_a_pilot_budget(self, monkeypatch):
        params = TpmParams(K=3, N=7, L=2)
        monkeypatch.setattr(sync, "resolve_iteration_budget", lambda shape: 4)
        alice, bob = fresh_pair(params, 14)
        with pytest.raises(NonConvergenceError) as excinfo:
            synchronize_from_weights(alice, bob, SyncConfig(), 15)
        assert "(pilot budget 4)" in str(excinfo.value)
        assert f"final party overlap {weight_overlap(alice, bob):.4f}" in str(excinfo.value)
        assert excinfo.value.transcript.iterations == 4

    def test_shape_mismatch_rejected(self):
        alice, _ = fresh_pair(PARAMS, 13)
        other = Tpm.random(TpmParams(3, 6, 2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            synchronize_from_weights(alice, other, SyncConfig(max_iterations=5), 1)

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"max_iterations": 0}, "max_iterations must be >= 1"),
            ({"digest_check_interval": 0}, "digest_check_interval must be >= 1"),
            ({"digest_check_interval": 0, "protocol_mode": True}, "digest_check_interval must be >= 1"),
            # simulation mode compares every round, so an interval would be a silent no-op
            ({"digest_check_interval": 7}, "digest_check_interval applies only in protocol mode"),
        ],
    )
    def test_out_of_range_config_values_are_rejected(self, override, message):
        with pytest.raises(ValueError) as info:
            SyncConfig(**override)
        assert str(info.value) == message

    def test_the_digest_interval_defaults_to_ten_in_protocol_mode_only(self):
        assert SyncConfig().digest_check_interval is None
        assert SyncConfig(protocol_mode=True).digest_check_interval == 10
        assert SyncConfig(protocol_mode=True, digest_check_interval=3).digest_check_interval == 3

    def test_batch_rejects_pairs_of_differing_shapes(self):
        # the second pair agrees within itself but not with the first pair
        pairs = [fresh_pair(PARAMS, 13), fresh_pair(TpmParams(3, 6, 2), 14)]
        with pytest.raises(ValueError, match="machine shapes differ: .*K=4.* vs .*K=3"):
            synchronize_batch(pairs, SyncConfig(max_iterations=5), [1, 2])

    def test_loop_matches_public_single_step_operations(self):
        # replay the first iterations manually with evaluate/hebbian_step and
        # the same input stream; the loop must do exactly the same arithmetic
        params = TpmParams(K=3, N=5, L=2)
        alice, bob = fresh_pair(params, 17)
        manual_a, manual_b = alice.copy(), bob.copy()
        config = SyncConfig(max_iterations=40)
        try:
            synchronize_from_weights(alice, bob, config, 18)
        except NonConvergenceError:
            pass
        rng = np.random.default_rng(18)
        inputs = rng.integers(0, 2, size=(256, params.K, params.N), dtype=np.int32) * 2 - 1
        done = 0
        for x in inputs:
            if manual_a == manual_b or done >= 40:
                break
            done += 1
            ea, eb = evaluate(manual_a, x), evaluate(manual_b, x)
            if ea.tau == eb.tau:
                manual_a = hebbian_step(manual_a, x, ea, eb.tau)
                manual_b = hebbian_step(manual_b, x, eb, ea.tau)
        assert np.array_equal(alice.weights, manual_a.weights)
        assert np.array_equal(bob.weights, manual_b.weights)

    def test_overlap_trend_is_upward_on_average(self):
        params = TpmParams(K=4, N=10, L=2)
        firsts, lasts = [], []
        for trial in range(40):
            alice, bob = fresh_pair(params, 100 + trial, overlap=0.8)
            config = SyncConfig(max_iterations=20_000)
            trace = synchronize_from_weights(alice, bob, config, 500 + trial, record_overlap=True).overlap_trace
            values = [v for _, v in trace]
            quarter = max(1, len(values) // 4)
            firsts.append(np.mean(values[:quarter]))
            lasts.append(np.mean(values[-quarter:]))
        assert np.mean(lasts) > np.mean(firsts)

    def test_monotone_difficulty_overlap_beats_random(self):
        params = TpmParams(K=6, N=12, L=2)
        random_total, overlap_total = 0, 0
        for trial in range(60):
            a1, b1 = fresh_pair(params, 1000 + trial)
            random_total += synchronize_from_weights(
                a1, b1, SyncConfig(max_iterations=100_000), trial
            ).iterations
            a2, b2 = fresh_pair(params, 1000 + trial, overlap=0.95)
            overlap_total += synchronize_from_weights(
                a2, b2, SyncConfig(max_iterations=100_000), trial
            ).iterations
        assert overlap_total < random_total

    def test_resolve_iteration_budget_cached_and_positive(self):
        params = TpmParams(K=2, N=4, L=1)
        budget = resolve_iteration_budget(params)
        assert budget >= 1000
        assert resolve_iteration_budget(params) == budget


# Pilot budgets of every shape the bundled scenarios (fig2-fig6, table1), the
# CLI defaults and the benchmark workloads use, all at L=2, captured from five
# serial pilot runs: an independent copy of the table in sync.
GOLDEN_BUDGETS = {
    (6, 8): 2384,
    (6, 20): 1538, (6, 21): 2292, (6, 22): 3004, (6, 23): 2898, (6, 24): 2416, (6, 25): 2822,
    (8, 20): 2652, (8, 21): 3200, (8, 22): 3264, (8, 23): 2716, (8, 24): 3284, (8, 25): 4002,
    (10, 20): 4092, (10, 21): 3726, (10, 22): 3800, (10, 23): 4728, (10, 24): 4162, (10, 25): 3576,
    (6, 30): 3190, (8, 30): 4336, (10, 30): 4768, (12, 30): 4850,
    (6, 50): 2848, (8, 50): 3156, (10, 50): 4686, (12, 50): 6416,
}


def test_pilot_budgets_are_pinned():
    # the uncached pilot function, so every budget is measured afresh
    budgets = {shape: sync._pilot_budget.__wrapped__(TpmParams(*shape, L=2)) for shape in GOLDEN_BUDGETS}
    assert budgets == GOLDEN_BUDGETS
    assert budgets == sync._PINNED_BUDGETS


@pytest.fixture
def no_pilots(monkeypatch):
    """Fail any synchronization, past a pilot cache that an earlier test filled."""

    def refuse(*args, **kwargs):
        raise AssertionError("a synchronization ran")

    monkeypatch.setattr(sync, "synchronize_batch", refuse)
    monkeypatch.setattr(sync, "_pilot_budget", sync._pilot_budget.__wrapped__)


def test_pinned_budgets_run_no_synchronization(no_pilots):
    budgets = {shape: resolve_iteration_budget(TpmParams(*shape, L=2)) for shape in GOLDEN_BUDGETS}
    assert budgets == GOLDEN_BUDGETS


def test_every_shipped_shape_is_pinned(no_pilots):
    shapes = set()
    for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "table1"):
        scenario = load_scenario(name)
        if scenario.kind == "compare":  # the TPM rows run tpm_K x tpm_N
            N_values = [setting.tpm_n for setting in scenario.compare_settings]
        else:
            N_values = scenario.N_values
        shapes |= {(K, N, scenario.L) for K in scenario.K_values for N in N_values}
    for command in ("sync", "pipeline"):
        args = build_parser().parse_args([command])
        shapes.add((args.K, args.N, args.L))
    assert {(K, N) for K, N, L in shapes} == set(GOLDEN_BUDGETS)
    for shape in shapes:
        assert resolve_iteration_budget(TpmParams(*shape)) > 0


def test_other_shapes_run_the_pilots(monkeypatch):
    monkeypatch.setattr(sync, "_pilot_budget", lambda params: 7)
    # a pinned (K, N) at another L, and a shape not in the table
    assert resolve_iteration_budget(TpmParams(K=6, N=8, L=3)) == 7
    assert resolve_iteration_budget(TpmParams(K=7, N=9, L=2)) == 7


class TestSeedInitialOverlap:
    def test_exact_count_and_genuine_differences(self):
        params = TpmParams(K=10, N=25, L=2)
        base = Tpm.random(params, np.random.default_rng(1))
        perturbed = seed_initial_overlap(base, 0.95, seed=2)
        diff = base.weights != perturbed.weights
        assert int(diff.sum()) == 12  # floor(0.05 * 250)
        assert int(np.abs(perturbed.weights).max()) <= params.L

    def test_full_overlap_is_identity(self):
        base = Tpm.random(PARAMS, np.random.default_rng(3))
        assert seed_initial_overlap(base, 1.0, seed=4) == base

    def test_zero_overlap_changes_everything(self):
        base = Tpm.random(PARAMS, np.random.default_rng(5))
        perturbed = seed_initial_overlap(base, 0.0, seed=6)
        assert not (base.weights == perturbed.weights).any()

    def test_no_float_noise_undercount(self):
        params = TpmParams(K=10, N=10, L=2)
        base = Tpm.random(params, np.random.default_rng(7))
        perturbed = seed_initial_overlap(base, 0.9, seed=8)
        assert int((base.weights != perturbed.weights).sum()) == 10

    def test_range_validated(self):
        base = Tpm.random(PARAMS, np.random.default_rng(9))
        with pytest.raises(ValueError):
            seed_initial_overlap(base, 1.5, seed=0)

    def test_overlap_that_changes_no_weight_is_rejected(self):
        # floor((1 - 0.99) * 48) = 0 weights would change: a silent copy
        base = Tpm.random(TpmParams(K=6, N=8, L=2), np.random.default_rng(10))
        with pytest.raises(ValueError, match=r"overlap 0\.99 changes no weight of K\*N = 48"):
            seed_initial_overlap(base, 0.99, seed=0)
        nearest = seed_initial_overlap(base, 47 / 48, seed=0)
        assert int((base.weights != nearest.weights).sum()) == 1


class TestCheckCadence:
    # a digest round at or before the budget's last round may stop a run; a later one cannot, so
    # SyncConfig rejects an explicit budget without one, and synchronize_batch a pilot budget
    @pytest.mark.parametrize(
        "settings, message",
        [
            (dict(max_iterations=100, digest_check_interval=100, protocol_mode=True), None),
            (dict(max_iterations=100, protocol_mode=False), None),
            (dict(digest_check_interval=2384, protocol_mode=True), None),
            (dict(max_iterations=100, digest_check_interval=101, protocol_mode=True),
             "digest interval 101 exceeds the budget (explicit max_iterations=100)"),
            (dict(digest_check_interval=2385, protocol_mode=True),
             "digest interval 2385 exceeds the budget (pilot budget 2384)"),
        ],
        ids=["equal", "simulation", "pilot-equal", "explicit-beyond", "pilot-beyond"],
    )
    def test_a_digest_interval_beyond_the_resolved_budget_is_a_value_error(self, settings, message):
        params = TpmParams(K=6, N=8, L=2)

        def build_and_run_a_pilot_budget():
            config = SyncConfig(**settings)
            if config.max_iterations is None:
                synchronize_batch([fresh_pair(params, 5)], config, [6])

        if message is None:
            build_and_run_a_pilot_budget()
        else:
            with pytest.raises(ValueError) as excinfo:
                build_and_run_a_pilot_budget()
            assert str(excinfo.value) == message

    def test_the_default_interval_beyond_an_explicit_budget_fails_on_construction(self):
        message = "digest interval 10 exceeds the budget (explicit max_iterations=5)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SyncConfig(max_iterations=5, protocol_mode=True)

    @pytest.mark.parametrize(
        "run",
        [
            lambda alice, bob, config: synchronize_batch([(alice, bob)], config, [8]),
            lambda alice, bob, config: synchronize_from_weights(alice, bob, config, 8),
        ],
        ids=["synchronize_batch", "synchronize_from_weights"],
    )
    def test_a_pilot_budget_without_a_digest_round_fails_before_any_input_is_drawn(self, monkeypatch, run):
        monkeypatch.setattr(sync, "_draw_inputs", lambda *args: pytest.fail("an input was drawn"))
        config = SyncConfig(digest_check_interval=5000, protocol_mode=True)
        message = "digest interval 5000 exceeds the budget (pilot budget 2384)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(*fresh_pair(TpmParams(K=6, N=8, L=2), 7), config)


class TestReconcile:
    def test_corrects_noisy_keys_bit_identically(self):
        params = TpmParams(K=6, N=10, L=2)
        pair = generate_key_pair(params.key_bits, 0.05, seed=31)
        key_a, key_b, transcript = reconcile(
            pair.alice, pair.bob, params, SyncConfig(max_iterations=50_000), 32
        )
        assert key_a == key_b
        assert key_a.length == params.key_bits
        assert transcript.converged

    def test_loads_only_the_first_key_bits(self):
        params = TpmParams(K=2, N=3, L=2)  # needs 18 bits
        rng = np.random.default_rng(33)
        key = rng.integers(0, 2, size=25, dtype=np.uint8)
        other = key.copy()
        other[params.key_bits:] ^= 1  # differs only in the 7 bits beyond K*N*b
        key_a, key_b, transcript = reconcile(BitKey(key), BitKey(other), params, SyncConfig(max_iterations=100), 34)
        assert transcript.iterations == 0
        assert key_a == key_b
        assert key_a.length == params.key_bits

    def test_identical_keys_need_zero_learning(self):
        params = TpmParams(K=3, N=4, L=2)
        key = BitKey(np.random.default_rng(35).integers(0, 2, size=params.key_bits, dtype=np.uint8))
        key_a, key_b, transcript = reconcile(key, key, params, SyncConfig(max_iterations=100), 36)
        assert transcript.iterations == 0
        assert key_a == key_b

    def test_non_convergence_carries_the_sessions_partial_transcript(self):
        params = TpmParams(K=10, N=30, L=2)  # keeps 900 of the 3000 bits
        pair = generate_key_pair(3000, 0.03, seed=37)
        config = SyncConfig(max_iterations=1)
        with pytest.raises(NonConvergenceError) as excinfo:
            reconcile(pair.alice, pair.bob, params, config, 38)
        transcript = excinfo.value.transcript
        assert transcript.iterations == 1
        assert transcript.converged is False
        # the session's own record, with nothing written onto it afterwards
        loaded = (bits_to_weights(pair.alice, params), bits_to_weights(pair.bob, params))
        assert transcript == synchronize_batch([loaded], config, [38])[0]


def loaded_and_synced_agreement(base_seed, max_iterations=None):
    """Alice's weight agreement between her loaded and her synchronized
    machine over 100 from_qber:0.03 pairs at K=10, N=30, L=2, the chance
    agreement of the two pooled weight distributions, and whether every pair
    converged."""
    params = TpmParams(10, 30, 2)
    mode = StartMode("from_qber", 0.03)
    seeds = [machine_trial_seeds(base_seed, 0, params, trial) for trial in range(100)]
    pairs = [mode.machines(params, init_seed, aux_seed) for init_seed, aux_seed, _ in seeds]
    loaded = np.stack([alice.weights.copy() for alice, _ in pairs])
    config = SyncConfig(max_iterations=max_iterations)
    transcripts = synchronize_batch(pairs, config, [sync_seed for *_, sync_seed in seeds])
    synced = np.stack([alice.weights for alice, _ in pairs])
    values = np.arange(-params.L, params.L + 1)
    chance = sum(np.mean(loaded == v) * np.mean(synced == v) for v in values)
    return np.mean(loaded == synced), chance, all(t.converged for t in transcripts)


@pytest.mark.parametrize("base_seed", [0, 1, 2])
def test_the_synchronized_key_is_a_fresh_key(base_seed):
    # the loaded keys only shorten the race: the machines meet on weights
    # that agree with Alice's loaded ones no more than chance does, so
    # reconciliation never corrects Bob's key to Alice's (that would read ~1)
    agreement, chance, converged = loaded_and_synced_agreement(base_seed)
    assert converged
    assert abs(agreement - chance) < 0.02
    # five rounds in, the machines still carry much of the loaded keys
    early, chance, _ = loaded_and_synced_agreement(base_seed, max_iterations=5)
    assert early - chance > 0.2


class TestTranscriptRecord:
    def test_round_trip_and_field_order(self):
        transcript = SyncTranscript(
            iterations=12,
            learning_steps=8,
            digest_exchanges=1,
            converged=True,
            overlap_trace=[(1, 0.5), (2, 1.0)],
        )
        line = transcript.to_record()
        assert line.index('"iterations"') < line.index('"learning_steps"') < line.index('"converged"')
        assert json.loads(line) == {
            "iterations": 12,
            "learning_steps": 8,
            "digest_exchanges": 1,
            "converged": True,
            "overlap_trace": [[1, 0.5], [2, 1.0]],
        }
        # the session's five fields, in order
        assert list(json.loads(line)) == ["iterations", "learning_steps", "digest_exchanges", "converged", "overlap_trace"]
        assert "\n" not in line


# Protocol-mode transcripts, captured with the FNV-1a digest that preceded
# blake2b: (K, N, seed, interval, max_iterations) ->
# (iterations, learning_steps, digest_exchanges, converged), or the config
# error of a budget that holds no digest round.
PROTOCOL_SHAPES = ((3, 5), (4, 6), (6, 8))
PROTOCOL_CASES = [
    (K, N, seed, interval, budget)
    for K, N in PROTOCOL_SHAPES
    for seed in (1, 2)
    for interval in (1, 10, 100)
    for budget in (35, 20_000)
]


def protocol_transcript(K, N, seed, interval, budget):
    params = TpmParams(K=K, N=N, L=2)
    alice, bob = fresh_pair(params, 60 + seed)
    config = SyncConfig(
        max_iterations=budget,
        protocol_mode=True,
        digest_check_interval=interval,
    )
    try:
        return synchronize_from_weights(alice, bob, config, 70 + seed)
    except NonConvergenceError as err:
        return err.transcript


GOLDEN_PROTOCOL_TRANSCRIPTS = {
    (3, 5, 1, 1, 35): (35, 18, 35, False),
    (3, 5, 1, 1, 20000): (77, 47, 77, True),
    (3, 5, 1, 10, 35): (35, 18, 3, False),
    (3, 5, 1, 10, 20000): (80, 50, 8, True),
    (3, 5, 1, 100, 35): "digest interval 100 exceeds the budget (explicit max_iterations=35)",
    (3, 5, 1, 100, 20000): (100, 70, 1, True),
    (3, 5, 2, 1, 35): (35, 21, 35, False),
    (3, 5, 2, 1, 20000): (47, 29, 47, True),
    (3, 5, 2, 10, 35): (35, 21, 3, False),
    (3, 5, 2, 10, 20000): (50, 32, 5, True),
    (3, 5, 2, 100, 35): "digest interval 100 exceeds the budget (explicit max_iterations=35)",
    (3, 5, 2, 100, 20000): (100, 82, 1, True),
    (4, 6, 1, 1, 35): (35, 17, 35, False),
    (4, 6, 1, 1, 20000): (173, 100, 173, True),
    (4, 6, 1, 10, 35): (35, 17, 3, False),
    (4, 6, 1, 10, 20000): (180, 107, 18, True),
    (4, 6, 1, 100, 35): "digest interval 100 exceeds the budget (explicit max_iterations=35)",
    (4, 6, 1, 100, 20000): (200, 127, 2, True),
    (4, 6, 2, 1, 35): (35, 17, 35, False),
    (4, 6, 2, 1, 20000): (113, 66, 113, True),
    (4, 6, 2, 10, 35): (35, 17, 3, False),
    (4, 6, 2, 10, 20000): (120, 73, 12, True),
    (4, 6, 2, 100, 35): "digest interval 100 exceeds the budget (explicit max_iterations=35)",
    (4, 6, 2, 100, 20000): (200, 153, 2, True),
    (6, 8, 1, 1, 35): (35, 17, 35, False),
    (6, 8, 1, 1, 20000): (108, 67, 108, True),
    (6, 8, 1, 10, 35): (35, 17, 3, False),
    (6, 8, 1, 10, 20000): (110, 69, 11, True),
    (6, 8, 1, 100, 35): "digest interval 100 exceeds the budget (explicit max_iterations=35)",
    (6, 8, 1, 100, 20000): (200, 159, 2, True),
    (6, 8, 2, 1, 35): (35, 20, 35, False),
    (6, 8, 2, 1, 20000): (212, 131, 212, True),
    (6, 8, 2, 10, 35): (35, 20, 3, False),
    (6, 8, 2, 10, 20000): (220, 139, 22, True),
    (6, 8, 2, 100, 35): "digest interval 100 exceeds the budget (explicit max_iterations=35)",
    (6, 8, 2, 100, 20000): (300, 219, 3, True),
}


@pytest.mark.parametrize("case", PROTOCOL_CASES, ids=lambda case: "-".join(map(str, case)))
def test_protocol_transcripts_are_pinned(case):
    expected = GOLDEN_PROTOCOL_TRANSCRIPTS[case]
    if isinstance(expected, str):  # no digest round inside the budget, so no run could stop
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            protocol_transcript(*case)
        return
    assert protocol_transcript(*case).to_record() == SyncTranscript(*expected).to_record()


# Lockstep batches against the batch of one. At K=4, N=6 and a 120-round
# budget the matrix holds batches whose trials all converge, batches where
# some retire at the budget while others converged earlier, and batches that
# compact their stack down to a lone trial.
BATCH_PARAMS = TpmParams(K=4, N=6, L=2)
BATCH_BUDGET = 120


def batch_trials(start, count, protocol, interval):
    mode = StartMode.parse(start)
    seeds = [machine_trial_seeds(90, 0, BATCH_PARAMS, trial) for trial in range(count)]
    config = SyncConfig(
        max_iterations=BATCH_BUDGET,
        protocol_mode=protocol,
        digest_check_interval=interval,
    )
    return mode, seeds, config


@pytest.mark.parametrize("record", [False, True], ids=["notrace", "trace"])
@pytest.mark.parametrize(
    "protocol, interval", [(False, None), (True, 1), (True, 10), (True, 100)],
    ids=["simulation", "protocol1", "protocol10", "protocol100"],
)
@pytest.mark.parametrize("count", [1, 2, 3, 7])
@pytest.mark.parametrize("start", ["random", "overlap:0.95", "from_qber:0.05"])
def test_batch_matches_the_batch_of_one(monkeypatch, start, count, protocol, interval, record):
    exchange_rounds = sync._exchange_rounds
    silent = []  # per trial-stack round: whether no pair agreed, so nobody learned

    def spy(w, xs, bound, learned, *args, **kwargs):
        rounds = exchange_rounds(w, xs, bound, learned, *args, **kwargs)
        if w.ndim == 4:
            silent.extend(not mask.any() for mask in learned[:rounds])
        return rounds

    monkeypatch.setattr(sync, "_exchange_rounds", spy)
    mode, seeds, config = batch_trials(start, count, protocol, interval)
    pairs = [mode.machines(BATCH_PARAMS, init_seed, aux_seed) for init_seed, aux_seed, _ in seeds]
    transcripts = synchronize_batch(pairs, config, [sync_seed for *_, sync_seed in seeds], record)
    if start == "random" and count in (2, 3):
        # the equalities below cover rounds in which every step is zero (24
        # and 10 of 120 here; at 7 trials some pair agrees in every round)
        assert any(silent)
    assert len(transcripts) == count
    for (alice, bob), transcript, (init_seed, aux_seed, sync_seed) in zip(pairs, transcripts, seeds):
        alone_a, alone_b = mode.machines(BATCH_PARAMS, init_seed, aux_seed)
        try:
            alone = synchronize_from_weights(alone_a, alone_b, config, sync_seed, record)
        except NonConvergenceError as err:
            alone = err.transcript
            assert not transcript.converged and transcript.iterations == BATCH_BUDGET
        assert transcript.to_record() == alone.to_record()
        assert (transcript.overlap_trace is not None) == record
        assert np.array_equal(alice.weights, alone_a.weights)
        assert np.array_equal(bob.weights, alone_b.weights)


def test_batch_retires_trials_mid_batch_and_at_the_budget():
    # random starts: two of seven converge, five reach the budget
    mode, seeds, config = batch_trials("random", 7, False, None)
    pairs = [mode.machines(BATCH_PARAMS, init_seed, aux_seed) for init_seed, aux_seed, _ in seeds]
    transcripts = synchronize_batch(pairs, config, [sync_seed for *_, sync_seed in seeds])
    converged = [t.iterations for t in transcripts if t.converged]
    capped = [t.iterations for t in transcripts if not t.converged]
    assert converged and capped
    assert max(converged) < BATCH_BUDGET and set(capped) == {BATCH_BUDGET}
    for (alice, bob), transcript in zip(pairs, transcripts):
        assert np.array_equal(alice.weights, bob.weights) == transcript.converged


def test_batch_needs_one_seed_per_pair():
    mode, seeds, config = batch_trials("random", 2, False, None)
    pairs = [mode.machines(BATCH_PARAMS, init_seed, aux_seed) for init_seed, aux_seed, _ in seeds]
    sync_seeds = [sync_seed for *_, sync_seed in seeds]
    for bad_seeds in (sync_seeds[:1], sync_seeds * 2):
        with pytest.raises(ValueError, match="one seed per machine pair"):
            synchronize_batch(pairs, config, bad_seeds)
    with pytest.raises(ValueError, match="at least one pair"):
        synchronize_batch([], config, [])


# An untraced batch advances its stack a block of rounds per kernel call and
# stops a simulation block where a pair coincides; a traced batch runs blocks
# of one round. Trial 215 of the random start coincides on round 64, the last
# of the first input chunk, and trial 10 on round 120; each is on the budget
# round of one budget below.
TRACE_TRIALS = {1: [215], 3: [215, 10, 101], 7: [215, 10, 101, 0, 1, 2, 3]}
TRACE_BUDGETS = (1, 15, 16, 17, 63, 64, 65, 120)


@pytest.mark.parametrize(
    "protocol, interval", [(False, None), (True, 1), (True, 7), (True, 10), (True, 100)],
    ids=["simulation", "protocol1", "protocol7", "protocol10", "protocol100"],
)
@pytest.mark.parametrize("start", ["random", "overlap:0.95", "from_qber:0.05"])
def test_untraced_batch_equals_the_traced_batch(start, protocol, interval):
    mode = StartMode.parse(start)
    for count, trials in TRACE_TRIALS.items():
        seeds = [machine_trial_seeds(90, 0, BATCH_PARAMS, trial) for trial in trials]
        for budget in TRACE_BUDGETS:
            if protocol and interval > budget:  # no digest round inside the budget, so no run could stop
                message = f"digest interval {interval} exceeds the budget (explicit max_iterations={budget})"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    SyncConfig(max_iterations=budget, protocol_mode=protocol, digest_check_interval=interval)
                continue
            config = SyncConfig(max_iterations=budget, protocol_mode=protocol, digest_check_interval=interval)
            runs = []
            for record in (False, True):
                pairs = [mode.machines(BATCH_PARAMS, init_seed, aux_seed) for init_seed, aux_seed, _ in seeds]
                transcripts = synchronize_batch(pairs, config, [sync_seed for *_, sync_seed in seeds], record)
                records = [dataclasses.replace(t, overlap_trace=None).to_record() for t in transcripts]
                weights = [(alice.weights.tolist(), bob.weights.tolist()) for alice, bob in pairs]
                runs.append((records, weights))
            assert runs[0] == runs[1], (count, budget)
            if (start, protocol, budget) == ("random", False, 120):
                rounds = {t.iterations for t in transcripts if t.converged}
                assert 64 in rounds and (count == 1 or 120 in rounds)


def test_input_stream_does_not_depend_on_the_chunk_size(monkeypatch):
    # a seeded stream yields the same +/-1 inputs whether they are drawn in
    # chunks of 64, 64, 2 and 126 or in one chunk of 256
    shape = (5, 7)
    chunks = []
    stream = np.random.PCG64(41)
    for size in (64, 64, 2, 126):
        monkeypatch.setattr(sync, "_INPUT_CHUNK", size)
        chunks.append(sync._draw_inputs(stream, shape))
    monkeypatch.setattr(sync, "_INPUT_CHUNK", 256)
    whole = sync._draw_inputs(np.random.PCG64(41), shape)
    assert whole.shape == (256,) + shape
    assert np.array_equal(np.concatenate(chunks), whole)


@pytest.mark.parametrize("shape", [(3, 5), (4, 6)], ids=["odd-KN", "even-KN"])
def test_inputs_equal_the_generators_integers(shape):
    # chunk after chunk, a PCG64 stream's inputs are the +/-1 values that
    # integers draws from a generator of the same seed
    reference, stream = np.random.default_rng(17), np.random.PCG64(17)
    for _ in range(3):
        expected = reference.integers(0, 2, size=(sync._INPUT_CHUNK,) + shape, dtype=np.int32) * 2 - 1
        inputs = sync._draw_inputs(stream, shape)
        assert inputs.dtype == np.int32
        assert np.array_equal(inputs, expected)


def test_input_chunk_reads_whole_pcg64_words():
    assert sync._INPUT_CHUNK % 2 == 0


@pytest.mark.parametrize("N, dtype", [(16383, np.int16), (16384, np.int32)])
def test_local_fields_at_the_stack_dtype_boundary_match_the_oracle(monkeypatch, N, dtype):
    # every weight at +L and every input +1: Alice's one local field is L*N,
    # 32766 on an int16 stack and 32768, beyond int16, on an int32 one; Bob
    # differs in one weight, so one round makes the pair coincide
    params = TpmParams(K=1, N=N, L=2)
    assert sync._stack_dtype(params) is dtype
    monkeypatch.setattr(sync, "_draw_inputs", lambda rng, shape: np.ones((sync._INPUT_CHUNK,) + shape, np.int32))
    alice = Tpm(params, np.full((1, N), params.L))
    bob = Tpm(params, alice.weights.copy())
    bob.weights[0, 0] = params.L - 1
    x = np.ones((1, N), dtype=np.int32)
    ea, eb = evaluate(alice, x), evaluate(bob, x)
    assert ea.tau == eb.tau == 1
    expected = hebbian_step(alice, x, ea, ea.tau), hebbian_step(bob, x, eb, eb.tau)
    [transcript] = synchronize_batch([(alice, bob)], SyncConfig(max_iterations=1), [0])
    assert (transcript.iterations, transcript.learning_steps, transcript.converged) == (1, 1, True)
    assert alice == expected[0] and bob == expected[1]


# ---------------------------------------------------------------------------
# the block kernel: one call over n inputs against n one-round calls


def differ_flags(w):
    """Which rows after its stack's first differ from that first row: Bob and
    every Eve of a lone stack, shaped (1 + E,), or each trial's Bob, (T, 1)."""
    return (w[..., 1:, :, :] != w[..., :1, :, :]).any(axis=(-2, -1))


def one_round_at_a_time(w, xs, bound, geometric, differ, start=0, cadence=1):
    """The learn masks of the rounds of ``xs``, one call each, up to the
    first round whose number after ``start`` is a multiple of ``cadence`` and
    in which a row flagged in ``differ`` comes to equal its stack's first
    row."""
    learned = np.zeros((len(xs),) + w.shape[:-2], dtype=bool)
    for i in range(len(xs)):
        one = sync._exchange_rounds(w, xs[i : i + 1], bound, learned[i : i + 1], geometric, differ=differ_flags(w))
        assert one == 1
        if (start + i + 1) % cadence == 0 and (differ > differ_flags(w)).any():
            return learned[: i + 1]
    return learned


# (stack shape less K and N, geometric): lone stacks of the parties with one
# and with five Eves, then parties-only stacks of T trials
BLOCK_STACKS = [
    ((3,), False), ((3,), True), ((7,), False), ((7,), True), ((2, 2), False), ((3, 2), False), ((7, 2), False)
]


@pytest.mark.parametrize("dtype", [np.int8, np.int32])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_a_block_of_rounds_equals_rounds_one_at_a_time(L, dtype):
    rng = np.random.default_rng(60 + L)
    K, N = 3, 4
    for n in (1, 2, 17, 64):
        for rows, geometric in BLOCK_STACKS:
            w = rng.integers(-L, L + 1, size=rows + (K, N)).astype(np.int32)
            x_shape = (n, K, N) if len(rows) == 1 else (n, rows[0], 1, K, N)
            xs = (rng.integers(0, 2, size=x_shape) * 2 - 1).astype(dtype)
            # every stack runs twice, its differ flags compared once, after
            # the block's last round, then after every round
            for cadence in (n, 1):
                block, rounds, differ = w.copy(), w.copy(), differ_flags(w)
                learned = np.ones((n,) + rows, dtype=bool)  # every round run must be written
                expected = one_round_at_a_time(rounds, xs, L, geometric, differ, cadence=cadence)
                ran = sync._exchange_rounds(block, xs, L, learned, geometric, differ=differ, cadence=cadence)
                assert ran == len(expected)
                assert np.array_equal(learned[: len(expected)], expected)
                assert np.array_equal(block, rounds)
                assert np.array_equal(differ, differ_flags(rounds))


@pytest.mark.parametrize("start, cadence", [(0, 1), (0, 3), (5, 7), (13, 10), (0, 64)])
def test_a_block_compares_its_rows_only_on_rounds_at_its_cadence(start, cadence):
    # in each stack the last row equals the first and the others are one
    # weight away from it, so most come to equal it within the block; the
    # flags are exact on entry or, as before a first digest exchange, all set
    rng = np.random.default_rng(80 + cadence)
    K, N, L, n = 3, 4, 1, 64
    events = 0
    for rows, geometric in BLOCK_STACKS:
        w = np.repeat(rng.integers(-L, L + 1, size=rows[:-1] + (1, K, N)), rows[-1], axis=-3).astype(np.int32)
        w[..., 1:, 0, 0] = np.where(w[..., 1:, 0, 0] == L, -L, L)
        stacks = w.reshape((-1,) + w.shape[-3:])  # a lone stack as a stack of one
        stacks[-1, -1] = stacks[-1, 0]
        x_shape = (n, K, N) if len(rows) == 1 else (n, rows[0], 1, K, N)
        xs = (rng.integers(0, 2, size=x_shape) * 2 - 1).astype(np.int32)
        exact = differ_flags(w)
        for differ in (exact, np.ones_like(exact)) if cadence > 1 else (exact,):
            block, rounds, flags = w.copy(), w.copy(), differ.copy()
            learned = np.ones((n,) + rows, dtype=bool)
            expected = one_round_at_a_time(rounds, xs, L, geometric, differ, start, cadence)
            ran = sync._exchange_rounds(block, xs, L, learned, geometric, differ=flags, start=start, cadence=cadence)
            assert ran == len(expected)
            assert np.array_equal(learned[:ran], expected)
            assert np.array_equal(block, rounds)
            # a row came to equal its stack's first by the last compared round
            events += np.count_nonzero(flags) < np.count_nonzero(exact)
            # the flags stand as of the last compared round, or as on entry
            compared = (start + ran) // cadence * cadence - start
            if compared > 0:
                last = w.copy()
                sync._exchange_rounds(last, xs[:compared], L, learned, geometric, differ=exact.copy(), cadence=compared)
                assert np.array_equal(flags, differ_flags(last))
            else:
                assert np.array_equal(flags, differ)
    assert events


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_the_clamp_equals_minimum_then_maximum(L, dtype):
    # a stepped stack holds every value within one step of [-L, L]; each
    # appears in a lone and in a trial-shaped stack, clamped in place
    lower, upper = np.array(-L, dtype=dtype), np.array(L, dtype=dtype)
    values = np.arange(-L - 1, L + 2)
    rng = np.random.default_rng(70 + L)
    for shape in ((3, 4, 6), (7, 4, 6), (5, 2, 4, 6)):
        w = rng.choice(values, size=shape).astype(dtype)
        w.flat[: len(values)] = values
        expected = np.maximum(np.minimum(w, L), -L)
        out = sync.clamp(w, lower, upper, out=w)
        assert out is w
        assert w.dtype == dtype and np.array_equal(w, expected)


def test_a_block_stops_right_after_the_round_a_pair_coincides():
    # Bob is Alice with a tenth of her weights redrawn; on these inputs the
    # reference rule makes the pair coincide on round 29
    rng = np.random.default_rng(6)
    alice = Tpm.random(BATCH_PARAMS, rng)
    bob = seed_initial_overlap(alice, 0.9, 7)
    xs = (rng.integers(0, 2, size=(64, BATCH_PARAMS.K, BATCH_PARAMS.N), dtype=np.int32) * 2 - 1).astype(np.int8)
    a, b = alice, bob
    for coincide_at, x in enumerate(xs, 1):
        ea, eb = evaluate(a, x), evaluate(b, x)
        if ea.tau == eb.tau:
            a, b = hebbian_step(a, x, ea, ea.tau), hebbian_step(b, x, eb, eb.tau)
        if weight_overlap(a, b) == 1.0:
            break
    assert coincide_at == 29
    L = BATCH_PARAMS.L

    w = np.stack([alice.weights, bob.weights]).astype(np.int32)
    learned = np.zeros((len(xs), 2), dtype=bool)
    differ = np.array([True])
    assert sync._exchange_rounds(w, xs, L, learned, differ=differ) == 29
    assert np.array_equal(w, np.stack([a.weights, b.weights]))
    assert np.array_equal(differ, differ_flags(w))

    # beside a random pair and a pair that is equal from the start, a trial
    # block stops only when fewer pairs differ than were flagged on entry
    far_a, far_b = fresh_pair(BATCH_PARAMS, 11)
    stack = np.stack([[far_a.weights, far_b.weights], [alice.weights, bob.weights], [alice.weights] * 2])
    trial_xs = np.stack([xs] * 3, axis=1)[:, :, None]
    learned = np.zeros((len(xs), 3, 2), dtype=bool)
    for flags, rounds in (((1, 1, 1), 1), ((1, 1, 0), 29), ((1, 0, 0), 64), ((0, 0, 0), 64)):
        w = stack.astype(np.int32)
        differ = np.array(flags, dtype=bool)[:, None]
        assert sync._exchange_rounds(w, trial_xs, L, learned, differ=differ) == rounds
        assert np.array_equal(differ, differ_flags(w))
        if rounds == 29:
            assert np.array_equal(w[1], np.stack([a.weights, b.weights]))
