import json

import numpy as np
import pytest

from neurokey import sync
from neurokey.channel import generate_key_pair
from neurokey.sync import (
    NonConvergenceError,
    SyncConfig,
    SyncTranscript,
    reconcile,
    resolve_iteration_budget,
    seed_initial_overlap,
    synchronize_from_weights,
)
from neurokey.tpm import (
    BitKey,
    Tpm,
    TpmParams,
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
        transcript = synchronize_from_weights(alice, twin, SyncConfig(PARAMS, max_iterations=50, seed=2))
        assert transcript.converged
        assert transcript.iterations == 0
        assert transcript.learning_steps == 0

    def test_identical_start_protocol_mode_takes_one_digest_interval(self):
        alice, _ = fresh_pair(PARAMS, 3)
        twin = alice.copy()
        config = SyncConfig(PARAMS, max_iterations=200, seed=4, protocol_mode=True, digest_check_interval=10)
        transcript = synchronize_from_weights(alice, twin, config)
        assert transcript.converged
        assert transcript.iterations == 10
        assert transcript.digest_exchanges == 1
        assert transcript.disclosed_bits == 64

    def test_converges_and_machines_end_identical(self):
        alice, bob = fresh_pair(PARAMS, 5)
        transcript = synchronize_from_weights(alice, bob, SyncConfig(PARAMS, max_iterations=20_000, seed=6))
        assert transcript.converged
        assert weight_overlap(alice, bob) == 1.0
        assert transcript.learning_steps <= transcript.iterations

    def test_protocol_mode_converges_and_counts_digests(self):
        alice, bob = fresh_pair(PARAMS, 7)
        config = SyncConfig(PARAMS, max_iterations=20_000, seed=8, protocol_mode=True)
        transcript = synchronize_from_weights(alice, bob, config)
        assert transcript.converged
        assert transcript.digest_exchanges >= 1
        assert transcript.iterations % config.digest_check_interval == 0
        assert np.array_equal(alice.weights, bob.weights)

    def test_deterministic_replay(self):
        results = []
        for _ in range(2):
            alice, bob = fresh_pair(PARAMS, 9)
            config = SyncConfig(PARAMS, max_iterations=20_000, seed=10, record_overlap=True)
            results.append(synchronize_from_weights(alice, bob, config).to_record())
        assert results[0] == results[1]

    def test_non_convergence_raises_with_partial_transcript(self):
        alice, bob = fresh_pair(PARAMS, 11)
        bob.weights[...] = np.clip(-alice.weights, -2, 2)
        with pytest.raises(NonConvergenceError) as excinfo:
            synchronize_from_weights(alice, bob, SyncConfig(PARAMS, max_iterations=3, seed=12))
        transcript = excinfo.value.transcript
        assert not transcript.converged
        assert transcript.iterations == 3

    def test_non_convergence_names_an_explicit_budget_and_the_overlap(self):
        alice, bob = fresh_pair(PARAMS, 11)
        with pytest.raises(NonConvergenceError) as excinfo:
            synchronize_from_weights(alice, bob, SyncConfig(PARAMS, max_iterations=3, seed=12))
        overlap = weight_overlap(alice, bob)
        assert "explicit max_iterations=3" in str(excinfo.value)
        assert f"final party overlap {overlap:.4f}" in str(excinfo.value)
        assert excinfo.value.transcript.iterations == 3

    def test_non_convergence_names_a_pilot_budget(self, monkeypatch):
        params = TpmParams(K=3, N=7, L=2)
        monkeypatch.setitem(sync._budget_cache, params, 4)
        alice, bob = fresh_pair(params, 14)
        with pytest.raises(NonConvergenceError) as excinfo:
            synchronize_from_weights(alice, bob, SyncConfig(params, seed=15))
        assert "(pilot budget 4)" in str(excinfo.value)
        assert f"final party overlap {weight_overlap(alice, bob):.4f}" in str(excinfo.value)
        assert excinfo.value.transcript.iterations == 4

    def test_shape_mismatch_rejected(self):
        alice, _ = fresh_pair(PARAMS, 13)
        other = Tpm.random(TpmParams(3, 6, 2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            synchronize_from_weights(alice, other, SyncConfig(PARAMS, max_iterations=5, seed=1))

    def test_loop_matches_public_single_step_operations(self):
        # replay the first iterations manually with evaluate/hebbian_step and
        # the same input stream; the loop must do exactly the same arithmetic
        params = TpmParams(K=3, N=5, L=2)
        alice, bob = fresh_pair(params, 17)
        manual_a, manual_b = alice.copy(), bob.copy()
        config = SyncConfig(params, max_iterations=40, seed=18)
        try:
            synchronize_from_weights(alice, bob, config)
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
            config = SyncConfig(params, max_iterations=20_000, seed=500 + trial, record_overlap=True)
            trace = synchronize_from_weights(alice, bob, config).overlap_trace
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
                a1, b1, SyncConfig(params, max_iterations=100_000, seed=trial)
            ).iterations
            a2, b2 = fresh_pair(params, 1000 + trial, overlap=0.95)
            overlap_total += synchronize_from_weights(
                a2, b2, SyncConfig(params, max_iterations=100_000, seed=trial)
            ).iterations
        assert overlap_total < random_total

    def test_resolve_iteration_budget_cached_and_positive(self):
        params = TpmParams(K=2, N=4, L=1)
        budget = resolve_iteration_budget(params)
        assert budget >= 1000
        assert resolve_iteration_budget(params) == budget


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


class TestReconcile:
    def test_corrects_noisy_keys_bit_identically(self):
        params = TpmParams(K=6, N=10, L=2)
        pair = generate_key_pair(params.key_bits, 0.05, seed=31)
        result_a, result_b = reconcile(
            pair.alice, pair.bob, SyncConfig(params, max_iterations=50_000, seed=32)
        )
        assert result_a.final_key == result_b.final_key
        assert result_a.final_key.length == params.key_bits
        assert result_a.transcript.converged
        assert result_a.leakage.iterations == result_a.transcript.iterations

    def test_records_truncated_bits(self):
        params = TpmParams(K=2, N=3, L=2)  # needs 18 bits
        rng = np.random.default_rng(33)
        key = BitKey.random(25, rng)
        result_a, _ = reconcile(key, key, SyncConfig(params, max_iterations=100, seed=34))
        assert result_a.transcript.truncated_bits == 7

    def test_identical_keys_need_zero_learning(self):
        params = TpmParams(K=3, N=4, L=2)
        key = BitKey.random(params.key_bits, np.random.default_rng(35))
        result_a, result_b = reconcile(key, key, SyncConfig(params, max_iterations=100, seed=36))
        assert result_a.transcript.iterations == 0
        assert result_a.final_key == result_b.final_key


class TestTranscriptRecord:
    def test_round_trip_and_field_order(self):
        transcript = SyncTranscript(
            iterations=12,
            learning_steps=8,
            digest_exchanges=1,
            converged=True,
            overlap_trace=[(1, 0.5), (2, 1.0)],
            truncated_bits=3,
        )
        line = transcript.to_record()
        assert line.index('"iterations"') < line.index('"learning_steps"') < line.index('"converged"')
        assert json.loads(line) == {
            "iterations": 12,
            "learning_steps": 8,
            "digest_exchanges": 1,
            "converged": True,
            "truncated_bits": 3,
            "overlap_trace": [[1, 0.5], [2, 1.0]],
        }
        assert "\n" not in line


# Protocol-mode transcripts, captured with the FNV-1a digest that preceded
# blake2b: (K, N, seed, interval, max_iterations) ->
# (iterations, learning_steps, digest_exchanges, converged).
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
        params,
        max_iterations=budget,
        seed=70 + seed,
        protocol_mode=True,
        digest_check_interval=interval,
    )
    try:
        return synchronize_from_weights(alice, bob, config)
    except NonConvergenceError as err:
        return err.transcript


GOLDEN_PROTOCOL_TRANSCRIPTS = {
    (3, 5, 1, 1, 35): (35, 18, 35, False),
    (3, 5, 1, 1, 20000): (77, 47, 77, True),
    (3, 5, 1, 10, 35): (35, 18, 3, False),
    (3, 5, 1, 10, 20000): (80, 50, 8, True),
    (3, 5, 1, 100, 35): (35, 18, 0, False),
    (3, 5, 1, 100, 20000): (100, 70, 1, True),
    (3, 5, 2, 1, 35): (35, 21, 35, False),
    (3, 5, 2, 1, 20000): (47, 29, 47, True),
    (3, 5, 2, 10, 35): (35, 21, 3, False),
    (3, 5, 2, 10, 20000): (50, 32, 5, True),
    (3, 5, 2, 100, 35): (35, 21, 0, False),
    (3, 5, 2, 100, 20000): (100, 82, 1, True),
    (4, 6, 1, 1, 35): (35, 17, 35, False),
    (4, 6, 1, 1, 20000): (173, 100, 173, True),
    (4, 6, 1, 10, 35): (35, 17, 3, False),
    (4, 6, 1, 10, 20000): (180, 107, 18, True),
    (4, 6, 1, 100, 35): (35, 17, 0, False),
    (4, 6, 1, 100, 20000): (200, 127, 2, True),
    (4, 6, 2, 1, 35): (35, 17, 35, False),
    (4, 6, 2, 1, 20000): (113, 66, 113, True),
    (4, 6, 2, 10, 35): (35, 17, 3, False),
    (4, 6, 2, 10, 20000): (120, 73, 12, True),
    (4, 6, 2, 100, 35): (35, 17, 0, False),
    (4, 6, 2, 100, 20000): (200, 153, 2, True),
    (6, 8, 1, 1, 35): (35, 17, 35, False),
    (6, 8, 1, 1, 20000): (108, 67, 108, True),
    (6, 8, 1, 10, 35): (35, 17, 3, False),
    (6, 8, 1, 10, 20000): (110, 69, 11, True),
    (6, 8, 1, 100, 35): (35, 17, 0, False),
    (6, 8, 1, 100, 20000): (200, 159, 2, True),
    (6, 8, 2, 1, 35): (35, 20, 35, False),
    (6, 8, 2, 1, 20000): (212, 131, 212, True),
    (6, 8, 2, 10, 35): (35, 20, 3, False),
    (6, 8, 2, 10, 20000): (220, 139, 22, True),
    (6, 8, 2, 100, 35): (35, 20, 0, False),
    (6, 8, 2, 100, 20000): (300, 219, 3, True),
}


@pytest.mark.parametrize("case", PROTOCOL_CASES, ids=lambda case: "-".join(map(str, case)))
def test_protocol_transcripts_are_pinned(case):
    transcript = protocol_transcript(*case)
    expected = SyncTranscript(*GOLDEN_PROTOCOL_TRANSCRIPTS[case])
    assert transcript.to_record() == expected.to_record()
