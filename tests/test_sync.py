import dataclasses
import json

import numpy as np
import pytest

from neurokey import sync
from neurokey.channel import generate_key_pair
from neurokey.harness import StartMode, machine_trial_seeds
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


# Pilot budgets of every shape the bundled scenarios (fig2-fig6, table1) and
# the benchmark workloads use, captured from five serial pilot runs.
GOLDEN_BUDGETS = {
    (6, 8): 2384,
    (6, 20): 1538, (6, 21): 2292, (6, 22): 3004, (6, 23): 2898, (6, 24): 2416, (6, 25): 2822,
    (8, 20): 2652, (8, 21): 3200, (8, 22): 3264, (8, 23): 2716, (8, 24): 3284, (8, 25): 4002,
    (10, 20): 4092, (10, 21): 3726, (10, 22): 3800, (10, 23): 4728, (10, 24): 4162, (10, 25): 3576,
    (6, 30): 3190, (8, 30): 4336, (10, 30): 4768, (12, 30): 4850,
    (6, 50): 2848, (8, 50): 3156, (10, 50): 4686, (12, 50): 6416,
}


def test_pilot_budgets_are_pinned(monkeypatch):
    monkeypatch.setattr(sync, "_budget_cache", {})
    budgets = {
        shape: resolve_iteration_budget(TpmParams(*shape, L=2)) for shape in GOLDEN_BUDGETS
    }
    assert budgets == GOLDEN_BUDGETS


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
        key_a, key_b, transcript = reconcile(
            pair.alice, pair.bob, SyncConfig(params, max_iterations=50_000, seed=32)
        )
        assert key_a == key_b
        assert key_a.length == params.key_bits
        assert transcript.converged

    def test_records_truncated_bits(self):
        params = TpmParams(K=2, N=3, L=2)  # needs 18 bits
        rng = np.random.default_rng(33)
        key = BitKey.random(25, rng)
        *_, transcript = reconcile(key, key, SyncConfig(params, max_iterations=100, seed=34))
        assert transcript.truncated_bits == 7

    def test_identical_keys_need_zero_learning(self):
        params = TpmParams(K=3, N=4, L=2)
        key = BitKey.random(params.key_bits, np.random.default_rng(35))
        key_a, key_b, transcript = reconcile(key, key, SyncConfig(params, max_iterations=100, seed=36))
        assert transcript.iterations == 0
        assert key_a == key_b


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


# Lockstep batches against the batch of one. At K=4, N=6 and a 120-round
# budget the matrix holds batches whose trials all converge, batches where
# some retire at the budget while others converged earlier, and batches that
# compact their stack down to a lone trial.
BATCH_PARAMS = TpmParams(K=4, N=6, L=2)
BATCH_BUDGET = 120


def batch_trials(start, count, protocol, interval, record):
    mode = StartMode.parse(start)
    seeds = [machine_trial_seeds(90, 0, BATCH_PARAMS, trial) for trial in range(count)]
    config = SyncConfig(
        BATCH_PARAMS,
        max_iterations=BATCH_BUDGET,
        protocol_mode=protocol,
        digest_check_interval=interval,
        record_overlap=record,
    )
    return mode, seeds, config


@pytest.mark.parametrize("record", [False, True], ids=["notrace", "trace"])
@pytest.mark.parametrize(
    "protocol, interval", [(False, 10), (True, 1), (True, 10), (True, 100)],
    ids=["simulation", "protocol1", "protocol10", "protocol100"],
)
@pytest.mark.parametrize("count", [1, 2, 3, 7])
@pytest.mark.parametrize("start", ["random", "overlap:0.95", "from_qber:0.05"])
def test_batch_matches_the_batch_of_one(start, count, protocol, interval, record):
    mode, seeds, config = batch_trials(start, count, protocol, interval, record)
    pairs = [mode.machines(BATCH_PARAMS, init_seed, aux_seed) for init_seed, aux_seed, _ in seeds]
    transcripts = synchronize_batch(pairs, config, [sync_seed for *_, sync_seed in seeds])
    assert len(transcripts) == count
    for (alice, bob), transcript, (init_seed, aux_seed, sync_seed) in zip(pairs, transcripts, seeds):
        alone_a, alone_b = mode.machines(BATCH_PARAMS, init_seed, aux_seed)
        try:
            alone = synchronize_from_weights(alone_a, alone_b, dataclasses.replace(config, seed=sync_seed))
        except NonConvergenceError as err:
            alone = err.transcript
            assert not transcript.converged and transcript.iterations == BATCH_BUDGET
        assert transcript.to_record() == alone.to_record()
        assert (transcript.overlap_trace is not None) == record
        assert np.array_equal(alice.weights, alone_a.weights)
        assert np.array_equal(bob.weights, alone_b.weights)


def test_batch_retires_trials_mid_batch_and_at_the_budget():
    # random starts: two of seven converge, five reach the budget
    mode, seeds, config = batch_trials("random", 7, False, 10, False)
    pairs = [mode.machines(BATCH_PARAMS, init_seed, aux_seed) for init_seed, aux_seed, _ in seeds]
    transcripts = synchronize_batch(pairs, config, [sync_seed for *_, sync_seed in seeds])
    converged = [t.iterations for t in transcripts if t.converged]
    capped = [t.iterations for t in transcripts if not t.converged]
    assert converged and capped
    assert max(converged) < BATCH_BUDGET and set(capped) == {BATCH_BUDGET}
    for (alice, bob), transcript in zip(pairs, transcripts):
        assert np.array_equal(alice.weights, bob.weights) == transcript.converged


def test_batch_needs_one_seed_per_pair():
    mode, seeds, config = batch_trials("random", 2, False, 10, False)
    pairs = [mode.machines(BATCH_PARAMS, init_seed, aux_seed) for init_seed, aux_seed, _ in seeds]
    sync_seeds = [sync_seed for *_, sync_seed in seeds]
    for bad_seeds in (sync_seeds[:1], sync_seeds * 2):
        with pytest.raises(ValueError, match="one seed per machine pair"):
            synchronize_batch(pairs, config, bad_seeds)
    with pytest.raises(ValueError, match="at least one pair"):
        synchronize_batch([], config, [])


def test_input_stream_does_not_depend_on_the_chunk_size(monkeypatch):
    # a seeded generator yields the same +/-1 inputs whether they are drawn in
    # chunks of 64, 64, 1 and 127 or in one chunk of 256
    shape = (5, 7)
    chunks = []
    rng = np.random.default_rng(41)
    for size in (64, 64, 1, 127):
        monkeypatch.setattr(sync, "_INPUT_CHUNK", size)
        chunks.append(sync._draw_inputs(rng, shape))
    monkeypatch.setattr(sync, "_INPUT_CHUNK", 256)
    whole = sync._draw_inputs(np.random.default_rng(41), shape)
    assert whole.shape == (256,) + shape
    assert np.array_equal(np.concatenate(chunks), whole)
