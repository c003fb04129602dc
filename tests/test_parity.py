import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from neurokey.channel import NoisyKeyPair, generate_key_pair
from neurokey.parity import ParityConfig, block_size_for, run_parity_reconciliation
from neurokey.tpm import BitKey


class TestBlockSize:
    @pytest.mark.parametrize("qber,expected", [(0.05, 15), (0.03, 24), (0.73, 1), (0.01, 73)])
    def test_examples(self, qber, expected):
        assert block_size_for(qber) == expected

    def test_rejects_nonpositive(self):
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError):
                block_size_for(bad)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParityConfig(qber_hint=0.0)
        with pytest.raises(ValueError):
            ParityConfig(qber_hint=0.05, passes=0)
        with pytest.raises(ValueError):
            ParityConfig(qber_hint=0.05, algorithm="winnow")


@given(st.integers(2, 64), st.integers(0, 2**32 - 1))
def test_parity_mismatch_iff_odd_errors(block_len, seed):
    # one BBBSS pass at block size block_len searches a block, and flips one
    # of its errors, exactly when the block's parities mismatch
    rng = np.random.default_rng(seed)
    blocks = int(rng.integers(1, 5))
    alice = rng.integers(0, 2, size=blocks * block_len, dtype=np.uint8)
    bob = alice.copy()
    errors = rng.integers(0, block_len + 1, size=blocks)
    for block, count in enumerate(errors):
        bob[block * block_len + rng.choice(block_len, size=count, replace=False)] ^= 1
    pair = NoisyKeyPair(
        BitKey(alice), BitKey(bob), frozenset(np.flatnonzero(alice != bob).tolist()), 0.5
    )
    config = ParityConfig(qber_hint=0.73 / block_len, passes=1, algorithm="bbbss")
    assert block_size_for(config.qber_hint) == block_len
    flips = run_parity_reconciliation(pair, config).flipped_positions
    searched = [position // block_len for position in flips]
    assert searched == sorted(set(searched))
    assert set(searched) == {block for block, count in enumerate(errors) if count % 2 == 1}


class TestRunParity:
    def test_zero_error_pair_costs_one_check_per_block(self):
        pair = generate_key_pair(500, 0.0, seed=1)
        for algorithm in ("bbbss", "cascade"):
            outcome = run_parity_reconciliation(
                pair, ParityConfig(qber_hint=0.05, seed=2, algorithm=algorithm)
            )
            # 500 bits with block size 15 -> 34 blocks, then early exit
            assert outcome.parity_checks == 34
            assert outcome.residual_errors == 0
            assert outcome.flipped_positions == []

    @pytest.mark.parametrize("algorithm", ["bbbss", "cascade"])
    def test_flips_are_genuine_and_unique(self, algorithm):
        for trial in range(25):
            pair = generate_key_pair(400, 0.06, seed=100 + trial)
            outcome = run_parity_reconciliation(
                pair, ParityConfig(qber_hint=0.06, seed=trial, algorithm=algorithm)
            )
            flips = outcome.flipped_positions
            assert len(flips) == len(set(flips))
            assert set(flips) <= set(pair.true_error_positions)
            assert outcome.residual_errors == len(pair.true_error_positions) - len(flips)

    @pytest.mark.parametrize("algorithm", ["bbbss", "cascade"])
    def test_disclosed_equals_checks_and_alice_untouched(self, algorithm):
        pair = generate_key_pair(300, 0.05, seed=9)
        outcome = run_parity_reconciliation(
            pair, ParityConfig(qber_hint=0.05, seed=10, algorithm=algorithm)
        )
        assert outcome.disclosed_bits == outcome.parity_checks
        assert outcome.corrected_alice == pair.alice
        assert outcome.parity_checks >= 20  # at least one check per pass-1 block

    def test_corrected_bob_matches_alice_when_no_residual(self):
        done = 0
        for trial in range(20):
            pair = generate_key_pair(400, 0.04, seed=200 + trial)
            outcome = run_parity_reconciliation(
                pair, ParityConfig(qber_hint=0.04, seed=trial, algorithm="cascade")
            )
            if outcome.residual_errors == 0:
                assert outcome.corrected_bob == pair.alice
                done += 1
        assert done > 0

    def test_single_pass_even_errors_survive_and_are_reported(self):
        # two errors in one block of size 2, one pass: parity matches, early
        # exit, residual reported
        alice = BitKey.from_string("0000")
        bob = BitKey.from_string("1100")
        pair = NoisyKeyPair(alice, bob, frozenset({0, 1}), 0.5)
        outcome = run_parity_reconciliation(
            pair, ParityConfig(qber_hint=0.4, passes=1, seed=0, algorithm="bbbss")
        )
        assert block_size_for(0.4) == 2
        assert outcome.parity_checks == 2
        assert outcome.residual_errors == 2
        assert outcome.flipped_positions == []

    @pytest.mark.parametrize("algorithm", ["bbbss", "cascade"])
    @pytest.mark.parametrize(
        "alice,bob,checks,flips,residual",
        [("", "", 0, [], 0), ("0", "1", 2, [0], 0), ("00", "11", 1, [], 2)],
        ids=["empty", "one-bit", "two-bits"],
    )
    def test_keys_of_zero_one_and_two_bits(self, algorithm, alice, bob, checks, flips, residual):
        # an empty key runs no pass; one bit is a single block, searched for
        # free and then confirmed by pass 2; two errors in one block go unseen
        pair = NoisyKeyPair(
            BitKey.from_string(alice),
            BitKey.from_string(bob),
            frozenset(i for i, (a, b) in enumerate(zip(alice, bob)) if a != b),
            0.5,
        )
        outcome = run_parity_reconciliation(
            pair, ParityConfig(qber_hint=0.05, seed=3, algorithm=algorithm)
        )
        assert outcome.parity_checks == outcome.disclosed_bits == checks
        assert outcome.flipped_positions == flips
        assert outcome.residual_errors == residual
        assert outcome.corrected_bob.length == len(alice)

    def test_block_size_one_corrects_everything_in_pass_one(self):
        pair = generate_key_pair(32, 0.3, seed=77)
        outcome = run_parity_reconciliation(
            pair, ParityConfig(qber_hint=0.73, passes=1, seed=0, algorithm="bbbss")
        )
        assert outcome.residual_errors == 0
        assert outcome.parity_checks == 32

    def test_cascade_cheaper_than_bbbss_on_average(self):
        totals = {"bbbss": 0, "cascade": 0}
        trials = 500
        for trial in range(trials):
            pair = generate_key_pair(500, 0.05, seed=3000 + trial)
            for algorithm in totals:
                outcome = run_parity_reconciliation(
                    pair, ParityConfig(qber_hint=0.05, seed=trial, algorithm=algorithm)
                )
                totals[algorithm] += outcome.parity_checks
        assert totals["cascade"] < totals["bbbss"]

    def test_cascade_leaves_fewer_residuals(self):
        residuals = {"bbbss": 0, "cascade": 0}
        for trial in range(120):
            pair = generate_key_pair(500, 0.05, seed=5000 + trial)
            for algorithm in residuals:
                outcome = run_parity_reconciliation(
                    pair, ParityConfig(qber_hint=0.05, seed=trial, algorithm=algorithm)
                )
                residuals[algorithm] += outcome.residual_errors
        assert residuals["cascade"] < residuals["bbbss"]

    def test_deterministic_under_seed(self):
        pair = generate_key_pair(500, 0.05, seed=8)
        first = run_parity_reconciliation(pair, ParityConfig(qber_hint=0.05, seed=4, algorithm="cascade"))
        second = run_parity_reconciliation(pair, ParityConfig(qber_hint=0.05, seed=4, algorithm="cascade"))
        assert first.parity_checks == second.parity_checks
        assert first.flipped_positions == second.flipped_positions


# The parity engine pinned over key lengths, error rates, error modes and
# pass counts; each digest covers one (algorithm, length) and hashes, per run,
# the check count, the flipped positions in order and Bob's corrected bits.
GOLDEN_LENGTHS = (1, 2, 7, 500, 600, 2048, 4096, 16384)
GOLDEN_QBERS = (0.02, 0.03, 0.05)


def parity_digest(algorithm: str, length: int) -> str:
    digest = hashlib.sha256()
    cases = itertools.product(GOLDEN_QBERS, ("uniform", "burst"), (1, 4))
    for index, (qber, mode, passes) in enumerate(cases):
        pair = generate_key_pair(length, qber, seed=length * 100 + index, error_mode=mode)
        outcome = run_parity_reconciliation(
            pair, ParityConfig(qber_hint=qber, passes=passes, seed=index, algorithm=algorithm)
        )
        digest.update(f"{outcome.parity_checks}:{outcome.flipped_positions}:".encode())
        digest.update(np.packbits(outcome.corrected_bob.bits).tobytes())
    return digest.hexdigest()[:16]


GOLDEN_PARITY_DIGESTS = {
    "bbbss-1": "7a6fa5048721ed87",
    "bbbss-2": "1691f1dd76259a15",
    "bbbss-7": "8129fc7f3279add0",
    "bbbss-500": "fffd1b4379a0ebb4",
    "bbbss-600": "86c3e91b2e4b9113",
    "bbbss-2048": "de138f6d7c8a458f",
    "bbbss-4096": "66854afe8958a2ea",
    "bbbss-16384": "27468a4d6ffb5718",
    "cascade-1": "7a6fa5048721ed87",
    "cascade-2": "1691f1dd76259a15",
    "cascade-7": "8129fc7f3279add0",
    "cascade-500": "ba05bdd2c84de7ea",
    "cascade-600": "90247efa3e9c8762",
    "cascade-2048": "0337f39031d3ab0e",
    "cascade-4096": "68fa10136387733b",
    "cascade-16384": "47b57934ce87a46c",
}


@pytest.mark.parametrize("algorithm", ["bbbss", "cascade"])
@pytest.mark.parametrize("length", GOLDEN_LENGTHS)
def test_parity_engine_matches_golden_digest(algorithm, length):
    assert parity_digest(algorithm, length) == GOLDEN_PARITY_DIGESTS[f"{algorithm}-{length}"]
