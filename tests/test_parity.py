import numpy as np
import pytest
from hypothesis import given, strategies as st

from neurokey.channel import generate_key_pair
from neurokey.parity import (
    ParityConfig,
    block_parity,
    block_size_for,
    run_parity_reconciliation,
)


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
    rng = np.random.default_rng(seed)
    alice = rng.integers(0, 2, size=block_len, dtype=np.uint8)
    bob = alice.copy()
    errors = rng.integers(0, block_len + 1)
    positions = rng.choice(block_len, size=errors, replace=False)
    bob[positions] ^= 1
    block = np.arange(block_len)
    mismatch = block_parity(alice, block) != block_parity(bob, block)
    assert mismatch == (errors % 2 == 1)


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
        from neurokey.channel import NoisyKeyPair
        from neurokey.tpm import BitKey

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
