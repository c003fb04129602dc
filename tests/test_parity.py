import hashlib
import heapq
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neurokey import parity
from neurokey.channel import NoisyKeyPair, estimate_qber, generate_key_pair
from neurokey.parity import (
    ParityConfig,
    ParityOutcome,
    block_size_for,
    run_parity_reconciliation,
)
from neurokey.tpm import BitKey


def reference_reconciliation(pair: NoisyKeyPair, config: ParityConfig) -> ParityOutcome:
    """The dense engine the sparse one replaced, kept as its oracle.

    It works on the whole difference vector alice ^ bob: one reduceat per
    pass gives every block's parity, a per-pass lookup maps each position to
    its block, and each binary search reads a prefix XOR over the block.
    """
    alice = pair.alice.bits
    diff = alice ^ pair.bob.bits
    n = pair.length
    rng = np.random.default_rng(config.seed)
    cascade = config.algorithm == "cascade"
    base_size = block_size_for(config.qber_hint)

    checks = 0
    flips: list[int] = []
    orders: list[np.ndarray] = []
    sizes: list[int] = []
    position_block: list[list[int]] = []
    odd: list[list[int]] = []

    def block_length(q: int, index: int) -> int:
        return min(sizes[q], n - index * sizes[q])

    def locate(block: np.ndarray) -> tuple[int, int]:
        prefix = [0, *np.bitwise_xor.accumulate(diff[block]).tolist()]
        lo, hi = 0, len(block)
        spent = 0
        while hi - lo > 1:
            mid = lo + (hi - lo + 1) // 2
            spent += 1
            if prefix[mid] != prefix[lo]:
                hi = mid
            else:
                lo = mid
        return int(block[lo]), spent

    for p in range(config.passes if n else 0):
        size = min(n, base_size << p)
        order = np.arange(n) if p == 0 else rng.permutation(n)
        orders.append(order)
        sizes.append(size)
        lookup = np.empty(n, dtype=np.int64)
        lookup[order] = np.arange(n) // size
        position_block.append(lookup.tolist())
        parities = np.bitwise_xor.reduceat(diff[order], np.arange(0, n, size))
        odd.append(parities.tolist())
        checks += len(parities)

        pending = [
            (block_length(p, index), tie, p, index)
            for tie, index in enumerate(np.flatnonzero(parities).tolist())
        ]
        heapq.heapify(pending)
        if not pending:
            break
        tie = len(pending)
        while pending:
            _, _, q, index = heapq.heappop(pending)
            if not odd[q][index]:
                continue
            start = index * sizes[q]
            position, spent = locate(orders[q][start : start + sizes[q]])
            checks += spent
            diff[position] ^= 1
            flips.append(position)
            for q2 in range(len(orders)):
                index2 = position_block[q2][position]
                odd[q2][index2] ^= 1
                if odd[q2][index2] and (cascade or q2 == p):
                    heapq.heappush(pending, (block_length(q2, index2), tie, q2, index2))
                    tie += 1

    return ParityOutcome(
        corrected_alice=pair.alice,
        corrected_bob=BitKey(alice ^ diff),
        parity_checks=checks,
        disclosed_bits=checks,
        residual_errors=int(diff.sum()),
        flipped_positions=flips,
    )


def assert_same_outcome(outcome: ParityOutcome, expected: ParityOutcome) -> None:
    assert outcome.parity_checks == expected.parity_checks
    assert outcome.disclosed_bits == expected.disclosed_bits
    assert outcome.flipped_positions == expected.flipped_positions
    assert outcome.corrected_bob == expected.corrected_bob
    assert outcome.corrected_alice == expected.corrected_alice
    assert outcome.residual_errors == expected.residual_errors


def pair_with_errors(length: int, positions: list[int]) -> NoisyKeyPair:
    alice = np.random.default_rng(length).integers(0, 2, size=length, dtype=np.uint8)
    bob = alice.copy()
    bob[positions] ^= 1
    return NoisyKeyPair(BitKey(alice), BitKey(bob), frozenset(positions), 0.5)


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
GOLDEN_LENGTHS = (1, 2, 7, 500, 600, 2048, 4096, 16384, 100000)
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
    "bbbss-100000": "312e8c95b82bb21c",
    "cascade-1": "7a6fa5048721ed87",
    "cascade-2": "1691f1dd76259a15",
    "cascade-7": "8129fc7f3279add0",
    "cascade-500": "ba05bdd2c84de7ea",
    "cascade-600": "90247efa3e9c8762",
    "cascade-2048": "0337f39031d3ab0e",
    "cascade-4096": "68fa10136387733b",
    "cascade-16384": "47b57934ce87a46c",
    "cascade-100000": "af97c65d92795407",
}


@pytest.mark.parametrize("algorithm", ["bbbss", "cascade"])
@pytest.mark.parametrize("length", GOLDEN_LENGTHS)
def test_parity_engine_matches_golden_digest(algorithm, length):
    assert parity_digest(algorithm, length) == GOLDEN_PARITY_DIGESTS[f"{algorithm}-{length}"]


@settings(max_examples=400)
@given(st.data())
def test_sparse_engine_matches_the_dense_reference(data):
    # lengths 0-3000, block sizes from 1 to beyond the key (so a short last
    # block, odd or even, comes up often), uniform and burst errors, 1-5 passes
    length = data.draw(st.integers(0, 3000), label="length")
    block = data.draw(st.integers(1, length + 3), label="block")
    rate = data.draw(st.floats(0.0, 0.5), label="rate")
    mode = data.draw(st.sampled_from(["uniform", "burst"]), label="mode")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    config = ParityConfig(
        qber_hint=0.73 / block,
        passes=data.draw(st.integers(1, 5), label="passes"),
        seed=seed,
        algorithm=data.draw(st.sampled_from(parity.ALGORITHMS), label="algorithm"),
    )
    assert block_size_for(config.qber_hint) == block
    if length:
        pair = generate_key_pair(length, rate, seed=seed, error_mode=mode)
    else:
        pair = pair_with_errors(0, [])
    assert_same_outcome(run_parity_reconciliation(pair, config), reference_reconciliation(pair, config))


@pytest.fixture(scope="module")
def sampled_long_pairs():
    # 16384 bits at 3%, less a 10% estimation sample: the 14746 bits that the
    # benchmark's long-block path hands to Cascade
    pairs = {}
    for mode in ("uniform", "burst"):
        estimate = estimate_qber(generate_key_pair(16384, 0.03, seed=7, error_mode=mode), 0.1, seed=8)
        alice, bob = estimate.remaining_alice, estimate.remaining_bob
        errors = frozenset(np.flatnonzero(alice.bits != bob.bits).tolist())
        pairs[mode] = NoisyKeyPair(alice, bob, errors, 0.03)
    return pairs


@pytest.mark.parametrize("mode", ["uniform", "burst"])
@pytest.mark.parametrize("algorithm", parity.ALGORITHMS)
@pytest.mark.parametrize("hint,block", [(0.03, 24), (0.02, 37), (0.0049, 149)])
def test_sparse_engine_matches_the_dense_reference_on_sampled_long_keys(
    sampled_long_pairs, mode, algorithm, hint, block
):
    # hints from an estimate, not the true rate: a low one makes long blocks
    # that each hold several errors
    pair = sampled_long_pairs[mode]
    assert pair.length == 14746
    config = ParityConfig(qber_hint=hint, passes=4, seed=3, algorithm=algorithm)
    assert block_size_for(hint) == block
    outcome = run_parity_reconciliation(pair, config)
    assert_same_outcome(outcome, reference_reconciliation(pair, config))
    assert outcome.flipped_positions


# 1000 bits in blocks of 24 leave a last block of 16 bits. MANY_ODD puts one
# error in each of blocks 0-29, two more in block 10 and one in the last
# block: 31 odd blocks. FEW_ODD makes three odd blocks.
MANY_ODD = [24 * b + 5 for b in range(30)] + [24 * 10 + 7, 24 * 10 + 20, 24 * 41 + 9]
FEW_ODD = [5, 24 * 2 + 3, 24 * 41 + 9]


@pytest.mark.parametrize("algorithm", parity.ALGORITHMS)
@pytest.mark.parametrize("passes", [1, 4])
@pytest.mark.parametrize("positions", [MANY_ODD, FEW_ODD], ids=["many-odd", "few-odd"])
def test_short_odd_last_block_is_searched_first(algorithm, passes, positions):
    pair = pair_with_errors(1000, positions)
    config = ParityConfig(qber_hint=0.73 / 24, passes=passes, seed=11, algorithm=algorithm)
    outcome = run_parity_reconciliation(pair, config)
    assert_same_outcome(outcome, reference_reconciliation(pair, config))
    assert outcome.flipped_positions[0] == 24 * 41 + 9
