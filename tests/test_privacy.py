import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import toeplitz

from neurokey.adversary import leakage_after
from neurokey import privacy
from neurokey.channel import DEFAULT_SAMPLE_FRACTION, NoisyKeyPair, estimate_qber, generate_key_pair
from neurokey.harness import run_pipeline
from neurokey.parity import ParityConfig, run_parity_reconciliation
from neurokey.privacy import (
    FftPrecisionError,
    InfeasibleBudgetError,
    ToeplitzSpec,
    amplify,
    plan_budget,
)
from neurokey.tpm import BitKey, TpmParams

NO_LEAKAGE = leakage_after(0, TpmParams(1, 1, 1))


def reference_matrix(spec: ToeplitzSpec) -> np.ndarray:
    """Independent construction via scipy: first column + first row."""
    seq = spec.first_row_and_col
    first_row = seq[: spec.cols]
    first_col = np.concatenate([[seq[0]], seq[spec.cols :]])
    return toeplitz(first_col, first_row)


def diagonal_sequence(spec: ToeplitzSpec) -> np.ndarray:
    seq = spec.first_row_and_col
    return np.concatenate([seq[: spec.cols][::-1], seq[spec.cols :]])


def seeded_case(rows: int, cols: int, seed: int) -> tuple[BitKey, ToeplitzSpec]:
    spec = ToeplitzSpec.from_seed(rows, cols, seed=seed)
    return BitKey(np.random.default_rng(seed + 1).integers(0, 2, size=cols, dtype=np.uint8)), spec


# Either side of the direct/FFT crossover, with rows == 1, cols == 1, rows > cols.
CROSSOVER = privacy._FFT_MIN_PRODUCT
SHAPES_AROUND_CROSSOVER = [
    (1, 1),
    (1, 300),
    (255, 257),
    (256, 256),
    (300, 50),
    (400, 200),
    (1, CROSSOVER),
    (CROSSOVER, 1),
    (600, 900),
]


class TestBudget:
    def test_arithmetic(self):
        budget = plan_budget(1000, leakage_after(0, TpmParams(1, 1, 1)), 100, 50)
        assert budget.eve_known_bits == 100
        assert budget.final_length == 850

    def test_leakage_and_disclosure_both_count(self):
        budget = plan_budget(900, leakage_after(120, TpmParams(10, 25, 2)), 225, 30)
        assert budget.eve_known_bits == 345
        assert budget.final_length == 900 - 345 - 30

    def test_information_bound_natural_log_reading(self):
        budget = plan_budget(1000, NO_LEAKAGE, 100, 10)
        assert budget.information_bound == pytest.approx(2**-10 / math.log(2), rel=1e-12)
        assert budget.information_bound == pytest.approx(1.409e-3, rel=1e-3)

    def test_strict_inequality_enforced(self):
        with pytest.raises(InfeasibleBudgetError):
            plan_budget(1000, NO_LEAKAGE, 100, 900)
        with pytest.raises(InfeasibleBudgetError):
            plan_budget(1000, NO_LEAKAGE, 100, 901)
        budget = plan_budget(1000, NO_LEAKAGE, 100, 899)
        assert budget.final_length == 1

    @pytest.mark.parametrize(
        "length, disclosed, security, message",
        [
            (0, 0, 0, "entropy_bits must be >= 1"),
            (1000, -1, 0, "disclosed_bits must be >= 0"),
            (1000, 0, -1, "security_bits must be >= 0"),
        ],
    )
    def test_out_of_range_inputs_are_rejected(self, length, disclosed, security, message):
        with pytest.raises(ValueError) as info:
            plan_budget(length, NO_LEAKAGE, disclosed, security)
        assert str(info.value) == message

    @given(st.integers(100, 2000), st.integers(0, 50), st.data())
    def test_margin_trades_one_for_one(self, length, disclosed, data):
        headroom = length - disclosed - 2
        if headroom < 1:
            return
        margin = data.draw(st.integers(0, headroom - 1))
        first = plan_budget(length, NO_LEAKAGE, disclosed, margin)
        second = plan_budget(length, NO_LEAKAGE, disclosed, margin + 1)
        assert first.final_length - second.final_length == 1


class TestToeplitzSpec:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            ToeplitzSpec(rows=2, cols=3, first_row_and_col=np.array([1, 0, 1]))

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError, match="rows and cols must be >= 1"):
            ToeplitzSpec(rows=0, cols=3, first_row_and_col=np.array([1, 0]))

    def test_bit_validation(self):
        with pytest.raises(ValueError):
            ToeplitzSpec(rows=2, cols=3, first_row_and_col=np.array([1, 0, 2, 1]))

    def test_from_seed_deterministic(self):
        a = ToeplitzSpec.from_seed(8, 32, seed=5)
        b = ToeplitzSpec.from_seed(8, 32, seed=5)
        assert np.array_equal(a.first_row_and_col, b.first_row_and_col)

    def test_diagonals_constant(self):
        spec = ToeplitzSpec.from_seed(5, 7, seed=11)
        matrix = reference_matrix(spec)
        for i in range(1, 5):
            for j in range(1, 7):
                assert matrix[i, j] == matrix[i - 1, j - 1]

    def test_diagonal_sequence(self):
        spec = ToeplitzSpec.from_seed(5, 7, seed=11)
        assert np.array_equal(spec.diagonals, diagonal_sequence(spec))

    def test_bits_are_read_only_under_the_kept_hash(self):
        spec = ToeplitzSpec.from_seed(300, 400, seed=2)
        with pytest.raises(ValueError, match="read-only"):
            spec.first_row_and_col[0] ^= 1


def five_smooth_up_to(limit: int) -> list[int]:
    exponents = range(limit.bit_length())
    return sorted(
        2**a * 3**b * 5**c
        for a in exponents
        for b in exponents
        for c in exponents
        if 2**a * 3**b * 5**c <= limit
    )


def test_fft_length_is_the_next_five_smooth_integer():
    smooth = five_smooth_up_to(2**18)
    index = 0
    for m in range(1, 2**17 + 1):
        while smooth[index] < m:
            index += 1
        assert privacy._fft_length(m) == smooth[index], m


class TestAmplify:
    def test_frozen_two_by_three_example(self):
        spec = ToeplitzSpec(rows=2, cols=3, first_row_and_col=np.array([1, 0, 1, 1]))
        assert reference_matrix(spec).tolist() == [[1, 0, 1], [1, 1, 0]]
        assert amplify(BitKey.from_string("110"), spec).to01() == "10"

    def test_all_zero_key_maps_to_zero(self):
        spec = ToeplitzSpec.from_seed(8, 32, seed=1)
        assert amplify(BitKey(np.zeros(32, dtype=np.uint8)), spec).to01() == "0" * 8

    def test_length_mismatch(self):
        spec = ToeplitzSpec.from_seed(4, 16, seed=2)
        with pytest.raises(ValueError):
            amplify(BitKey(np.zeros(15, dtype=np.uint8)), spec)

    def test_output_length_is_rows(self):
        for rows, cols in ((1, 1), (3, 17), (16, 64)):
            spec = ToeplitzSpec.from_seed(rows, cols, seed=rows * 100 + cols)
            rng = np.random.default_rng(7)
            assert amplify(BitKey(rng.integers(0, 2, size=cols, dtype=np.uint8)), spec).length == rows

    @given(st.integers(1, 24), st.integers(1, 48), st.integers(0, 2**32 - 1))
    @settings(max_examples=80)
    def test_matches_reference_matrix_multiply(self, rows, cols, seed):
        spec = ToeplitzSpec.from_seed(rows, cols, seed=seed)
        rng = np.random.default_rng(seed + 1)
        key = BitKey(rng.integers(0, 2, size=cols, dtype=np.uint8))
        expected = reference_matrix(spec).astype(np.int64) @ key.bits.astype(np.int64) % 2
        assert amplify(key, spec).bits.tolist() == expected.tolist()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_gf2_linearity(self, seed):
        rng = np.random.default_rng(seed)
        spec = ToeplitzSpec.from_seed(8, 32, seed=seed)
        x = BitKey(rng.integers(0, 2, size=32, dtype=np.uint8))
        y = BitKey(rng.integers(0, 2, size=32, dtype=np.uint8))
        assert amplify(x ^ y, spec) == amplify(x, spec) ^ amplify(y, spec)

    def test_collision_rate_matches_universal_bound(self):
        rows, cols, trials = 8, 32, 100_000
        rng = np.random.default_rng(99)
        x = BitKey(rng.integers(0, 2, size=cols, dtype=np.uint8))
        while True:
            y = BitKey(rng.integers(0, 2, size=cols, dtype=np.uint8))
            if y != x:
                break
        seed_bits = rng.integers(0, 2, size=(trials, rows + cols - 1), dtype=np.uint8)
        collisions = 0
        for row in seed_bits:
            spec = ToeplitzSpec(rows=rows, cols=cols, first_row_and_col=row)
            if amplify(x, spec) == amplify(y, spec):
                collisions += 1
        rate = collisions / trials
        expected = 2.0**-rows
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(rate - expected) <= 3 * sigma

    @pytest.mark.parametrize("rows,cols", SHAPES_AROUND_CROSSOVER)
    def test_matches_reference_matrix_around_crossover(self, rows, cols):
        key, spec = seeded_case(rows, cols, seed=rows * 7919 + cols)
        expected = reference_matrix(spec).astype(np.int64) @ key.bits.astype(np.int64) % 2
        assert amplify(key, spec).bits.tolist() == expected.tolist()

    @pytest.mark.parametrize("rows,cols", SHAPES_AROUND_CROSSOVER + [(3000, 4000)])
    def test_direct_and_fft_paths_give_the_same_integers(self, rows, cols):
        key, spec = seeded_case(rows, cols, seed=rows + 31 * cols)
        diagonals = diagonal_sequence(spec)
        direct = privacy._direct_counts(diagonals, key.bits)
        fft = privacy._fft_counts(diagonals, key.bits)
        assert direct.dtype == fft.dtype == np.int64
        assert np.array_equal(direct, fft)

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_direct_and_fft_paths_agree_on_small_shapes(self, rows, cols, seed):
        key, spec = seeded_case(rows, cols, seed)
        diagonals = diagonal_sequence(spec)
        assert np.array_equal(
            privacy._direct_counts(diagonals, key.bits), privacy._fft_counts(diagonals, key.bits)
        )

    # sha256 of np.packbits(amplify(...).bits), computed with the direct
    # O(rows * cols) convolution before the FFT path existed.
    @pytest.mark.parametrize(
        "rows,cols,seed,digest",
        [
            (11000, 14745, 2024, "72415a14b5019d76fc0a6982a03eb5d35065fb0ab19123b81b468141c302542d"),
            (100000, 150000, 2025, "9c69c2d0bd2506ede8bb968c647d210c94bb474830f2371a5a270a5db76a3bd9"),
        ],
    )
    def test_golden_digest_of_long_keys(self, rows, cols, seed, digest):
        key, spec = seeded_case(rows, cols, seed)
        out = amplify(key, spec)
        assert hashlib.sha256(np.packbits(out.bits).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("rows,cols", [(600, 900), (1393, 1844), (11292, 14746)])
    def test_one_spec_hashes_two_keys_like_fresh_specs(self, rows, cols, monkeypatch):
        # a spec keeps its last FFT-path key and hash: an equal next key costs
        # no transform, and a different one is hashed afresh in either order
        assert rows * cols >= CROSSOVER
        rng = np.random.default_rng(rows)
        keys = [BitKey(rng.integers(0, 2, size=cols, dtype=np.uint8)) for _ in range(2)]
        fresh = [amplify(key, ToeplitzSpec.from_seed(rows, cols, seed=9)) for key in keys]
        spec = ToeplitzSpec.from_seed(rows, cols, seed=9)
        direct = [
            BitKey((privacy._direct_counts(spec.diagonals, key.bits) & 1).astype(np.uint8))
            for key in keys
        ]
        assert fresh == direct
        transforms = []
        for name in ("rfft", "irfft"):
            transform = getattr(np.fft, name)
            monkeypatch.setattr(
                np.fft, name, lambda *a, _t=transform, **kw: transforms.append(1) or _t(*a, **kw)
            )
        for order in ([0, 1], [1, 0], [0, 1, 0, 1]):
            spec = ToeplitzSpec.from_seed(rows, cols, seed=9)
            assert [amplify(keys[i], spec) for i in order] == [fresh[i] for i in order]
        spec = ToeplitzSpec.from_seed(rows, cols, seed=9)
        amplify(keys[0], spec)
        transforms.clear()
        assert amplify(BitKey(keys[0].bits), spec) == fresh[0]
        assert transforms == []  # an equal second key: no rfft, no irfft

        # neither the returned key nor the caller's key is the one kept
        spec = ToeplitzSpec.from_seed(rows, cols, seed=9)
        key = BitKey(keys[0].bits)
        out = amplify(key, spec)
        out.bits[:] ^= 1
        assert amplify(keys[0], spec) == fresh[0]
        key.bits[:] = keys[1].bits
        assert amplify(key, spec) == fresh[1]

    def test_rounding_guard_refuses_to_return_bits(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
        key, spec = seeded_case(300, 400, seed=3)
        assert spec.rows * spec.cols >= CROSSOVER
        with pytest.raises(FftPrecisionError, match="from an integer"):
            amplify(key, spec)

    @pytest.mark.parametrize(
        "rows,cols,fft",
        [(1, 100_000, True), (10_000, 1, False), (10_000, 8, True)],
        ids=["1-100000", "10000-1", "10000-8"],
    )
    def test_thin_products_follow_the_size_rule(self, rows, cols, fft, monkeypatch):
        # the shape does not matter: rows * cols alone picks the convolution
        calls = []
        fft_counts = privacy._fft_counts
        monkeypatch.setattr(privacy, "_fft_counts", lambda *a: calls.append(1) or fft_counts(*a))
        key, spec = seeded_case(rows, cols, seed=rows + cols)
        expected = reference_matrix(spec).astype(np.int64) @ key.bits.astype(np.int64) % 2
        assert amplify(key, spec).bits.tolist() == expected.tolist()
        assert calls == [1] * fft

    def test_small_products_skip_the_fft(self, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("small products must use the direct convolution")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        key, spec = seeded_case(8, 32, seed=4)
        expected = reference_matrix(spec).astype(np.int64) @ key.bits.astype(np.int64) % 2
        assert amplify(key, spec).bits.tolist() == expected.tolist()


# ---------------------------------------------------------------------------
# both parties' final keys end to end, pinned by the first 16 hex digits of
# the sha256 of each key's packed bits; a protocol that raises is pinned by
# the exception's name. Captured while a spec still cached its spectrum.


def key_digest(key: BitKey) -> str:
    return hashlib.sha256(np.packbits(key.bits).tobytes()).hexdigest()[:16]


def pipeline_outcome(seed: int, error_mode: str, protocol_mode: bool) -> str:
    """run_pipeline at 2250 bits, K=10, N=30, L=2 and 3% QBER."""
    try:
        report = run_pipeline(
            2250, 0.03, TpmParams(10, 30, 2), seed=seed, protocol_mode=protocol_mode, error_mode=error_mode
        )
    except Exception as error:  # the raised outcome is part of what is pinned
        return type(error).__name__
    keys = [key_digest(report.final_alice), key_digest(report.final_bob)]
    return ":".join([str(report.budget.final_length), str(report.transcript.iterations)] + keys)


def long_block_outcome(length: int, qber: float, error_mode: str, seed: int) -> str:
    """The long-block composition: generate, estimate, Cascade, plan a budget
    with no mutual-learning leakage, then hash both keys with one spec."""
    pair_seed, sample_seed, parity_seed, hash_seed = (seed * 4 + part for part in range(4))
    pair = generate_key_pair(length, qber, seed=pair_seed, error_mode=error_mode)
    estimate = estimate_qber(pair, DEFAULT_SAMPLE_FRACTION, seed=sample_seed)
    alice, bob = estimate.remaining_alice, estimate.remaining_bob
    errors = frozenset(np.flatnonzero(alice.bits != bob.bits).tolist())
    hint = max(estimate.estimate, 1.0 / estimate.sampled_count)
    outcome = run_parity_reconciliation(
        NoisyKeyPair(alice, bob, errors, qber), ParityConfig(qber_hint=hint, seed=parity_seed)
    )
    n = alice.length
    budget = plan_budget(n, leakage_after(0, TpmParams(1, 1, 1)), outcome.disclosed_bits)
    spec = ToeplitzSpec.from_seed(budget.final_length, n, hash_seed)
    keys = [key_digest(amplify(outcome.corrected_alice, spec)), key_digest(amplify(outcome.corrected_bob, spec))]
    return ":".join([str(budget.final_length), str(outcome.residual_errors)] + keys)


PIPELINE_CASES = list(itertools.product(range(4), ("uniform", "burst"), (False, True)))
GOLDEN_PIPELINE_OUTCOMES = {
    (0, "uniform", False): "272:298:8364285cff3c5862:8364285cff3c5862",
    (0, "uniform", True): "78:300:31d923bf4b82252a:31d923bf4b82252a",
    (0, "burst", False): "549:21:cb429d864420b271:cb429d864420b271",
    (0, "burst", True): "406:100:d0908bc40b02a926:d0908bc40b02a926",
    (1, "uniform", False): "189:381:f618c0b8edf25d61:f618c0b8edf25d61",
    (1, "uniform", True): "InfeasibleBudgetError",
    (1, "burst", False): "368:202:3aba5d55f15e5e03:3aba5d55f15e5e03",
    (1, "burst", True): "78:300:394ee15b680f435f:394ee15b680f435f",
    (2, "uniform", False): "475:95:684570b413e1fe46:684570b413e1fe46",
    (2, "uniform", True): "406:100:284cc547a0c84066:284cc547a0c84066",
    (2, "burst", False): "524:46:004bbc69ee60842a:004bbc69ee60842a",
    (2, "burst", True): "406:100:a28d4eff1a8b8900:a28d4eff1a8b8900",
    (3, "uniform", False): "321:249:3425f5c6132faf0d:3425f5c6132faf0d",
    (3, "uniform", True): "78:300:d68437b0dea5406a:d68437b0dea5406a",
    (3, "burst", False): "422:148:3f5befd5bbb2725f:3f5befd5bbb2725f",
    (3, "burst", True): "242:200:bec685b511d198c7:bec685b511d198c7",
}

# (length, qber, error mode, seed); at (4096, 0.02, "burst", 0) Cascade leaves
# two residual errors, so the parties' final keys differ
LONG_BLOCK_CASES = [
    (n, q, m, seed)
    for n in (4096, 16384)
    for q, m in ((0.02, "uniform"), (0.02, "burst"), (0.03, "uniform"), (0.03, "burst"))
    for seed in (0, 1)
]
GOLDEN_LONG_BLOCK_OUTCOMES = {
    (4096, 0.02, "uniform", 0): "3031:0:b4491a890f961c32:b4491a890f961c32",
    (4096, 0.02, "uniform", 1): "3025:0:08b9402878e98597:08b9402878e98597",
    (4096, 0.02, "burst", 0): "3128:2:118eedf4792adac8:3fb002b2fb42a7a5",
    (4096, 0.02, "burst", 1): "3113:0:a5ca4f2911a77f69:a5ca4f2911a77f69",
    (4096, 0.03, "uniform", 0): "2819:0:c03fa410d3af4f85:c03fa410d3af4f85",
    (4096, 0.03, "uniform", 1): "2791:0:a7f5a2af90942e8c:a7f5a2af90942e8c",
    (4096, 0.03, "burst", 0): "2876:0:5d10f27403420f1e:5d10f27403420f1e",
    (4096, 0.03, "burst", 1): "2885:0:2c8f91338d66373e:2c8f91338d66373e",
    (16384, 0.02, "uniform", 0): "12448:0:691d8bf58168c017:691d8bf58168c017",
    (16384, 0.02, "uniform", 1): "12397:0:5c302ae52e13ada1:5c302ae52e13ada1",
    (16384, 0.02, "burst", 0): "12396:0:059c1626a7fcdfdc:059c1626a7fcdfdc",
    (16384, 0.02, "burst", 1): "12410:0:8aad0d1137400468:8aad0d1137400468",
    (16384, 0.03, "uniform", 0): "11541:0:fc3cf8924836dace:fc3cf8924836dace",
    (16384, 0.03, "uniform", 1): "11470:0:c49deef6db6a6e87:c49deef6db6a6e87",
    (16384, 0.03, "burst", 0): "11501:0:45ce68d8d616897b:45ce68d8d616897b",
    (16384, 0.03, "burst", 1): "11497:0:2ff0dc1ad1192293:2ff0dc1ad1192293",
}


@pytest.mark.parametrize(
    "case", PIPELINE_CASES, ids=[f"seed{s}-{m}-{'protocol' if p else 'simulation'}" for s, m, p in PIPELINE_CASES]
)
def test_golden_pipeline_final_keys(case):
    assert pipeline_outcome(*case) == GOLDEN_PIPELINE_OUTCOMES[case]


@pytest.mark.parametrize("case", LONG_BLOCK_CASES, ids=[f"{n}b-{q:g}-{m}-seed{s}" for n, q, m, s in LONG_BLOCK_CASES])
def test_golden_long_block_final_keys(case):
    assert long_block_outcome(*case) == GOLDEN_LONG_BLOCK_OUTCOMES[case]
