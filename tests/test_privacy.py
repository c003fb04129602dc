import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import toeplitz

from neurokey.adversary import leakage_after
from neurokey import privacy
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
    return BitKey.random(cols, np.random.default_rng(seed + 1)), spec


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
            assert amplify(BitKey.random(cols, rng), spec).length == rows

    @given(st.integers(1, 24), st.integers(1, 48), st.integers(0, 2**32 - 1))
    @settings(max_examples=80)
    def test_matches_reference_matrix_multiply(self, rows, cols, seed):
        spec = ToeplitzSpec.from_seed(rows, cols, seed=seed)
        rng = np.random.default_rng(seed + 1)
        key = BitKey.random(cols, rng)
        expected = reference_matrix(spec).astype(np.int64) @ key.bits.astype(np.int64) % 2
        assert amplify(key, spec).bits.tolist() == expected.tolist()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_gf2_linearity(self, seed):
        rng = np.random.default_rng(seed)
        spec = ToeplitzSpec.from_seed(8, 32, seed=seed)
        x = BitKey.random(32, rng)
        y = BitKey.random(32, rng)
        assert amplify(x ^ y, spec) == amplify(x, spec) ^ amplify(y, spec)

    def test_collision_rate_matches_universal_bound(self):
        rows, cols, trials = 8, 32, 100_000
        rng = np.random.default_rng(99)
        x = BitKey.random(cols, rng)
        while True:
            y = BitKey.random(cols, rng)
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

    def test_rounding_guard_refuses_to_return_bits(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
        key, spec = seeded_case(300, 400, seed=3)
        assert spec.rows * spec.cols >= CROSSOVER
        with pytest.raises(FftPrecisionError, match="from an integer"):
            amplify(key, spec)

    @pytest.mark.parametrize("rows,cols", [(1, 100_000), (10_000, 1), (10_000, 8)])
    def test_thin_products_skip_the_fft(self, rows, cols, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("thin products must use the direct convolution")

        monkeypatch.setattr(np.fft, "irfft", no_fft)
        key, spec = seeded_case(rows, cols, seed=rows + cols)
        expected = reference_matrix(spec).astype(np.int64) @ key.bits.astype(np.int64) % 2
        assert amplify(key, spec).bits.tolist() == expected.tolist()

    def test_small_products_skip_the_fft(self, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("small products must use the direct convolution")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        key, spec = seeded_case(8, 32, seed=4)
        expected = reference_matrix(spec).astype(np.int64) @ key.bits.astype(np.int64) % 2
        assert amplify(key, spec).bits.tolist() == expected.tolist()
