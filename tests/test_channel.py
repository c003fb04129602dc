import hashlib
import math

import numpy as np
import pytest

from neurokey.channel import NoisyKeyPair, _kth_open, estimate_qber, generate_key_pair, sample_size
from neurokey.tpm import BitKey


# sha256 of packbits(alice) + packbits(bob), captured when burst placement
# still rescanned every unflipped position per run.
GOLDEN_KEY_PAIRS = [
    ("uniform", 2048, 0.02, 11, "d147bd669ba321dfcfc607395ca16cf0bbf284f46143bcae5b085ad1d2bcb71c"),
    ("uniform", 2048, 0.02, 12, "60f3dc523065e409899286e8d998f8fa1a77a762549cd11f1c528be6225ee010"),
    ("uniform", 2048, 0.03, 11, "0490a066b86cc865ac5ef0e415e6a43a638d041fd5b4367fbcda7eaca942b2b3"),
    ("uniform", 2048, 0.03, 12, "0beaa2a8f3099eb3895c308aa52b0fa011cf8fdfff20da79bdb04e64ac910f68"),
    ("uniform", 16384, 0.02, 11, "d850a9f550eb3ffee97f0e26bea89ac8cb3e216faf2ed672d96d875aeaf9543f"),
    ("uniform", 16384, 0.02, 12, "850e861cd2472b02e36811ce04b0736228a18e8c940151be6f98e2c949cb77ff"),
    ("uniform", 16384, 0.03, 11, "bad49a6915cb2cd4e30bc40a11b2cb1b5225b62a29dfbf5af6f35d818a1ff13d"),
    ("uniform", 16384, 0.03, 12, "838d7d09a5915d96d1567ffc0ab8a3c04c3b0f5437fd9bcc5dc7581580e6512a"),
    ("uniform", 100000, 0.02, 11, "c98a5f477e239f378f825f8d682bd44879000339c51a78b3cfd422b9e94d8349"),
    ("uniform", 100000, 0.02, 12, "9f1b00c1adc29c4ab031671542430b7ac5d53dba54dafb2010cf308c9dda5fc2"),
    ("uniform", 100000, 0.03, 11, "6e8980f00b91b124ccafa05578cc63d8d1742597c918ddeeec4213fcce9917c0"),
    ("uniform", 100000, 0.03, 12, "31f6d43e6a98c73215edd532a3bbcc23b039b7a5434643052a673ac26a2ecde7"),
    ("burst", 2048, 0.02, 11, "7ac34cc682ce97a5f285c0057f9b9c215157d8071b9c2744c8c4c9a30c9889c4"),
    ("burst", 2048, 0.02, 12, "540f8cc27310945e594fe3babd2af21fe86fdae6161d12e4489f1b25417a0331"),
    ("burst", 2048, 0.03, 11, "c223da2b3ac5cfee0c1370956c2b4d663928b300f6def14c555c0a49c6a17313"),
    ("burst", 2048, 0.03, 12, "8d413161f2747df178c2d602d5a4481622b3476e4dcdab870cf5364042ddf593"),
    ("burst", 16384, 0.02, 11, "aa70a11f00edbc64c52154029914ebaec5165b834021db1751a486aa8ab54798"),
    ("burst", 16384, 0.02, 12, "65f9a3fcf3cefaad971527477a2564aeb9f6a4ff4883c5108d35a672ecc5cbde"),
    ("burst", 16384, 0.03, 11, "9228cd54b765b5d41c41b60f0e6406cc98980a412afc69211c8972a5c2817d38"),
    ("burst", 16384, 0.03, 12, "95681c9e3740db6afb90e55d374cacd05381d9a91fb9072dc9e06d5751c8e1bf"),
    ("burst", 100000, 0.02, 11, "d8c2107b454b26bbd9a8ee8608abb9f2534c8635af96a9e2428b679d7bb7cdf0"),
    ("burst", 100000, 0.02, 12, "091cf18e5e0d09e6f76829594449bf353dd54b161279022a2ef5fe5e4dc21224"),
    ("burst", 100000, 0.03, 11, "3da5b92816422ff3b508a07b3eacd7cce7ce5158c6e1b98d2a52b870029d8131"),
    ("burst", 100000, 0.03, 12, "911de902d66994a60fa363d1d0cacaddc2c976398091c65dd897e7852823c807"),
]


@pytest.mark.parametrize("mode,length,qber,seed,digest", GOLDEN_KEY_PAIRS)
def test_golden_key_pairs(mode, length, qber, seed, digest):
    pair = generate_key_pair(length, qber, seed=seed, error_mode=mode)
    packed = np.packbits(pair.alice.bits).tobytes() + np.packbits(pair.bob.bits).tobytes()
    assert hashlib.sha256(packed).hexdigest() == digest


def test_kth_open_matches_a_full_scan():
    rng = np.random.default_rng(8)
    for length in (1, 2, 7, 64, 500):
        for density in (0.0, 0.3, 0.9):
            flipped = rng.random(length) < density
            open_positions = np.flatnonzero(~flipped)
            placed = np.flatnonzero(flipped).tolist()
            for k in range(open_positions.size):
                assert _kth_open(placed, k) == open_positions[k]


class TestGenerateKeyPair:
    def test_zero_qber_gives_identical_keys(self):
        pair = generate_key_pair(500, 0.0, seed=1)
        assert pair.alice == pair.bob
        assert pair.true_error_positions == frozenset()

    def test_flip_fraction_within_three_sigma(self):
        length, qber = 10_000, 0.03
        pair = generate_key_pair(length, qber, seed=7)
        sigma = math.sqrt(qber * (1 - qber) / length)
        assert abs(len(pair.true_error_positions) / length - qber) <= 3 * sigma

    def test_same_seed_is_deterministic(self):
        a = generate_key_pair(256, 0.05, seed=42)
        b = generate_key_pair(256, 0.05, seed=42)
        assert a.alice == b.alice and a.bob == b.bob
        assert a.true_error_positions == b.true_error_positions

    def test_errors_exactly_at_recorded_positions(self):
        pair = generate_key_pair(300, 0.1, seed=3)
        diffs = {int(i) for i in np.flatnonzero(pair.alice.bits != pair.bob.bits)}
        assert diffs == set(pair.true_error_positions)

    def test_qber_range_enforced(self):
        for bad in (-0.01, 0.51, 1.0):
            with pytest.raises(ValueError):
                generate_key_pair(100, bad, seed=0)

    @pytest.mark.parametrize(
        "length, error_mode, message",
        [
            (0, "uniform", "length must be a positive integer, got 0"),
            (100.5, "uniform", "length must be a positive integer, got 100.5"),
            (100, "bogus", "error_mode must be one of ('uniform', 'burst'), got 'bogus'"),
        ],
    )
    def test_length_and_error_mode_validated(self, length, error_mode, message):
        with pytest.raises(ValueError) as info:
            generate_key_pair(length, 0.05, seed=0, error_mode=error_mode)
        assert str(info.value) == message

    def test_burst_mode_clusters_and_matches_rate(self):
        length, qber = 20_000, 0.05
        uniform = generate_key_pair(length, qber, seed=5)
        burst = generate_key_pair(length, qber, seed=5, error_mode="burst")
        sigma = math.sqrt(qber * (1 - qber) / length)
        assert abs(len(burst.true_error_positions) / length - qber) <= 4 * sigma

        def mean_run_length(pair):
            flags = np.zeros(length, dtype=int)
            flags[list(pair.true_error_positions)] = 1
            padded = np.concatenate([[0], flags, [0]])
            starts = int(((padded[1:] - padded[:-1]) == 1).sum())
            return flags.sum() / max(starts, 1)

        assert mean_run_length(burst) > 1.5 * mean_run_length(uniform)

    def test_burst_mode_deterministic(self):
        a = generate_key_pair(1000, 0.05, seed=9, error_mode="burst")
        b = generate_key_pair(1000, 0.05, seed=9, error_mode="burst")
        assert a.bob == b.bob

    def test_pair_invariant_validated(self):
        with pytest.raises(ValueError):
            NoisyKeyPair(
                BitKey.from_string("0000"),
                BitKey.from_string("0001"),
                frozenset(),
                0.0,
            )

    def test_pair_lengths_must_match(self):
        with pytest.raises(ValueError, match="keys must have equal length"):
            NoisyKeyPair(BitKey.from_string("0000"), BitKey.from_string("000"), frozenset(), 0.0)


class TestEstimateQber:
    def test_identical_keys_estimate_zero(self):
        pair = generate_key_pair(400, 0.0, seed=1)
        est = estimate_qber(pair, 0.25, seed=2)
        assert est.estimate == 0.0 and est.mismatches == 0

    def test_estimate_is_sample_ratio_and_positions_disclosed(self):
        pair = generate_key_pair(500, 0.08, seed=11)
        est = estimate_qber(pair, 0.2, seed=12)
        assert est.sampled_count == 100
        left = int((est.remaining_alice.bits != est.remaining_bob.bits).sum())
        assert est.mismatches == len(pair.true_error_positions) - left
        assert est.estimate == est.mismatches / est.sampled_count

    def test_remaining_keys_exclude_disclosed_positions(self):
        pair = generate_key_pair(500, 0.08, seed=21)
        est = estimate_qber(pair, 0.2, seed=22)
        assert est.remaining_alice.length == 400
        assert est.remaining_bob.length == 400
        # mismatches left over must be exactly the undisclosed errors
        left = int((est.remaining_alice.bits != est.remaining_bob.bits).sum())
        assert left == len(pair.true_error_positions) - est.mismatches

    def test_sample_fraction_bounds(self):
        pair = generate_key_pair(100, 0.0, seed=1)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                estimate_qber(pair, bad, seed=0)

    def test_empty_sample_rejected(self):
        pair = generate_key_pair(5, 0.0, seed=1)
        with pytest.raises(ValueError):
            estimate_qber(pair, 0.1, seed=0)

    @pytest.mark.parametrize("length, fraction", [(100, 0.2), (101, 0.1), (2250, 0.1), (7, 0.5), (3, 0.34)])
    def test_the_sample_is_the_sample_size(self, length, fraction):
        # the one rule estimate_qber and run_pipeline share: floor(fraction * length)
        pair = generate_key_pair(length, 0.1, seed=3)
        estimate = estimate_qber(pair, fraction, seed=4)
        assert estimate.sampled_count == sample_size(length, fraction) == int(fraction * length + 1e-9)
        assert estimate.remaining_alice.length == length - estimate.sampled_count

    @pytest.mark.parametrize(
        "length, fraction, message",
        [
            (0, 0.1, "length must be a positive integer, got 0"),
            (100.5, 0.1, "length must be a positive integer, got 100.5"),
            (100, 1.0, "sample_fraction must be in (0, 1), got 1.0"),
            (5, 0.1, "sample would be empty; use a larger fraction or key"),
        ],
    )
    def test_sample_size_rejects_no_key_a_bad_fraction_and_no_sample(self, length, fraction, message):
        with pytest.raises(ValueError) as excinfo:
            sample_size(length, fraction)
        assert str(excinfo.value) == message

    def test_mean_estimate_converges_to_nominal(self):
        length, qber, runs = 2000, 0.05, 60
        total = 0.0
        for trial in range(runs):
            pair = generate_key_pair(length, qber, seed=1000 + trial)
            total += estimate_qber(pair, 0.5, seed=2000 + trial).estimate
        mean = total / runs
        sigma = math.sqrt(qber * (1 - qber) / (length * 0.5 * runs))
        assert abs(mean - qber) <= 3 * sigma
