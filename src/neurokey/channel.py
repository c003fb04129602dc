"""Correlated raw-key generation over a bit-flip channel, plus error-rate
estimation by sacrificing a disclosed sample.

The quantum link is modeled classically: Alice's key is uniform random and
Bob's copy differs by independent bit flips (or clustered runs of flips in
burst mode).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .tpm import BitKey, ScenarioError

__all__ = [
    "DEFAULT_QBER_THRESHOLD",
    "DEFAULT_SAMPLE_FRACTION",
    "ERROR_MODES",
    "NoisyKeyPair",
    "QberEstimate",
    "estimate_qber",
    "generate_key_pair",
    "sample_size",
]

# Common abort level for the estimated error rate; callers may override.
DEFAULT_QBER_THRESHOLD = 0.11

# Fraction of the raw key sacrificed for estimation unless the caller says otherwise.
DEFAULT_SAMPLE_FRACTION = 0.1

ERROR_MODES = ("uniform", "burst")

# Mean length of a run of flips in burst mode.
_BURST_MEAN_RUN = 4.0


@dataclass(frozen=True)
class NoisyKeyPair:
    """Alice/Bob raw keys plus the oracle view of where they differ."""

    alice: BitKey
    bob: BitKey
    true_error_positions: frozenset[int]
    nominal_qber: float

    def __post_init__(self) -> None:
        if self.alice.length != self.bob.length:
            raise ValueError("keys must have equal length")
        actual = frozenset(np.flatnonzero(self.alice.bits != self.bob.bits).tolist())
        if actual != self.true_error_positions:
            raise ValueError("true_error_positions does not match the keys")

    @property
    def length(self) -> int:
        return self.alice.length


@dataclass(frozen=True)
class QberEstimate:
    """Outcome of disclosing a sample: the estimate and the shortened keys."""

    sampled_count: int
    mismatches: int
    estimate: float
    remaining_alice: BitKey
    remaining_bob: BitKey


def _kth_open(placed: list[int], k: int) -> int:
    """Position of the k-th (0-based) unflipped bit, given the sorted flipped
    positions. placed[i] - i counts the unflipped bits before placed[i]."""
    lo, hi = 0, len(placed)
    while lo < hi:
        mid = (lo + hi) // 2
        if placed[mid] - mid <= k:
            lo = mid + 1
        else:
            hi = mid
    return k + lo


def _burst_flips(rng: np.random.Generator, length: int, qber: float) -> np.ndarray:
    """Place roughly Binomial(length, qber) flips in geometric-length runs of
    mean _BURST_MEAN_RUN.

    Each run starts at a uniformly drawn unflipped bit: rng.integers(0,
    open_count) picks its rank, the same draw rng.choice over the unflipped
    positions makes, so the key stream stays fixed; a binary search over the
    placed flips then finds it in O(log n).
    """
    flips = np.zeros(length, dtype=bool)
    target = int(rng.binomial(length, qber)) if qber > 0 else 0
    placed: list[int] = []
    while len(placed) < target:
        start = _kth_open(placed, int(rng.integers(0, length - len(placed))))
        run = int(rng.geometric(1.0 / _BURST_MEAN_RUN))
        for j in range(start, min(start + run, length)):
            if len(placed) >= target:
                break
            if not flips[j]:
                flips[j] = True
                bisect.insort(placed, j)
    return flips


def generate_key_pair(
    length: int,
    qber: float,
    seed: int,
    error_mode: str = "uniform",
) -> NoisyKeyPair:
    """Draw Alice's key uniformly and corrupt Bob's copy at rate qber.

    Uniform mode flips each bit independently; burst mode clusters the same
    expected number of flips into runs of mean length 4. The result is a pure
    function of the arguments.
    """
    length = ScenarioError.integer("length", length)
    if not 0.0 <= qber <= 0.5:
        raise ScenarioError(f"qber must be in [0, 0.5], got {qber}")
    if error_mode not in ERROR_MODES:
        raise ScenarioError(f"error_mode must be one of {ERROR_MODES}, got {error_mode!r}")
    rng = np.random.default_rng(seed)
    alice_bits = rng.integers(0, 2, size=length, dtype=np.uint8)
    if error_mode == "uniform":
        flips = rng.random(length) < qber
    else:
        flips = _burst_flips(rng, length, qber)
    bob_bits = alice_bits ^ flips.astype(np.uint8)
    positions = frozenset(np.flatnonzero(flips).tolist())
    return NoisyKeyPair(BitKey(alice_bits), BitKey(bob_bits), positions, float(qber))


def sample_size(length: int, sample_fraction: float) -> int:
    """Bits of a ``length``-bit raw key disclosed to estimate its error rate:
    floor(sample_fraction * length), at least 1, with the fraction in (0, 1)."""
    length = ScenarioError.integer("length", length)
    if not 0.0 < sample_fraction < 1.0:
        raise ScenarioError(f"sample_fraction must be in (0, 1), got {sample_fraction}")
    size = int(math.floor(sample_fraction * length + 1e-9))
    if size < 1:
        raise ScenarioError("sample would be empty; use a larger fraction or key")
    return size


def estimate_qber(pair: NoisyKeyPair, sample_fraction: float, seed: int) -> QberEstimate:
    """Disclose a uniform sample of ``sample_size`` positions, estimate the
    error rate on it, and drop the disclosed bits from both keys."""
    size = sample_size(pair.length, sample_fraction)
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.choice(pair.length, size=size, replace=False))
    mismatches = int((pair.alice.bits[positions] != pair.bob.bits[positions]).sum())
    return QberEstimate(
        sampled_count=size,
        mismatches=mismatches,
        estimate=mismatches / size,
        remaining_alice=pair.alice.without(positions),
        remaining_bob=pair.bob.without(positions),
    )
