"""Parity-block error correction baselines: BBBSS and Cascade.

Both protocols run several passes. Pass 1 partitions the key (in natural
order) into blocks of round(0.73 / qber) bits; each later pass doubles the
block size and applies a fresh seeded pseudo-random permutation shared by
both parties. Every block's parity is compared over the public channel; a
mismatch means an odd number of errors, which a binary search pins down and
flips on Bob's side.

Cascade additionally back-propagates: a flip toggles the known parity of the
blocks containing that position in every earlier pass, and any block that
turns odd is searched in turn, smallest block first (the toggle itself is
inferred, not communicated). BBBSS simply reruns passes without
back-propagation.

Accounting: one parity check = one disclosed bit. Comparing a whole block at
the top of a pass costs one check; each binary-search split compares the
first half only (the other half's parity is inferred), costing one check per
level. Passes stop early once a full pass finds no mismatch at all.

The simulation runs on the difference vector alice ^ bob, whose XOR over a
block is 1 exactly when the parties' parities mismatch: one reduceat per pass,
one prefix XOR per binary search, and every comparison still counted as above.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .channel import NoisyKeyPair
from .tpm import BitKey

__all__ = [
    "ALGORITHMS",
    "ParityConfig",
    "ParityOutcome",
    "block_size_for",
    "run_parity_reconciliation",
]

ALGORITHMS = ("bbbss", "cascade")


@dataclass(frozen=True)
class ParityConfig:
    """Inputs the parties agree on before a reconciliation run."""

    qber_hint: float
    passes: int = 4
    seed: int = 0
    algorithm: str = "cascade"

    def __post_init__(self) -> None:
        if self.qber_hint <= 0.0:
            raise ValueError("qber_hint must be > 0 (a block size cannot be derived)")
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")


@dataclass(frozen=True)
class ParityOutcome:
    """Corrected keys plus the public-channel cost of getting there.

    residual_errors is an oracle count; a nonzero value is reported, never
    raised.
    """

    corrected_alice: BitKey
    corrected_bob: BitKey
    parity_checks: int
    disclosed_bits: int
    residual_errors: int
    flipped_positions: list[int]


def block_size_for(qber: float) -> int:
    """Pass-1 block size: 0.73/qber rounded half-up, at least 1."""
    if qber <= 0.0:
        raise ValueError("qber must be > 0")
    return max(1, int(math.floor(0.73 / qber + 0.5)))


def _locate(diff: np.ndarray, block: np.ndarray) -> tuple[int, int]:
    """Binary-search an odd-parity block down to one position.

    Returns (position, parity checks spent). Each level compares the first
    half (size ceil(n/2)) only, read off the block's prefix parities.
    """
    prefix = [0, *np.bitwise_xor.accumulate(diff[block]).tolist()]
    lo, hi = 0, len(block)
    checks = 0
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2
        checks += 1
        if prefix[mid] != prefix[lo]:
            hi = mid
        else:
            lo = mid
    return int(block[lo]), checks


def run_parity_reconciliation(pair: NoisyKeyPair, config: ParityConfig) -> ParityOutcome:
    """Correct Bob's key toward Alice's with the configured parity protocol."""
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

    for p in range(config.passes if n else 0):  # an empty key needs no pass
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

        # heap keyed by block size: searches run cheapest-first; the tie
        # counter keeps the order deterministic
        pending = [
            (block_length(p, index), tie, p, index)
            for tie, index in enumerate(np.flatnonzero(parities).tolist())
        ]
        heapq.heapify(pending)
        if not pending:  # a clean pass ends the run
            break
        tie = len(pending)
        while pending:
            _, _, q, index = heapq.heappop(pending)
            if not odd[q][index]:
                continue
            start = index * sizes[q]
            position, spent = _locate(diff, orders[q][start : start + sizes[q]])
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
