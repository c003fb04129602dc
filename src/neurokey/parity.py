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

The simulation works on the error positions only, since a block's parities
mismatch exactly when it holds an odd number of errors; its cost grows with
the number of errors, not with the key length. Each pass keeps, per block,
the sorted ranks (places in that pass's order) of its remaining errors: a
block is odd when its list's length is, a search bisects the block's own
list, and a flip removes the error from its block in every pass tracked.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
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


def _locate(ranks: list[int], lo: int, hi: int) -> tuple[int, int]:
    """Binary-search the odd block [lo, hi) of one pass, whose errors have the
    sorted ranks ``ranks``, down to one error: (its rank, parity checks spent).

    Each level compares the first half (size ceil(n/2)) only; its parity is
    that of the number of errors ranked in [lo, mid), read off by bisecting.
    """
    checks, i_lo, i_hi = 0, 0, len(ranks)
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2
        checks += 1
        i_mid = bisect_left(ranks, mid, i_lo, i_hi)
        if (i_mid - i_lo) & 1:
            hi, i_hi = mid, i_mid
        else:
            lo, i_lo = mid, i_mid
    return ranks[i_lo], checks


def run_parity_reconciliation(pair: NoisyKeyPair, config: ParityConfig) -> ParityOutcome:
    """Correct Bob's key toward Alice's with the configured parity protocol."""
    alice = pair.alice.bits
    errors = alice != pair.bob.bits
    n = pair.length
    rng = np.random.default_rng(config.seed)
    base_size = block_size_for(config.qber_hint)

    checks = 0
    flips: list[int] = []
    # tracked passes: (block size, blocks' sorted error ranks, position -> rank, rank -> position)
    passes: list[tuple[int, list[list[int]], dict[int, int], dict[int, int]]] = []

    for p in range(config.passes if n else 0):  # an empty key needs no pass
        size = min(n, base_size << p)
        if p == 0:
            ranks = positions = np.flatnonzero(errors)
        else:
            order = rng.permutation(n)
            ranks = np.flatnonzero(errors[order])
            positions = order[ranks]
        rank_list = ranks.tolist()
        blocks: list[list[int]] = [[] for _ in range(-(-n // size))]
        for rank in rank_list:
            blocks[rank // size].append(rank)
        checks += len(blocks)
        odd = [index for index, block in enumerate(blocks) if len(block) & 1]
        if not odd:  # a clean pass ends the run
            break

        position_list = positions.tolist()
        current = (size, blocks, dict(zip(position_list, rank_list)), dict(zip(rank_list, position_list)))
        if config.algorithm == "bbbss":  # BBBSS never searches an earlier pass's block again
            passes.clear()
        passes.append(current)

        # heap keyed by block length, as a pass's last block can be shorter:
        # searches run cheapest-first; the tie counter keeps the order fixed
        pending = [(min(size, n - index * size), tie, current, index) for tie, index in enumerate(odd)]
        heapq.heapify(pending)
        tie = len(pending)
        while pending:
            length, _, (size_q, blocks_q, _, position_at_q), index = heapq.heappop(pending)
            block = blocks_q[index]
            if not len(block) & 1:
                continue
            lo = index * size_q
            rank, spent = _locate(block, lo, lo + length)
            checks += spent
            position = position_at_q[rank]
            flips.append(position)
            errors[position] = False
            for state in passes:
                size2, blocks2, rank_of2, _ = state
                rank = rank_of2.pop(position)
                index2 = rank // size2
                block2 = blocks2[index2]
                block2.remove(rank)
                if len(block2) & 1:
                    heapq.heappush(pending, (min(size2, n - index2 * size2), tie, state, index2))
                    tie += 1

    return ParityOutcome(
        corrected_alice=pair.alice,
        corrected_bob=BitKey(alice ^ errors),
        parity_checks=checks,
        disclosed_bits=checks,
        residual_errors=int(np.count_nonzero(errors)),
        flipped_positions=flips,
    )
