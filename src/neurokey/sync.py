"""Mutual synchronization of two tree parity machines over a simulated
public channel, the three-step key-reconciliation flow built on it (load keys
into weights, synchronize, dump weights back to bits), and the accounting of
what the public outputs leak.

Per round, one party draws a random input matrix, both evaluate, and the
+/-1 outputs are exchanged; on agreement both apply the bounded Hebbian
update. An "iteration" is one input draw plus output exchange whether or
not learning happens; learning steps are counted separately.

Termination is decided in one of two modes:

* simulation mode (default): an oracle compares the weight matrices every
  iteration. Used for experiment statistics.
* protocol mode: the parties exchange a 64-bit blake2b digest of their
  weights every ``digest_check_interval`` iterations and stop when the
  digests match; the digest bits count as disclosed information.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from .tpm import (
    BitKey,
    Tpm,
    TpmParams,
    _hebbian_inplace,
    _signs,
    bits_to_weights,
    weights_to_bits,
)

__all__ = [
    "DIGEST_BITS",
    "LeakageEstimate",
    "NonConvergenceError",
    "SyncConfig",
    "SyncTranscript",
    "leakage_after",
    "reconcile",
    "resolve_iteration_budget",
    "seed_initial_overlap",
    "synchronize_batch",
    "synchronize_from_weights",
]

# Size of the weight digest exchanged in protocol mode.
DIGEST_BITS = 64

# Input matrices pre-drawn per RNG call inside the round loop.
_INPUT_CHUNK = 64

# Pilot runs averaged for an automatic budget, and the hard cap on each.
_PILOTS = 5
_PILOT_CAP = 500_000
_PILOT_TAG = 0x6E6B7069  # arbitrary fixed salt for pilot seeds


class NonConvergenceError(RuntimeError):
    """Synchronization exhausted its iteration budget.

    The message names the budget's source (explicit or pilot) and the final
    party overlap; the partial transcript is carried in ``transcript``.
    """

    def __init__(self, message: str, transcript: "SyncTranscript") -> None:
        super().__init__(message)
        self.transcript = transcript


@dataclass(frozen=True)
class SyncConfig:
    """Knobs for one synchronization session.

    ``max_iterations=None`` resolves to ten times the pilot-measured mean of
    random-start runs for the same shape (see resolve_iteration_budget).
    """

    params: TpmParams
    max_iterations: int | None = None
    digest_check_interval: int = 10
    seed: int = 0
    protocol_mode: bool = False
    record_overlap: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.digest_check_interval < 1:
            raise ValueError("digest_check_interval must be >= 1")


@dataclass
class SyncTranscript:
    """Public-channel record of one synchronization session, serialized in field order."""

    iterations: int
    learning_steps: int
    digest_exchanges: int
    converged: bool
    truncated_bits: int = 0
    overlap_trace: list[tuple[int, float]] | None = None

    @property
    def disclosed_bits(self) -> int:
        """Digest bits published for termination checks (0 in simulation mode)."""
        return DIGEST_BITS * self.digest_exchanges

    def to_record(self) -> str:
        """One-line JSON record of the fields."""
        return json.dumps(asdict(self), separators=(",", ":"))


@dataclass(frozen=True)
class LeakageEstimate:
    """How much the public outputs narrow the attacker's search space.

    Each public round at most halves the candidate weight matrices, so after
    ``iterations`` rounds the space shrinks from (2L+1)^(K*N) by a factor of
    2^iterations, equivalent to removing ``weight_equivalent_reduction``
    weights or ``bit_reduction`` key bits.
    """

    iterations: int
    key_space_log2: float
    weight_equivalent_reduction: float
    bit_reduction: int


def leakage_after(iterations: int, params: TpmParams) -> LeakageEstimate:
    """Accounting for ``iterations`` public rounds of the given shape."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    log2_alphabet = math.log2(params.alphabet_size)
    return LeakageEstimate(
        iterations=iterations,
        key_space_log2=params.weight_count * log2_alphabet - iterations,
        weight_equivalent_reduction=iterations / log2_alphabet,
        bit_reduction=iterations,
    )


def _weight_digest(weights: np.ndarray) -> bytes:
    data = np.ascontiguousarray(weights, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=DIGEST_BITS // 8).digest()


def _exchange_round(
    w: np.ndarray, x: np.ndarray, bound: int, geometric: bool = False
) -> np.ndarray | None:
    """One public round, in place, on a stack ``w`` shaped (..., 2 + E, K, N):
    per trial, the parties in rows 0 and 1, then E eavesdroppers, all seeing
    the trial's input ``x``, shaped (..., 1, K, N) or, with no trial axis,
    (K, N).

    Returns None, and nobody learns, when the parties' outputs differ in every
    trial. Else returns the mask (..., 2 + E) of rows that learned: in trials
    whose parties agree, those whose output is the public one, or under
    ``geometric`` all rows, each other one first flipping the sign of its
    unit with the smallest |local field| (the first on ties).
    """
    fields = (w * x).sum(axis=-1, dtype=np.int32)
    sigma = _signs(fields)
    taus = sigma.prod(axis=-1)
    learn = taus == taus[..., :1]
    agree = learn[..., 1]
    if agree.ndim:  # a trial whose parties disagree learns nothing
        if not np.count_nonzero(agree):
            return None
        learn &= agree[..., None]
    elif not agree:
        return None
    if geometric and not learn.all():
        rows = np.nonzero(~learn & agree[..., None])
        sigma[rows + (np.abs(fields[rows]).argmin(axis=-1),)] *= -1
        taus[rows] = taus[rows[:-1]][..., 0]
        learn[rows] = True
    # a row with tau 0 has no unit whose sign equals it, so it stays put
    _hebbian_inplace(w, x, sigma, (taus * learn)[..., None], bound)
    return learn


def _draw_inputs(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """The next chunk of uniform +/-1 input matrices from a seeded generator."""
    return rng.integers(0, 2, size=(_INPUT_CHUNK,) + shape, dtype=np.int32) * 2 - 1


def _inputs(rng: np.random.Generator, shape: tuple[int, int]) -> Iterator[np.ndarray]:
    """Input matrices from one seeded generator, one chunk at a time."""
    while True:
        yield from _draw_inputs(rng, shape)


_budget_cache: dict[TpmParams, int] = {}


def resolve_iteration_budget(params: TpmParams) -> int:
    """Automatic iteration budget: ten times the mean random-start
    synchronization length over a few fixed-seed pilot runs, run as one
    lockstep batch (cached)."""
    cached = _budget_cache.get(params)
    if cached is not None:
        return cached
    pairs, seeds = [], []
    for pilot in range(_PILOTS):
        entropy = np.random.SeedSequence([_PILOT_TAG, params.K, params.N, params.L, pilot])
        init_seed, sync_seed = (int(s) for s in entropy.generate_state(2, dtype=np.uint64))
        rng = np.random.default_rng(init_seed)
        pairs.append((Tpm.random(params, rng), Tpm.random(params, rng)))
        seeds.append(sync_seed)
    # a pilot that hits the cap counts at the cap
    config = SyncConfig(params, max_iterations=_PILOT_CAP)
    total = sum(t.iterations for t in synchronize_batch(pairs, config, seeds))
    budget = max(1_000, 10 * total // _PILOTS)
    _budget_cache[params] = budget
    return budget


def synchronize_from_weights(alice: Tpm, bob: Tpm, config: SyncConfig) -> SyncTranscript:
    """Run the mutual-learning loop until the machines coincide.

    Both machines are updated in place; on convergence their weights are
    identical. Raises NonConvergenceError (with the partial transcript) when
    the budget runs out first.
    """
    [transcript] = synchronize_batch([(alice, bob)], config, [config.seed])
    if not transcript.converged:
        budget = transcript.iterations
        source = "explicit max_iterations=" if config.max_iterations else "pilot budget "
        raise NonConvergenceError(
            f"no convergence within {budget} iterations ({source}{budget}) for {config.params}; "
            f"final party overlap {float((alice.weights == bob.weights).mean()):.4f}",
            transcript,
        )
    return transcript


def synchronize_batch(
    pairs: Sequence[tuple[Tpm, Tpm]], config: SyncConfig, seeds: Sequence[int]
) -> list[SyncTranscript]:
    """Synchronize independent machine pairs in lockstep under one config.

    Pair i draws its inputs from ``default_rng(seeds[i])``; the batch never
    reads ``config.seed``. So a pair's transcript and final weights equal
    those of ``synchronize_from_weights`` with ``seed=seeds[i]``; machines
    are updated in place. A pair that exhausts the budget gets a transcript
    with ``converged=False`` instead of an error.

    The pairs are rows of one (T, 2, K, N) stack that ``_exchange_round``
    advances together, with an int8 buffer of 64 inputs per trial
    (T * 64 * K * N bytes) refilled at the same round for every trial. A
    trial retires when it converges or reaches the budget; retired rows run
    on unread until fewer than half the rows are live, and then the stack,
    buffer and row ids are compacted.
    """
    if len(pairs) != len(seeds) or not pairs:
        raise ValueError("need one seed per machine pair, and at least one pair")
    params = config.params
    for alice, bob in pairs:
        if alice.params != bob.params:
            raise ValueError(f"machine shapes differ: {alice.params} vs {bob.params}")
        if params != alice.params:
            raise ValueError("config params do not match the machines")
    budget = config.max_iterations or resolve_iteration_budget(params)

    rngs = [np.random.default_rng(seed) for seed in seeds]
    w = np.array([(alice.weights, bob.weights) for alice, bob in pairs], dtype=np.int32)
    inputs = np.empty((len(pairs), _INPUT_CHUNK, 1, params.K, params.N), dtype=np.int8)
    # whether a trial's parties agreed, per round of the current input chunk
    agreed = np.zeros((len(pairs), _INPUT_CHUNK), dtype=bool)
    learning_steps = np.zeros(len(pairs), dtype=np.int64)  # before the chunk
    trial_of_row = np.arange(len(pairs))
    live = np.ones(len(pairs), dtype=bool)
    traces: list[list[tuple[int, float]]] | None = (
        [[] for _ in pairs] if config.record_overlap else None
    )
    transcripts: list[SyncTranscript] = [None] * len(pairs)  # type: ignore[list-item]

    remaining = len(pairs)
    iterations = 0
    digest_exchanges = 0  # every live trial checks digests at the same rounds
    learned = True  # after a round nobody learned in, no new pair coincides
    while True:
        converged = None
        if config.protocol_mode:
            if iterations and iterations % config.digest_check_interval == 0:
                digest_exchanges += 1
                converged = np.zeros(len(w), dtype=bool)
                for r in live.nonzero()[0]:
                    converged[r] = _weight_digest(w[r, 0]) == _weight_digest(w[r, 1])
        elif learned:
            # a pair that retired converged stays equal, so a count above
            # theirs means some live pair has just coincided
            flat = w.reshape(len(w), 2, -1)
            equal = (flat[:, 0] == flat[:, 1]).all(axis=1)
            if np.count_nonzero(equal) > len(w) - remaining:
                converged = equal & live
        done = live if iterations >= budget else converged
        retiring = () if done is None else done.nonzero()[0]
        if len(retiring):
            for r in retiring:
                trial = trial_of_row[r]
                alice, bob = pairs[trial]
                alice.weights[...] = w[r, 0]
                bob.weights[...] = w[r, 1]
                transcripts[trial] = SyncTranscript(
                    iterations=iterations,
                    learning_steps=int(learning_steps[r] + np.count_nonzero(agreed[r])),
                    digest_exchanges=digest_exchanges,
                    converged=converged is not None and bool(converged[r]),
                    overlap_trace=None if traces is None else traces[trial],
                )
            live[retiring] = False
            remaining -= len(retiring)
            if not remaining:
                return transcripts
            if 2 * remaining < len(w):
                w, inputs, agreed = w[live], inputs[live], agreed[live]
                trial_of_row, learning_steps = trial_of_row[live], learning_steps[live]
                live = live[live]

        slot = iterations % _INPUT_CHUNK
        if slot == 0:
            learning_steps += agreed.sum(axis=1)
            agreed[...] = False
            for r in live.nonzero()[0]:
                inputs[r, :, 0] = _draw_inputs(rngs[trial_of_row[r]], (params.K, params.N))
        iterations += 1
        if len(w) == 1:  # a lone trial skips the cost of the trial axis
            learn = _exchange_round(w[0], inputs[0, slot, 0], params.L)
        else:
            learn = _exchange_round(w, inputs[:, slot], params.L)
        learned = learn is not None
        if learned:
            agreed[:, slot] = learn[..., 0]
        if traces is not None:
            overlaps = (w[:, 0] == w[:, 1]).mean(axis=(1, 2))
            for r in live.nonzero()[0]:
                traces[trial_of_row[r]].append((iterations, float(overlaps[r])))


def seed_initial_overlap(base: Tpm, overlap: float, seed: int) -> Tpm:
    """Copy of ``base`` with exactly floor((1-overlap)*K*N) uniformly chosen
    positions replaced by a uniformly random *different* weight."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    params = base.params
    total = params.weight_count
    # epsilon guards against float noise in (1 - overlap) just below an integer
    count = int(np.floor((1.0 - overlap) * total + 1e-9))
    result = base.copy()
    if count == 0:
        return result
    rng = np.random.default_rng(seed)
    positions = rng.choice(total, size=count, replace=False)
    flat = result.weights.reshape(-1)
    old = flat[positions]
    # uniform over [-L, L] minus the current value
    draws = rng.integers(-params.L, params.L, size=count, dtype=np.int32)
    flat[positions] = draws + (draws >= old)
    return result


def reconcile(
    alice_key: BitKey, bob_key: BitKey, config: SyncConfig
) -> tuple[BitKey, BitKey, SyncTranscript]:
    """Three-step reconciliation: keys to weights, synchronize, weights to keys.

    Returns both parties' final keys and the one public transcript; on
    convergence the keys are bit-identical and have length K*N*b. Key bits
    beyond K*N*b are dropped (the count is recorded on the transcript).
    """
    params = config.params
    alice = bits_to_weights(alice_key, params)
    bob = bits_to_weights(bob_key, params)
    dropped = alice_key.length - params.key_bits
    try:
        transcript = synchronize_from_weights(alice, bob, config)
    except NonConvergenceError as err:
        err.transcript.truncated_bits = dropped
        raise
    transcript.truncated_bits = dropped
    return weights_to_bits(alice), weights_to_bits(bob), transcript
