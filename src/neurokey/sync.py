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
from dataclasses import dataclass
from typing import Iterator

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
    "ReconciliationResult",
    "SyncConfig",
    "SyncTranscript",
    "leakage_after",
    "reconcile",
    "resolve_iteration_budget",
    "seed_initial_overlap",
    "synchronize_from_weights",
]

# Size of the weight digest exchanged in protocol mode.
DIGEST_BITS = 64

# Input matrices pre-drawn per RNG call inside the round loop.
_INPUT_CHUNK = 256

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
    """Public-channel record of one synchronization session.

    Serialized record field order: iterations, learning_steps,
    digest_exchanges, converged, truncated_bits, overlap_trace.
    """

    iterations: int
    learning_steps: int
    digest_exchanges: int
    converged: bool
    overlap_trace: list[tuple[int, float]] | None = None
    truncated_bits: int = 0

    RECORD_FIELDS = (
        "iterations",
        "learning_steps",
        "digest_exchanges",
        "converged",
        "truncated_bits",
        "overlap_trace",
    )

    @property
    def disclosed_bits(self) -> int:
        """Digest bits published for termination checks (0 in simulation mode)."""
        return DIGEST_BITS * self.digest_exchanges

    def to_record(self) -> str:
        """One-line JSON record with the documented field order."""
        payload = {name: getattr(self, name) for name in self.RECORD_FIELDS}
        return json.dumps(payload, separators=(",", ":"))


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


@dataclass(frozen=True)
class ReconciliationResult:
    """One party's view after reconciliation: corrected key, session record,
    and the public-information accounting for it."""

    final_key: BitKey
    transcript: SyncTranscript
    leakage: LeakageEstimate


def _weight_digest(weights: np.ndarray) -> bytes:
    data = np.ascontiguousarray(weights, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=DIGEST_BITS // 8).digest()


def _exchange_round(
    w: np.ndarray, x: np.ndarray, bound: int, geometric: bool = False
) -> np.ndarray | None:
    """One public round, in place, on a stack ``w`` shaped (2 + E, K, N): the
    parties in rows 0 and 1, then E eavesdroppers, all seeing the input ``x``.

    Returns None, and nobody learns, when the parties' outputs differ. Else
    returns the mask of rows that learned: those whose output is the public
    one, or under ``geometric`` all rows, each other one first flipping the
    sign of its unit with the smallest |local field| (the first on ties).
    """
    fields = (w * x).sum(axis=2)
    sigma = _signs(fields)
    taus = sigma.prod(axis=1)
    if taus[0] != taus[1]:
        return None
    learn = taus == taus[0]
    if geometric and not learn.all():
        rows = np.flatnonzero(~learn)
        sigma[rows, np.abs(fields[rows]).argmin(axis=1)] *= -1
        taus[rows] = taus[0]
        learn[rows] = True
    # a row with tau 0 has no unit whose sign equals it, so it stays put
    _hebbian_inplace(w, x, sigma, (taus * learn)[:, None], bound)
    return learn


def _inputs(rng: np.random.Generator, shape: tuple[int, int]) -> Iterator[np.ndarray]:
    """Uniform +/-1 input matrices from one seeded generator, drawn in chunks."""
    while True:
        yield from rng.integers(0, 2, size=(_INPUT_CHUNK,) + shape, dtype=np.int32) * 2 - 1


_budget_cache: dict[TpmParams, int] = {}


def resolve_iteration_budget(params: TpmParams) -> int:
    """Automatic iteration budget: ten times the mean random-start
    synchronization length over a few fixed-seed pilot runs (cached)."""
    cached = _budget_cache.get(params)
    if cached is not None:
        return cached
    total = 0
    for pilot in range(_PILOTS):
        entropy = np.random.SeedSequence([_PILOT_TAG, params.K, params.N, params.L, pilot])
        init_seed, sync_seed = (int(s) for s in entropy.generate_state(2, dtype=np.uint64))
        rng = np.random.default_rng(init_seed)
        a = Tpm.random(params, rng)
        b = Tpm.random(params, rng)
        config = SyncConfig(params, max_iterations=_PILOT_CAP, seed=sync_seed)
        try:
            total += synchronize_from_weights(a, b, config).iterations
        except NonConvergenceError:
            total += _PILOT_CAP
    budget = max(1_000, 10 * total // _PILOTS)
    _budget_cache[params] = budget
    return budget


def synchronize_from_weights(alice: Tpm, bob: Tpm, config: SyncConfig) -> SyncTranscript:
    """Run the mutual-learning loop until the machines coincide.

    Both machines are updated in place; on convergence their weights are
    identical. Raises NonConvergenceError (with the partial transcript) when
    the budget runs out first.
    """
    if alice.params != bob.params:
        raise ValueError(f"machine shapes differ: {alice.params} vs {bob.params}")
    if config.params != alice.params:
        raise ValueError("config params do not match the machines")
    params = alice.params
    budget = config.max_iterations or resolve_iteration_budget(params)

    inputs = _inputs(np.random.default_rng(config.seed), (params.K, params.N))
    w = np.stack([alice.weights, bob.weights]).astype(np.int32)

    iterations = 0
    learning_steps = 0
    digest_exchanges = 0
    trace: list[tuple[int, float]] | None = [] if config.record_overlap else None

    while True:
        if config.protocol_mode:
            checked = iterations > 0 and iterations % config.digest_check_interval == 0
            digest_exchanges += checked
            converged = checked and _weight_digest(w[0]) == _weight_digest(w[1])
        else:
            converged = np.array_equal(w[0], w[1])
        if converged or iterations >= budget:
            break

        iterations += 1
        if _exchange_round(w, next(inputs), params.L) is not None:
            learning_steps += 1
        if trace is not None:
            trace.append((iterations, float((w[0] == w[1]).mean())))

    alice.weights[...] = w[0]
    bob.weights[...] = w[1]
    transcript = SyncTranscript(
        iterations=iterations,
        learning_steps=learning_steps,
        digest_exchanges=digest_exchanges,
        converged=converged,
        overlap_trace=trace,
    )
    if not converged:
        source = "explicit max_iterations=" if config.max_iterations else "pilot budget "
        raise NonConvergenceError(
            f"no convergence within {budget} iterations ({source}{budget}) for {params}; "
            f"final party overlap {float((w[0] == w[1]).mean()):.4f}",
            transcript,
        )
    return transcript


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
) -> tuple[ReconciliationResult, ReconciliationResult]:
    """Three-step reconciliation: keys to weights, synchronize, weights to keys.

    Returns one result per party; on convergence the final keys are
    bit-identical and have length K*N*b. Key bits beyond K*N*b are dropped
    (the count is recorded on the transcript).
    """
    params = config.params
    alice = bits_to_weights(alice_key, params)
    bob = bits_to_weights(bob_key, params)
    try:
        transcript = synchronize_from_weights(alice, bob, config)
    except NonConvergenceError as err:
        err.transcript.truncated_bits = alice_key.length - params.key_bits
        raise
    transcript.truncated_bits = alice_key.length - params.key_bits
    leakage = leakage_after(transcript.iterations, params)
    return (
        ReconciliationResult(weights_to_bits(alice), transcript, leakage),
        ReconciliationResult(weights_to_bits(bob), transcript, leakage),
    )
