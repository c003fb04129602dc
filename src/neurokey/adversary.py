"""Eavesdropper simulations against the mutual-learning channel.

Eve sees every input matrix and both public +/-1 outputs. Three strategies:

* passive: Eve applies the learning rule only on rounds where her own output
  matches the agreed one (when the parties disagree, nobody learns).
* geometric: when Eve disagrees with an agreed output, she flips the hidden
  unit with the smallest absolute local field and learns anyway.
* ensemble: several independent passive machines; the best one counts.

The parties and all Eves are rows of one weight stack, advanced each round by
the kernel of plain synchronization (``sync._exchange_round``); which Eves
learn is a mask over the rows, not a per-Eve step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# LeakageEstimate and leakage_after live in sync and are re-exported here
from .sync import (
    LeakageEstimate,
    SyncConfig,
    SyncTranscript,
    _exchange_round,
    _inputs,
    leakage_after,
    seed_initial_overlap,
)
from .tpm import Tpm

__all__ = [
    "AttackConfig",
    "AttackResult",
    "LeakageEstimate",
    "STRATEGIES",
    "leakage_after",
    "run_attack",
]

STRATEGIES = ("passive", "geometric", "ensemble")


@dataclass(frozen=True)
class AttackConfig:
    """Attacker strategy and budget for one eavesdropping run."""

    strategy: str = "passive"
    ensemble_size: int = 1
    iteration_budget: int = 1000
    # None keeps Eve fully uninformed (random start); a fraction models a
    # partially informed attacker for sensitivity studies.
    eve_initial_overlap: float | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        if self.strategy != "ensemble" and self.ensemble_size != 1:
            raise ValueError("ensemble_size must be 1 unless strategy is 'ensemble'")
        if self.iteration_budget < 1:
            raise ValueError("iteration_budget must be >= 1")
        if self.eve_initial_overlap is not None and not 0.0 <= self.eve_initial_overlap <= 1.0:
            raise ValueError("eve_initial_overlap must be in [0, 1]")


@dataclass(frozen=True)
class AttackResult:
    """Attacker-side outcome of one run."""

    best_overlap: float
    synced: bool
    iterations_observed: int
    per_machine_overlap: list[float]
    eve_learning_steps: list[int]
    # total rounds where the parties agreed (Eve can never learn on more)
    exchange_learning_steps: int
    # best machine's overlap at the round the parties first coincided
    # (-1.0 when they never did within the budget)
    best_overlap_at_convergence: float = -1.0
    eve_overlap_trace: list[tuple[int, float]] | None = None


def run_attack(
    alice: Tpm, bob: Tpm, config: SyncConfig, attack: AttackConfig
) -> tuple[SyncTranscript, AttackResult]:
    """Synchronize Alice and Bob while Eve eavesdrops on every round.

    The exchange keeps running for the full attack budget (the parties keep
    learning after they coincide), so Eve is measured against the complete
    public stream. The run ends early only if some Eve machine reaches full
    overlap. The returned transcript describes the Alice/Bob process, frozen
    at their convergence round. The caller's machines are not modified; the
    race runs on internal copies.
    """
    if alice.params != bob.params:
        raise ValueError(f"machine shapes differ: {alice.params} vs {bob.params}")
    if config.params != alice.params:
        raise ValueError("config params do not match the machines")
    params = alice.params
    input_seq, eve_seq = np.random.SeedSequence(config.seed).spawn(2)
    inputs = _inputs(np.random.default_rng(input_seq), (params.K, params.N))
    eve_rng = np.random.default_rng(eve_seq)

    w = np.empty((2 + attack.ensemble_size, params.K, params.N), dtype=np.int32)
    w[:2] = alice.weights, bob.weights
    eves = w[2:]
    for eve in eves:
        if attack.eve_initial_overlap is None:
            eve[...] = Tpm.random(params, eve_rng).weights
        else:
            eve_seed = int(eve_rng.integers(0, 2**63, dtype=np.uint64))
            eve[...] = seed_initial_overlap(alice, attack.eve_initial_overlap, eve_seed).weights

    iterations = 0
    ab_learning = 0
    ab_converged_at = 0  # the round the parties first coincide; 0 until then
    ab_learning_at = 0
    overlap_at_convergence = -1.0
    eve_learning = np.zeros(len(eves), dtype=np.int64)
    geometric = attack.strategy == "geometric"
    trace: list[tuple[int, float]] | None = [] if config.record_overlap else None
    eve_trace: list[tuple[int, float]] | None = [] if config.record_overlap else None

    eve_synced = False
    while iterations < attack.iteration_budget and not eve_synced:
        iterations += 1
        learn = _exchange_round(w, next(inputs), params.L, geometric)
        if learn is not None:
            ab_learning += 1
            eve_learning += learn[2:]
        if not ab_converged_at and np.array_equal(w[0], w[1]):
            ab_converged_at, ab_learning_at = iterations, ab_learning
            overlap_at_convergence = float((eves == w[0]).mean(axis=(1, 2)).max())
        if trace is not None and eve_trace is not None:
            trace.append((iterations, float((w[0] == w[1]).mean())))
            eve_trace.append((iterations, float((eves == w[0]).mean(axis=(1, 2)).max())))
        eve_synced = bool((eves == w[0]).all(axis=(1, 2)).any())

    per_machine = (eves == w[0]).mean(axis=(1, 2)).tolist()
    best_overlap = max(per_machine)
    transcript = SyncTranscript(
        iterations=ab_converged_at or iterations,
        learning_steps=ab_learning_at if ab_converged_at else ab_learning,
        digest_exchanges=0,
        converged=ab_converged_at > 0,
        overlap_trace=trace,
    )
    result = AttackResult(
        best_overlap=best_overlap,
        synced=best_overlap == 1.0,
        iterations_observed=iterations,
        per_machine_overlap=per_machine,
        eve_learning_steps=eve_learning.tolist(),
        exchange_learning_steps=ab_learning,
        best_overlap_at_convergence=overlap_at_convergence,
        eve_overlap_trace=eve_trace,
    )
    return transcript, result
