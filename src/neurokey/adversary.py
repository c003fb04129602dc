"""Eavesdropper simulations against the mutual-learning channel.

Eve sees every input matrix and both public +/-1 outputs. Three strategies:

* passive: Eve applies the learning rule only on rounds where her own output
  matches the agreed one (when the parties disagree, nobody learns).
* geometric: when Eve disagrees with an agreed output, she flips the hidden
  unit with the smallest absolute local field and learns anyway.
* ensemble: several independent passive machines; the best one counts.

The parties and all Eves are rows of one weight stack, advanced by the kernel
of plain synchronization (``sync._exchange_rounds``); which Eves learn is a
mask over the rows, not a per-Eve step. Every row that learns outputs the
public bit, so all of them move by one masked add of the input times that
bit, after a geometric Eve's flip of her weakest unit.

The race watches for two events, and both are absorbing: once the parties'
weights are equal they stay equal, and once an Eve's weights equal Alice's her
output is always the public one, so she makes Alice's exact update or nobody
learns. Both are checked once before the first round, so a pair or an Eve
that starts equal to Alice reads round 0, as in ``synchronize_batch``. Then
the kernel's stop flags are the only test: each of sync's blocks, up to the
end of the input chunk or the budget, runs first on a copy of the flags at a
cadence of its length, compared once after its last round. A block whose copy
shows fewer differing rows is restored from its saved start and re-run under
the flags at cadence 1, so each event reads the round it happened on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# LeakageEstimate and leakage_after live in sync and are re-exported here
from .sync import (
    LeakageEstimate,
    SyncTranscript,
    _INPUT_CHUNK,
    _draw_inputs,
    _exchange_rounds,
    _stack_dtype,
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
    # best machine's overlap at the round the parties first coincided
    # (-1.0 when they never did within the budget)
    best_overlap_at_convergence: float = -1.0


def run_attack(
    alice: Tpm, bob: Tpm, seed: int, attack: AttackConfig, record_overlap: bool = False
) -> tuple[SyncTranscript, AttackResult]:
    """Synchronize Alice and Bob while Eve eavesdrops on every round.

    ``seed`` spawns two seeds: one for the PCG64 stream of public inputs and
    one for Eve's start. The exchange keeps running for the full attack
    budget (the parties keep learning after they coincide), so Eve is
    measured against the complete public stream. The run ends early only if
    some Eve machine reaches full overlap. The returned transcript describes
    the Alice/Bob process, frozen at their convergence round;
    ``record_overlap`` also traces the parties' overlap, and then every block
    is one round, as in a traced sync. The caller's machines are not
    modified; the race runs on internal copies.
    """
    if alice.params != bob.params:
        raise ValueError(f"machine shapes differ: {alice.params} vs {bob.params}")
    params = alice.params
    input_seq, eve_seq = np.random.SeedSequence(seed).spawn(2)
    input_stream = np.random.PCG64(input_seq)
    eve_rng = np.random.default_rng(eve_seq)

    w = np.empty((2 + attack.ensemble_size, params.K, params.N), dtype=_stack_dtype(params))
    w[:2] = alice.weights, bob.weights
    eves = w[2:]
    for eve in eves:
        if attack.eve_initial_overlap is None:
            eve[...] = Tpm.random(params, eve_rng).weights
        else:
            eve_seed = int(eve_rng.integers(0, 2**63, dtype=np.uint64))
            eve[...] = seed_initial_overlap(alice, attack.eve_initial_overlap, eve_seed).weights

    budget = attack.iteration_budget
    iterations = 0
    steps = 0  # the parties' learning steps: they learn on every agreed round
    learned = np.empty((_INPUT_CHUNK, len(w)), dtype=bool)  # per round of a block
    # (round, learning steps, best Eve overlap) when the parties first coincide
    at_convergence: tuple[int, int, float] | None = None
    geometric = attack.strategy == "geometric"
    trace: list[tuple[int, float]] | None = [] if record_overlap else None
    saved_w = np.empty_like(w)  # a block's start, for a re-run

    def best_eve_overlap() -> float:
        return float((eves == w[0]).mean(axis=(1, 2)).max())

    differ = (w[1:] != w[0]).any(axis=(1, 2))  # Bob and the Eves against Alice: the kernel's stop flags
    while True:
        if at_convergence is None and not differ[0]:
            at_convergence = (iterations, steps, best_eve_overlap())
        if iterations >= budget or not differ[1:].all():
            break
        slot = iterations % _INPUT_CHUNK
        if slot == 0:
            chunk = _draw_inputs(input_stream, (params.K, params.N)).astype(w.dtype)
        end = slot + 1 if trace is not None else min(_INPUT_CHUNK, slot + budget - iterations)
        np.copyto(saved_w, w)
        block = differ.copy()  # compared once, after the block's last round
        rounds = _exchange_rounds(w, chunk[slot:end], params.L, learned, geometric, differ=block, cadence=end - slot)
        if np.count_nonzero(block) < np.count_nonzero(differ):
            # an event: run the block again, stopping right after its round
            np.copyto(w, saved_w)
            rounds = _exchange_rounds(w, chunk[slot:end], params.L, learned, geometric, differ=differ)
        steps += int(np.count_nonzero(learned[:rounds, 0]))
        iterations += rounds
        if trace is not None:
            trace.append((iterations, float((w[0] == w[1]).mean())))

    best_overlap = best_eve_overlap()
    rounds, party_steps, overlap_at_convergence = at_convergence or (iterations, steps, -1.0)
    transcript = SyncTranscript(
        iterations=rounds,
        learning_steps=party_steps,
        digest_exchanges=0,
        converged=at_convergence is not None,
        overlap_trace=trace,
    )
    result = AttackResult(
        best_overlap=best_overlap,
        synced=best_overlap == 1.0,
        iterations_observed=iterations,
        best_overlap_at_convergence=overlap_at_convergence,
    )
    return transcript, result
