"""Mutual synchronization of two tree parity machines over a simulated
public channel, the three-step key-reconciliation flow built on it (load keys
into weights, synchronize, dump weights back to bits), the accounting of what
the public outputs leak, and an eavesdropper's race on the same inputs.

Per round, one party draws a random input matrix, both evaluate, and the
+/-1 outputs are exchanged; on agreement both apply the bounded Hebbian
update. An "iteration" is one input draw plus output exchange whether or
not learning happens; learning steps are counted separately.

A session stops at the first comparison that finds the weight matrices
equal, made at one of two cadences:

* simulation mode (default): an oracle compares them every iteration. Used
  for experiment statistics.
* protocol mode: a 64-bit digest exchange every ``digest_check_interval``
  iterations, counted as disclosed bits; it compares exactly (no collision).

In a race (``run_attack``) Eve sees every input matrix and both public +/-1
outputs. Three strategies:

* passive: Eve applies the learning rule only on rounds where her own output
  matches the agreed one (when the parties disagree, nobody learns).
* geometric: when Eve disagrees with an agreed output, she flips the hidden
  unit with the smallest absolute local field and learns anyway.
* ensemble: several independent passive machines; the best one counts.

The parties and all Eves are rows of one lone stack of the kernel
(``_exchange_rounds``), so which Eves learn is a mask over the rows. The race
watches for two events, and both are absorbing: once the parties' weights are
equal they stay equal, and once an Eve's weights equal Alice's her output is
always the public one, so she makes Alice's exact update or nobody learns.
Both are checked once before the first round, so a pair or an Eve that starts
equal to Alice reads round 0, as in ``synchronize_batch``. Then the kernel's
stop flags are the only test: each block of a sync batch, up to the end of the
input chunk or the budget, runs first on a copy of the flags at a cadence of
its length, compared once after its last round. A block whose copy shows fewer
differing rows is restored from its saved start and re-run under the flags at
cadence 1, so each event reads the round it happened on.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
# the clip ufunc, one call for minimum and maximum, without np.clip's costly wrapper
from numpy._core.umath import clip as clamp

from .tpm import BitKey, ScenarioError, Tpm, TpmParams, bits_to_weights, weight_overlap, weights_to_bits

__all__ = [
    "AttackConfig",
    "AttackResult",
    "DIGEST_BITS",
    "LeakageEstimate",
    "NonConvergenceError",
    "STRATEGIES",
    "SyncConfig",
    "SyncTranscript",
    "changed_weight_count",
    "leakage_after",
    "reconcile",
    "resolve_iteration_budget",
    "run_attack",
    "seed_initial_overlap",
    "synchronize_batch",
    "synchronize_from_weights",
]

# Size of the weight digest exchanged in protocol mode.
DIGEST_BITS = 64

# Input matrices pre-drawn per RNG call inside the round loop. It must stay
# even, so that a chunk of K*N-element matrices reads whole PCG64 words.
_INPUT_CHUNK = 64

# Pilot runs averaged for an automatic budget, and the hard cap on each.
_PILOTS = 5
_PILOT_CAP = 500_000
_PILOT_TAG = 0x6E6B7069  # arbitrary fixed salt for pilot seeds

# _pilot_budget of every shape the bundled scenarios and the CLI defaults use,
# all at L=2, keyed (K, N), so that no process reruns their pilots.
_PINNED_BUDGETS = {
    (6, 8): 2384,
    (6, 20): 1538, (6, 21): 2292, (6, 22): 3004, (6, 23): 2898, (6, 24): 2416, (6, 25): 2822,
    (8, 20): 2652, (8, 21): 3200, (8, 22): 3264, (8, 23): 2716, (8, 24): 3284, (8, 25): 4002,
    (10, 20): 4092, (10, 21): 3726, (10, 22): 3800, (10, 23): 4728, (10, 24): 4162, (10, 25): 3576,
    (6, 30): 3190, (8, 30): 4336, (10, 30): 4768, (12, 30): 4850,
    (6, 50): 2848, (8, 50): 3156, (10, 50): 4686, (12, 50): 6416,
}


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
    """How a synchronization session ends; the shape comes from the machines.

    ``max_iterations=None`` resolves to ten times the pilot-measured mean of
    random-start runs for the same shape (see resolve_iteration_budget).
    ``digest_check_interval`` (None: 10) applies only in protocol mode, where
    a session stops only on a digest round: a budget shorter than the interval
    is a ScenarioError, here if explicit and in synchronize_batch if pilot.
    """

    max_iterations: int | None = None
    digest_check_interval: int | None = None
    protocol_mode: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ScenarioError("max_iterations must be >= 1")
        if self.digest_check_interval is None and self.protocol_mode:
            object.__setattr__(self, "digest_check_interval", 10)
        elif self.digest_check_interval is not None and self.digest_check_interval < 1:
            raise ScenarioError("digest_check_interval must be >= 1")
        elif self.digest_check_interval is not None and not self.protocol_mode:
            raise ScenarioError("digest_check_interval applies only in protocol mode")
        interval, budget = self.digest_check_interval, self.max_iterations
        if self.protocol_mode and budget is not None and interval > budget:
            raise ScenarioError(f"digest interval {interval} exceeds the budget (explicit max_iterations={budget})")


@dataclass
class SyncTranscript:
    """Public-channel record of one synchronization session, serialized in field order."""

    iterations: int
    learning_steps: int
    digest_exchanges: int
    converged: bool
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


def _exchange_rounds(
    w: np.ndarray,
    xs: np.ndarray,
    bound: int,
    learned: np.ndarray,
    geometric: bool = False,
    *,
    differ: np.ndarray,
    start: int = 0,
    cadence: int = 1,
) -> int:
    """Public rounds, in place, one per input of ``xs``, on one of two stacks:
    a lone stack ``w`` shaped (2 + E, K, N), the parties in rows 0 and 1 and
    then E eavesdroppers, with inputs (n, K, N); or a parties-only trial
    stack (T, 2, K, N), each trial with its own inputs, (n, T, 1, K, N).

    ``learned[i]`` receives round i's mask of the rows that learned, shaped
    (2 + E) or (T, 2). It is all False, as nobody learns, where the parties'
    outputs differ (in a trial, whose round still runs, by steps of zero).
    Else it holds the rows whose output is the public one, or in a lone stack
    under ``geometric`` all rows, each other one first flipping the sign of
    its unit with the smallest |local field| (the first on ties).

    ``differ``, which every call passes, flags each row after its stack's
    first whose weights differ from that first row's: Bob and every Eve of a
    lone stack, (1 + E,), or each trial's Bob, (T, 1); a batch's lone pair
    keeps (1, 1). The kernel sets them after each round whose number in the
    session (``start`` rounds precede the block) is a multiple of ``cadence``
    and ends the block right after the first such round in which fewer
    flagged rows differ than on entry. Returns the rounds run.

    A unit's sign is -1 where its local field is <= 0, and a row's output is
    -1 where an odd number of its signs are. A learning row outputs the
    public tau, so its moving units are those whose sign is tau, and each
    steps by x * tau before the clamp to [-bound, bound]. In a lone stack the
    move mask overwrites the sign masks in one call: learn and negative where
    the scalar tau is -1, and learn > negative where it is +1.
    """
    # views, scratch buffers and ufuncs are set up once per block, and each
    # round's ufuncs write into them
    vecdot, less_equal, equal, logical_and = np.vecdot, np.less_equal, np.equal, np.logical_and
    xor_reduce, count_nonzero = np.logical_xor.reduce, np.count_nonzero
    zero, lower, upper = (np.array(v, dtype=w.dtype) for v in (0, -bound, bound))
    field = np.empty(w.shape[:-1], dtype=w.dtype)
    negative = np.empty(field.shape, dtype=bool)
    odd = np.empty(w.shape[:-2], dtype=bool)
    lone = w.ndim == 3
    check = -(start + 1) % cadence  # the next compared round
    first, others = w[..., :1, :, :], w[..., 1:, :, :]
    unequal = np.empty(others.shape, dtype=bool)
    unequal_by_row = unequal.reshape(differ.shape + (-1,))  # fresh scratch, so a view
    entry = count_nonzero(differ)
    if lone:  # tau is one scalar, so one masked add or subtract
        greater, add, subtract = np.greater, np.add, np.subtract
        move = negative[..., None]
    else:  # a trial's learn mask is its parties' agreement, twice
        public = odd[..., :1, None]  # broadcasts over each trial's units
        partner = odd[..., ::-1]
        step = np.empty(negative.shape, dtype=w.dtype)  # +1 on moving units, negated where tau is -1
        steps = step[..., None]
        delta = np.empty_like(w)
    for i, (x, learn, learn_units) in enumerate(zip(xs, learned, learned[..., None])):
        # one vecdot takes every row's K dot products, exact in integers, at
        # less per call than a matmul over (..., 1, N) @ (..., N, 1) views
        vecdot(w, x, out=field)
        less_equal(field, zero, out=negative)
        xor_reduce(negative, axis=-1, out=odd)
        if lone:
            tau_negative = odd[0]  # a ufunc takes a scalar faster than a broadcast view
            equal(odd, tau_negative, out=learn)
            if learn[1]:
                if geometric:
                    # a Python list tests a few flags faster than numpy's all()
                    flags = learn.tolist()
                    if not all(flags):
                        for row, agrees in enumerate(flags):
                            if not agrees:
                                unit = np.abs(field[row]).argmin()
                                negative[row, unit] = not negative[row, unit]
                        learn[...] = True
                if tau_negative:
                    logical_and(negative, learn_units, out=negative)
                    subtract(w, x, out=w, where=move)
                else:
                    greater(learn_units, negative, out=negative)
                    add(w, x, out=w, where=move)
                clamp(w, lower, upper, out=w)
            else:  # nobody moves
                learn[...] = False
                if cadence == 1:  # so the flags compared after the last round stand
                    check += 1
                    continue
        else:
            equal(odd, partner, out=learn)
            equal(negative, public, out=negative)
            logical_and(negative, learn_units, out=step)
            np.negative(step, out=step, where=public)
            np.multiply(x, steps, out=delta)
            np.add(w, delta, out=w)
            clamp(w, lower, upper, out=w)
        if i == check:
            np.not_equal(others, first, out=unequal)
            np.logical_or.reduce(unequal_by_row, axis=-1, out=differ)
            if count_nonzero(differ) < entry:
                return i + 1
            check += cadence
    return len(xs)


def _draw_inputs(stream: np.random.PCG64, shape: tuple[int, int]) -> np.ndarray:
    """The next chunk of uniform +/-1 input matrices from a seeded PCG64
    stream: chunk after chunk, the int32 values that
    ``default_rng(seed).integers(0, 2, size, dtype=np.int32) * 2 - 1`` gives.

    With a range of 2, ``integers`` keeps the top bit of each 32-bit draw and
    never rejects one, and PCG64 hands out each 64-bit word as its low half,
    then its high half. So each raw word, read as little-endian int32 halves h,
    low then high on any host, gives two inputs; a set top bit (h < 0) maps to
    +1 and a clear one to -1, as ``-((h >> 30) | 1)``.
    """
    count = _INPUT_CHUNK * math.prod(shape)
    halves = stream.random_raw(count // 2).astype("<u8", copy=False).view("<i4")
    return (-((halves >> 30) | 1)).reshape((_INPUT_CHUNK,) + shape)


def _stack_dtype(params: TpmParams) -> type[np.signedinteger]:
    """int16 where every local field fits, |h| <= L * N <= 32767, else int32."""
    return np.int16 if params.L * params.N <= np.iinfo(np.int16).max else np.int32


def resolve_iteration_budget(params: TpmParams) -> int:
    """Automatic iteration budget: ten times the mean random-start
    synchronization length over a few fixed-seed pilot runs. A shipped shape
    reads it from ``_PINNED_BUDGETS``; any other runs the pilots once per
    process."""
    pinned = _PINNED_BUDGETS.get((params.K, params.N)) if params.L == 2 else None
    return pinned or _pilot_budget(params)


@functools.cache
def _pilot_budget(params: TpmParams) -> int:
    """The pilots behind an automatic budget, run as one lockstep batch (cached)."""
    pairs, seeds = [], []
    for pilot in range(_PILOTS):
        entropy = np.random.SeedSequence([_PILOT_TAG, params.K, params.N, params.L, pilot])
        init_seed, sync_seed = (int(s) for s in entropy.generate_state(2, dtype=np.uint64))
        rng = np.random.default_rng(init_seed)
        pairs.append((Tpm.random(params, rng), Tpm.random(params, rng)))
        seeds.append(sync_seed)
    # a pilot that hits the cap counts at the cap
    total = sum(t.iterations for t in synchronize_batch(pairs, SyncConfig(max_iterations=_PILOT_CAP), seeds))
    return max(1_000, 10 * total // _PILOTS)


def synchronize_from_weights(
    alice: Tpm, bob: Tpm, config: SyncConfig, seed: int, record_overlap: bool = False
) -> SyncTranscript:
    """Run the mutual-learning loop on inputs from the PCG64 stream of
    ``seed`` until the machines coincide; ``record_overlap`` traces the party
    overlap per round.

    Both machines are updated in place; on convergence their weights are
    identical. Raises NonConvergenceError (with the partial transcript) when
    the budget runs out first.
    """
    [transcript] = synchronize_batch([(alice, bob)], config, [seed], record_overlap)
    if not transcript.converged:
        budget = transcript.iterations
        source = "explicit max_iterations=" if config.max_iterations else "pilot budget "
        digests = f"; {transcript.digest_exchanges} digest exchanges, one every {config.digest_check_interval} rounds"
        raise NonConvergenceError(
            f"no convergence within {budget} iterations ({source}{budget}) for {alice.params}; "
            f"final party overlap {weight_overlap(alice, bob):.4f}" + (digests if config.protocol_mode else ""),
            transcript,
        )
    return transcript


def synchronize_batch(
    pairs: Sequence[tuple[Tpm, Tpm]], config: SyncConfig, seeds: Sequence[int], record_overlap: bool = False
) -> list[SyncTranscript]:
    """Synchronize machine pairs of one shape in lockstep under one config.

    Pair i draws its inputs from its own ``PCG64(seeds[i])``, so its transcript
    and final weights equal those of ``synchronize_from_weights`` with
    ``seeds[i]``; machines are updated in place. A pair that exhausts the
    budget gets a transcript with ``converged=False`` instead of an error.

    The pairs are rows of one (T, 2, K, N) stack of one integer dtype, int16
    where every local field fits (L * N <= 32767) and else int32, with a
    buffer of 64 inputs per trial in that dtype (T * 64 * K * N elements, 2
    or 4 bytes each) refilled at the same round for every trial.
    ``_exchange_rounds`` advances the stack a block of rounds per call, up to
    the end of the input chunk or the budget, or one round in a traced run.
    Each call allocates its scratch buffers once, the largest a delta of
    T * 2 * K * N elements in the stack dtype. Each block's learn masks are
    added to the learning steps right after the call. The kernel keeps each
    trial's flag of whether Bob differs from Alice, (T, 1), set every round
    in simulation mode and at each digest exchange in protocol mode, where
    they start set. It stops a block by its one rule, which an attack race
    shares: right after the compared round in which a live pair coincides,
    so that pair retires at that round, its flag clear.

    A trial retires when it converges or reaches the budget; retired rows run
    on unread until fewer than half the rows are live, and then the stack,
    buffer, flags and row ids are compacted.
    """
    if len(pairs) != len(seeds) or not pairs:
        raise ValueError("need one seed per machine pair, and at least one pair")
    params = pairs[0][0].params
    other = next((m.params for pair in pairs for m in pair if m.params != params), None)
    if other is not None:
        raise ValueError(f"machine shapes differ: {params} vs {other}")
    budget = config.max_iterations or resolve_iteration_budget(params)
    interval = config.digest_check_interval or 1
    if interval > budget:  # only a pilot budget gets here; SyncConfig rejects an explicit one
        raise ScenarioError(f"digest interval {interval} exceeds the budget (pilot budget {budget})")

    streams = [np.random.PCG64(seed) for seed in seeds]
    dtype = _stack_dtype(params)
    w = np.array([(alice.weights, bob.weights) for alice, bob in pairs], dtype=dtype)
    inputs = np.empty((_INPUT_CHUNK, len(pairs), 1, params.K, params.N), dtype=dtype)
    learned = np.empty((_INPUT_CHUNK, len(pairs), 2), dtype=bool)  # which rows learned, per round of a block
    learning_steps = np.zeros(len(pairs), dtype=np.int64)
    # whether each trial's Bob differs from its Alice, as of the last comparison (protocol mode: none yet)
    differ = (w[:, 1:] != w[:, :1]).any(axis=(2, 3)) | config.protocol_mode
    trial_of_row = np.arange(len(pairs))
    live = np.ones(len(pairs), dtype=bool)
    traces: list[list[tuple[int, float]]] | None = [[] for _ in pairs] if record_overlap else None
    transcripts: list[SyncTranscript] = [None] * len(pairs)  # type: ignore[list-item]

    iterations = 0
    while True:
        converged = live & ~differ[:, 0]
        retiring = (live if iterations >= budget else converged).nonzero()[0]
        if len(retiring):
            for r in retiring:
                trial = trial_of_row[r]
                for machine, weights in zip(pairs[trial], w[r]):
                    machine.weights[...] = weights
                transcripts[trial] = SyncTranscript(
                    iterations=iterations,
                    learning_steps=int(learning_steps[r]),
                    digest_exchanges=iterations // interval if config.protocol_mode else 0,
                    converged=bool(converged[r]),
                    overlap_trace=None if traces is None else traces[trial],
                )
            live[retiring] = False
            if not live.any():
                return transcripts
            if 2 * np.count_nonzero(live) < len(w):
                w, inputs, differ = w[live], inputs[:, live], differ[live]
                trial_of_row, learning_steps = trial_of_row[live], learning_steps[live]
                live = live[live]

        slot = iterations % _INPUT_CHUNK
        if slot == 0:
            for r in live.nonzero()[0]:
                inputs[:, r, 0] = _draw_inputs(streams[trial_of_row[r]], (params.K, params.N))
        # a block runs to the chunk's end or the budget, or with a trace one round
        end = min(_INPUT_CHUNK, slot + budget - iterations, (slot + 1) if traces is not None else _INPUT_CHUNK)
        if len(w) == 1:  # a lone trial skips the cost of the trial axis
            stack, xs, masks = w[0], inputs[slot:end, 0, 0], learned[slot:end, 0]
        else:
            stack, xs, masks = w, inputs[slot:end], learned[slot:end, : len(w)]
        # a block also stops when a live pair is found to coincide
        rounds = _exchange_rounds(stack, xs, params.L, masks, differ=differ, start=iterations, cadence=interval)
        iterations += rounds
        learning_steps += masks[:rounds, ..., 0].sum(axis=0)
        if traces is not None:
            overlaps = (w[:, 0] == w[:, 1]).mean(axis=(1, 2))
            for r in live.nonzero()[0]:
                traces[trial_of_row[r]].append((iterations, float(overlaps[r])))


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
            raise ScenarioError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.ensemble_size < 1:
            raise ScenarioError("ensemble_size must be >= 1")
        if self.strategy != "ensemble" and self.ensemble_size != 1:
            raise ScenarioError("ensemble_size must be 1 unless strategy is 'ensemble'")
        if self.iteration_budget < 1:
            raise ScenarioError("iteration_budget must be >= 1")
        if self.eve_initial_overlap is not None and not 0.0 <= self.eve_initial_overlap <= 1.0:
            raise ScenarioError("eve_initial_overlap must be in [0, 1]")


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


def changed_weight_count(overlap: float, weight_count: int) -> int:
    """How many of ``weight_count`` = K*N weights a start at this overlap
    replaces, floor((1-overlap)*K*N); none below overlap 1 is a ScenarioError."""
    # epsilon guards against float noise in (1 - overlap) just below an integer
    count = int(np.floor((1.0 - overlap) * weight_count + 1e-9))
    if count == 0 and overlap < 1.0:
        raise ScenarioError(f"overlap {overlap} changes no weight of K*N = {weight_count}; use 1 for a copy")
    return count


def seed_initial_overlap(base: Tpm, overlap: float, seed: int) -> Tpm:
    """Copy of ``base`` with exactly ``changed_weight_count`` uniformly chosen
    positions replaced by a uniformly random *different* weight."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    params = base.params
    count = changed_weight_count(overlap, params.weight_count)
    result = base.copy()
    if count == 0:
        return result
    rng = np.random.default_rng(seed)
    positions = rng.choice(params.weight_count, size=count, replace=False)
    flat = result.weights.reshape(-1)
    old = flat[positions]
    # uniform over [-L, L] minus the current value
    draws = rng.integers(-params.L, params.L, size=count, dtype=np.int32)
    flat[positions] = draws + (draws >= old)
    return result


def reconcile(
    alice_key: BitKey, bob_key: BitKey, params: TpmParams, config: SyncConfig, seed: int
) -> tuple[BitKey, BitKey, SyncTranscript]:
    """Three-step reconciliation: keys to weights, synchronize, weights to keys.

    The machines have shape ``params`` (bit keys carry none), and the inputs
    come from the PCG64 stream of ``seed``. Returns both parties' final keys
    and the one public transcript; on convergence the keys are bit-identical
    and have length K*N*b. Only the first K*N*b bits of each key are loaded.
    """
    alice = bits_to_weights(alice_key, params)
    bob = bits_to_weights(bob_key, params)
    transcript = synchronize_from_weights(alice, bob, config, seed)
    return weights_to_bits(alice), weights_to_bits(bob), transcript
