"""The benchmark's three closed-loop workloads, as repeating cycles of operations.

One client in one process runs the operations back to back (``workers=1``, no
pool). Each operation is one call a user of the library makes, driven through
the public functions of the ``neurokey`` modules; those are looked up as module
attributes at call time, so a traced run can wrap them.

* ``sweep``: one 3-trial sweep point per operation over the paper's sweep
  shapes. The exchange loop in ``sync``/``tpm`` does most of the work.
* ``attack_race``: one attack trial per operation at K=6, N=8, L=2. The only
  workload where ``adversary`` does the work.
* ``distill``: one distilled key per operation, alternating ``run_pipeline``
  with a long-block parity path composed here. ``channel``, ``parity`` and
  ``privacy.amplify`` do most of the work.

A cycle's inputs depend only on the workload seed and the cycle index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from neurokey import adversary, channel, harness, parity, privacy, sync
from neurokey.tpm import TpmParams

L = 2


class WrongOutput(Exception):
    """An output contradicts what the library reported about it."""


@dataclass(frozen=True)
class Op:
    """One timed operation of ``trials`` trials over ``raw_bits`` of key.
    ``run`` returns the operation's output bytes (for the cycle digest) and a
    failure the library reported, or None when it succeeded. It raises
    WrongOutput for an output the library got wrong."""

    label: str
    raw_bits: int
    run: Callable[[], tuple[bytes, str | None]]
    trials: int = 1

    def attempt(self) -> tuple[bytes, str | None, str | None, bool]:
        """(output, failure, protocol outcome, wrong output) of one run.

        QberAbortError and InfeasibleBudgetError are protocol outcomes, not
        failures; any other exception fails the operation."""
        try:
            output, failure = self.run()
        except (harness.QberAbortError, privacy.InfeasibleBudgetError) as exc:
            return type(exc).__name__.encode(), None, type(exc).__name__, False
        except WrongOutput as exc:
            return b"", str(exc), None, True
        except Exception as exc:
            return type(exc).__name__.encode(), f"{type(exc).__name__}: {exc}", None, False
        return output, failure, None, False


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)[0])


def run_scenario(scenario: harness.Scenario) -> list[harness.TrialRecord]:
    """Drain one scenario serially; traced runs time this as ``harness.run_scenario``."""
    return list(harness.run_scenario(scenario, workers=1))


def _trial_failure(records: list[harness.TrialRecord], budget: int | None) -> str | None:
    """The first failure among an operation's records. With an attack ``budget``,
    a run that an Eve ended early by reaching full overlap is not a failure."""
    for record in records:
        # scenario names are "<name>/<algorithm>/<length>b" for compare rows;
        # BBBSS residuals are a property of that algorithm, not a failure
        algorithm = record.scenario.split("/")[1] if "/" in record.scenario else "tpm"
        if algorithm == "bbbss" or record.converged:
            continue
        if budget is not None and record.iterations < budget:
            continue
        if algorithm == "cascade":
            return f"{record.scenario} trial {record.trial}: Cascade left residual errors"
        return f"{record.scenario} K={record.K} N={record.N} {record.start_mode}: no convergence"
    return None


def _scenario_op(label: str, key_bits: int, scenario: harness.Scenario) -> Op:
    budget = scenario.attack.iteration_budget if scenario.attack else None

    def run() -> tuple[bytes, str | None]:
        records = run_scenario(scenario)
        return harness.records_to_csv(records).encode(), _trial_failure(records, budget)

    trials = scenario.trials * max(1, len(scenario.compare_settings))
    return Op(label, key_bits * trials, run, trials)


class Sweep:
    """Scenario trials over K in {6,8,10}, N in {20,25}: random and
    overlap:0.95 starts in simulation mode, from_qber:0.05 starts in protocol
    mode (real parties exchange digests), and table1-style compare trials."""

    name = "sweep"
    shapes = tuple(TpmParams(K, N, L) for K in (6, 8, 10) for N in (20, 25))
    # key length, error rate, machine width of the mutual-learning column
    compare_settings = ((500, 0.05, 25), (600, 0.03, 30))
    compare_K = 10
    # start mode and whether the parties run in protocol mode
    starts = (("random", False), ("overlap:0.95", False), ("from_qber:0.05", True))
    # trials per run_scenario call: latency is per sweep point, which keeps
    # the tail from resting on a few single slow trials
    trials_per_point = 3
    # cycles a run makes per requested second: about one second of work at
    # the nominal machine speed of reference.py (NOMINAL_S)
    cycles_per_second = 1.9
    reference_kernel = "exchange"  # see reference.py

    def warm_up(self) -> None:
        """Resolve the pilot budget of every shape the operations use."""
        shapes = list(self.shapes)
        shapes += [TpmParams(self.compare_K, n, L) for _, _, n in self.compare_settings]
        for params in shapes:
            sync.resolve_iteration_budget(params)

    def cycle(self, seed: int, index: int) -> list[Op]:
        ops: list[Op] = []
        for mode, protocol in self.starts:
            for params in self.shapes:
                scenario = harness.Scenario(
                    name="sweep-protocol" if protocol else "sweep",
                    kind="sync",
                    L=L,
                    K_values=(params.K,),
                    N_values=(params.N,),
                    start_modes=(harness.StartMode.parse(mode),),
                    trials=self.trials_per_point,
                    base_seed=derive_seed(seed, index, len(ops)),
                    protocol_mode=protocol,
                )
                ops.append(_scenario_op(f"{mode} K={params.K} N={params.N}", params.key_bits, scenario))
        for length, qber, n in self.compare_settings:
            scenario = harness.Scenario(
                name="table1",
                kind="compare",
                L=L,
                K_values=(self.compare_K,),
                trials=self.trials_per_point,
                base_seed=derive_seed(seed, index, len(ops)),
                compare_settings=(harness.CompareSetting(length, qber, n),),
            )
            ops.append(_scenario_op(f"compare {length}b/{qber:g}", length, scenario))
        return ops


class AttackRace:
    """Attack trials at K=6, N=8, L=2 with a 1000-round budget: parties start
    random or from_qber:0.05; Eves are passive, geometric or a 16-machine
    ensemble."""

    name = "attack_race"
    params = TpmParams(6, 8, L)
    attacks = (("passive", 1), ("geometric", 1), ("ensemble", 16))
    budget = 1000
    cycles_per_second = 1.65
    reference_kernel = "exchange"

    def warm_up(self) -> None:
        """run_attack takes its budget from the attack config: no pilot runs."""

    def cycle(self, seed: int, index: int) -> list[Op]:
        ops: list[Op] = []
        for strategy, size in self.attacks:
            for mode in ("random", "from_qber:0.05"):
                scenario = harness.Scenario(
                    name=f"race-{strategy}",
                    kind="attack",
                    L=L,
                    K_values=(self.params.K,),
                    N_values=(self.params.N,),
                    start_modes=(harness.StartMode.parse(mode),),
                    trials=1,
                    base_seed=derive_seed(seed, index, len(ops)),
                    attack=adversary.AttackConfig(strategy, size, self.budget),
                )
                ops.append(_scenario_op(f"{strategy}x{size} {mode}", self.params.key_bits, scenario))
        return ops


class Distill:
    """Half the operations run ``harness.run_pipeline`` at 2250 raw bits with
    K=10, N=30 in protocol mode; the other half generate a key pair of 2048,
    4096 or 16384 bits, estimate the error rate, reconcile with Cascade and
    amplify both keys to n' - disclosed - 30 bits."""

    name = "distill"
    pipeline_length = 2250
    pipeline_params = TpmParams(10, 30, L)
    long_lengths = (2048, 4096, 16384)
    # (error rate, error mode) combinations, visited in turn so every run
    # gets the same mix whatever its seed
    channels = ((0.02, "uniform"), (0.02, "burst"), (0.03, "uniform"), (0.03, "burst"))
    cycles_per_second = 1.4
    reference_kernel = "convolve"

    def warm_up(self) -> None:
        sync.resolve_iteration_budget(self.pipeline_params)

    def cycle(self, seed: int, index: int) -> list[Op]:
        ops: list[Op] = []
        for length in self.long_lengths:
            for long_block in (False, True):
                qber, mode = self.channels[(index + len(ops)) % len(self.channels)]
                op_seed = derive_seed(seed, index, len(ops))
                if long_block:
                    run = _long_block(length, qber, mode, op_seed)
                    ops.append(Op(f"cascade {length}b {qber:g} {mode}", length, run))
                else:
                    run = _pipeline(self.pipeline_length, qber, mode, op_seed, self.pipeline_params)
                    ops.append(Op(f"pipeline {self.pipeline_length}b {qber:g} {mode}", self.pipeline_length, run))
        return ops


def _pipeline(length: int, qber: float, mode: str, seed: int, params: TpmParams):
    def run() -> tuple[bytes, str | None]:
        report = harness.run_pipeline(
            length, qber, params, seed=seed, protocol_mode=True, error_mode=mode
        )
        if not report.identical:
            raise WrongOutput("run_pipeline returned differing final keys")
        return np.packbits(report.final_alice.bits).tobytes(), None

    return run


def _long_block(length: int, qber: float, mode: str, seed: int):
    pair_seed, sample_seed, parity_seed, hash_seed = (
        derive_seed(seed, part) for part in range(4)
    )

    def run() -> tuple[bytes, str | None]:
        pair = channel.generate_key_pair(length, qber, seed=pair_seed, error_mode=mode)
        estimate = channel.estimate_qber(pair, channel.DEFAULT_SAMPLE_FRACTION, seed=sample_seed)
        alice, bob = estimate.remaining_alice, estimate.remaining_bob
        errors = frozenset(np.flatnonzero(alice.bits != bob.bits).tolist())
        remaining = channel.NoisyKeyPair(alice, bob, errors, qber)
        # the parties know only the estimate; an error-free sample still
        # needs a positive hint, so it counts as one error
        hint = max(estimate.estimate, 1.0 / estimate.sampled_count)
        outcome = parity.run_parity_reconciliation(
            remaining, parity.ParityConfig(qber_hint=hint, seed=parity_seed, algorithm="cascade")
        )
        n = remaining.length
        no_leak = adversary.LeakageEstimate(
            iterations=0, key_space_log2=float(n), weight_equivalent_reduction=0.0, bit_reduction=0
        )
        budget = privacy.plan_budget(n, no_leak, outcome.disclosed_bits, privacy.DEFAULT_SECURITY_BITS)
        spec = privacy.ToeplitzSpec.from_seed(budget.final_length, n, hash_seed)
        final_alice = privacy.amplify(outcome.corrected_alice, spec)
        final_bob = privacy.amplify(outcome.corrected_bob, spec)
        output = np.packbits(final_alice.bits).tobytes()
        if outcome.residual_errors:
            return output, f"Cascade left {outcome.residual_errors} residual errors"
        if final_alice != final_bob:
            raise WrongOutput("final keys differ although Cascade reported no residual errors")
        return output, None

    return run


WORKLOADS = {w.name: w for w in (Sweep(), AttackRace(), Distill())}
