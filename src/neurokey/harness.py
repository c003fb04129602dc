"""Monte-Carlo experiment harness: scenario configs, seeded trial sweeps,
CSV emission, the end-to-end pipeline, and algorithm comparisons.

Every trial derives its own generator from hashing the scenario base seed
with the sweep coordinates and trial index, so runs are reproducible
bit-for-bit at any worker count and individual trials can be replayed.
"""

from __future__ import annotations

import configparser
import csv
import io
import os
import time
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator

import numpy as np

from .adversary import AttackConfig, run_attack
from .channel import (
    DEFAULT_QBER_THRESHOLD,
    DEFAULT_SAMPLE_FRACTION,
    QberEstimate,
    estimate_qber,
    generate_key_pair,
)
from .parity import ParityConfig, run_parity_reconciliation
from .privacy import (
    DEFAULT_SECURITY_BITS,
    AmplificationBudget,
    ToeplitzSpec,
    amplify,
    plan_budget,
)
from .sync import (
    LeakageEstimate,
    NonConvergenceError,
    SyncConfig,
    SyncTranscript,
    reconcile,
    seed_initial_overlap,
    synchronize_from_weights,
)
from .tpm import BitKey, Tpm, TpmParams, bits_to_weights

__all__ = [
    "ComparisonRow",
    "PipelineReport",
    "QberAbortError",
    "Scenario",
    "ScenarioError",
    "StartMode",
    "TrialRecord",
    "compare_algorithms",
    "comparison_csv",
    "format_comparison_table",
    "load_scenario",
    "machine_trial_seeds",
    "records_to_csv",
    "run_pipeline",
    "run_scenario",
    "write_csv",
]

CSV_SCHEMA = "neurokey-trials v1"

# Column order for trial CSVs. Wall time is kept on the record for ad-hoc
# inspection but deliberately left out of the CSV so reruns are byte-identical.
CSV_COLUMNS = (
    "scenario",
    "trial",
    "K",
    "N",
    "L",
    "start_mode",
    "iterations",
    "learning_steps",
    "parity_checks",
    "disclosed_bits",
    "attacker_best_overlap",
    "converged",
)

SCENARIO_KINDS = ("sync", "attack", "compare")


class ScenarioError(ValueError):
    """Malformed scenario configuration."""


class QberAbortError(RuntimeError):
    """Estimated error rate exceeded the abort threshold."""

    def __init__(self, estimate: float, threshold: float) -> None:
        super().__init__(f"estimated QBER {estimate:.4f} exceeds threshold {threshold:.4f}")
        self.estimate = estimate
        self.threshold = threshold


@dataclass(frozen=True)
class StartMode:
    """How the two machines (or keys) are initialized for a trial."""

    kind: str  # "random" | "overlap" | "from_qber"
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "random":
            if self.value is not None:
                raise ScenarioError("random start mode takes no value")
        elif self.kind == "overlap":
            if self.value is None or not 0.0 <= self.value <= 1.0:
                raise ScenarioError(f"overlap must be in [0, 1], got {self.value!r}")
        elif self.kind == "from_qber":
            if self.value is None or not 0.0 <= self.value <= 0.5:
                raise ScenarioError(f"from_qber must be in [0, 0.5], got {self.value!r}")
        else:
            raise ScenarioError(f"unknown start mode {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "StartMode":
        text = text.strip()
        if text == "random":
            return cls("random")
        if ":" in text:
            kind, _, raw = text.partition(":")
            try:
                return cls(kind.strip(), float(raw))
            except ValueError as err:
                raise ScenarioError(f"bad start mode value in {text!r}") from err
        raise ScenarioError(f"cannot parse start mode {text!r}")

    def __str__(self) -> str:
        if self.kind == "random":
            return "random"
        return f"{self.kind}:{self.value:g}"

    def machines(self, params: TpmParams, init_seed: int, aux_seed: int) -> tuple[Tpm, Tpm]:
        """The trial's starting pair: two random machines, Bob a copy of
        Alice at this weight overlap, or both loaded from keys drawn at this
        error rate."""
        if self.kind == "from_qber":
            pair = generate_key_pair(params.key_bits, self.value, seed=init_seed)
            return bits_to_weights(pair.alice, params), bits_to_weights(pair.bob, params)
        rng = np.random.default_rng(init_seed)
        alice = Tpm.random(params, rng)
        if self.kind == "random":
            return alice, Tpm.random(params, rng)
        return alice, seed_initial_overlap(alice, self.value, seed=aux_seed)


@dataclass(frozen=True)
class CompareSetting:
    """One comparison row: key geometry for the parity baselines plus the
    machine width used for the mutual-learning column."""

    key_length: int
    qber: float
    tpm_n: int

    def __post_init__(self) -> None:
        if self.key_length < 1 or self.tpm_n < 1:
            raise ScenarioError(f"compare key length and tpm_N must be positive in {self}")
        if not 0.0 < self.qber <= 0.5:
            raise ScenarioError(f"compare qber must be in (0, 0.5], got {self.qber}")


@dataclass(frozen=True)
class Scenario:
    """A full sweep description: shapes, start modes, trial count, seeding."""

    name: str
    kind: str = "sync"
    L: int = 2
    K_values: tuple[int, ...] = (10,)
    N_values: tuple[int, ...] = (25,)
    start_modes: tuple[StartMode, ...] = (StartMode("random"),)
    trials: int = 1000
    base_seed: int = 0
    max_iterations: int | None = None
    protocol_mode: bool = False
    attack: AttackConfig | None = None
    compare_settings: tuple[CompareSetting, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ScenarioError(f"kind must be one of {SCENARIO_KINDS}, got {self.kind!r}")
        if self.trials < 1:
            raise ScenarioError("trials must be >= 1")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ScenarioError("max_iterations must be >= 1")
        if not self.K_values or not self.N_values:
            raise ScenarioError("K and N sweeps must be non-empty")
        if min(self.K_values) < 1 or min(self.N_values) < 1 or self.L < 1:
            raise ScenarioError("K, N, L must be positive")
        if not self.start_modes:
            raise ScenarioError("at least one start mode is required")
        if self.kind == "attack" and self.attack is None:
            raise ScenarioError("attack scenarios need an [attack] section")
        if self.kind == "compare" and not self.compare_settings:
            raise ScenarioError("compare scenarios need a settings list")
        # run_attack and the compare TPM row never read these settings
        if self.protocol_mode and self.kind != "sync":
            raise ScenarioError(f"protocol_mode applies only to sync scenarios, not {self.kind}")
        if self.max_iterations is not None and self.kind == "attack":
            raise ScenarioError("attack scenarios take their budget from [attack] iteration_budget")


@dataclass
class TrialRecord:
    """One Monte-Carlo outcome row; -1 marks fields a trial kind never sets."""

    scenario: str
    trial: int
    K: int
    N: int
    L: int
    start_mode: str
    iterations: int
    learning_steps: int
    parity_checks: int
    disclosed_bits: int
    attacker_best_overlap: float
    converged: bool
    wall_time: float

    def csv_row(self) -> list[str]:
        return [
            self.scenario,
            str(self.trial),
            str(self.K),
            str(self.N),
            str(self.L),
            self.start_mode,
            str(self.iterations),
            str(self.learning_steps),
            str(self.parity_checks),
            str(self.disclosed_bits),
            f"{self.attacker_best_overlap:.6f}",
            str(int(self.converged)),
        ]


def _child_seeds(base_seed: int, coordinates: tuple[int, ...], count: int) -> list[int]:
    state = np.random.SeedSequence([int(base_seed), *map(int, coordinates)])
    return [int(v) for v in state.generate_state(count, dtype=np.uint64)]


def machine_trial_seeds(base_seed: int, mode_index: int, params: TpmParams, trial: int) -> list[int]:
    """The (init, aux, sync) seeds of one sync or attack trial."""
    return _child_seeds(base_seed, (mode_index, params.L, params.K, params.N, trial), 3)


# ---------------------------------------------------------------------------
# scenario parsing


def _parse_int_list(text: str, label: str) -> tuple[int, ...]:
    """Accepts "6, 8, 10" and inclusive ranges like "20-25"."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part and not part.lstrip().startswith("-"):
            lo_text, _, hi_text = part.partition("-")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError as err:
                raise ScenarioError(f"bad {label} range {part!r}") from err
            if hi < lo:
                raise ScenarioError(f"empty {label} range {part!r}")
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(part))
            except ValueError as err:
                raise ScenarioError(f"bad {label} value {part!r}") from err
    if not values:
        raise ScenarioError(f"{label} list is empty")
    return tuple(values)


def _parse_compare_settings(text: str) -> tuple[CompareSetting, ...]:
    settings = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ScenarioError(f"compare setting must be length:qber:tpm_N, got {part!r}")
        try:
            settings.append(CompareSetting(int(pieces[0]), float(pieces[1]), int(pieces[2])))
        except ValueError as err:
            raise ScenarioError(f"bad compare setting {part!r}") from err
    return tuple(settings)


def parse_scenario(text: str, fallback_name: str = "scenario") -> Scenario:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ScenarioError(f"cannot parse scenario file: {err}") from err
    if "scenario" not in parser:
        raise ScenarioError("missing [scenario] section")
    section = parser["scenario"]
    kind = section.get("kind", "sync").strip()
    try:
        name = section.get("name", fallback_name).strip()
        trials = section.getint("trials", 1000)
        base_seed = section.getint("base_seed", 0)
        protocol_mode = section.getboolean("protocol_mode", False)
        max_iterations = section.getint("max_iterations", fallback=None)
        L = section.getint("L", 2)
    except ValueError as err:
        raise ScenarioError(f"bad scalar in [scenario]: {err}") from err

    attack = None
    if "attack" in parser:
        a = parser["attack"]
        try:
            attack = AttackConfig(
                strategy=a.get("strategy", "passive").strip(),
                ensemble_size=a.getint("ensemble_size", 1),
                iteration_budget=a.getint("iteration_budget", 1000),
                eve_initial_overlap=a.getfloat("eve_initial_overlap", fallback=None),
            )
        except ValueError as err:
            raise ScenarioError(f"bad [attack] section: {err}") from err

    compare_settings: tuple[CompareSetting, ...] = ()
    K_values: tuple[int, ...] = (1,)
    N_values: tuple[int, ...] = (1,)
    start_modes: tuple[StartMode, ...] = (StartMode("random"),)
    if kind == "compare":
        if "compare" not in parser:
            raise ScenarioError("compare scenarios need a [compare] section")
        compare_settings = _parse_compare_settings(parser["compare"].get("settings", ""))
        K_values = (parser["compare"].getint("tpm_K", 10),)
    else:
        K_values = _parse_int_list(section.get("K", ""), "K")
        N_values = _parse_int_list(section.get("N", ""), "N")
        start_modes = tuple(
            StartMode.parse(part)
            for part in section.get("start_mode", "random").split(",")
            if part.strip()
        )

    return Scenario(
        name=name,
        kind=kind,
        L=L,
        K_values=K_values,
        N_values=N_values,
        start_modes=start_modes,
        trials=trials,
        base_seed=base_seed,
        max_iterations=max_iterations,
        protocol_mode=protocol_mode,
        attack=attack,
        compare_settings=compare_settings,
    )


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario from a file path or a bundled name (fig2..fig6, table1)."""
    if os.path.exists(path_or_name):
        with open(path_or_name, "r", encoding="utf-8") as handle:
            text = handle.read()
        fallback = os.path.splitext(os.path.basename(path_or_name))[0]
        return parse_scenario(text, fallback)
    bundle = resources.files("neurokey") / "scenarios" / f"{path_or_name}.ini"
    if bundle.is_file():
        return parse_scenario(bundle.read_text(encoding="utf-8"), path_or_name)
    raise ScenarioError(f"no scenario file or bundled scenario named {path_or_name!r}")


# ---------------------------------------------------------------------------
# trial execution


def _run_machine_trial(
    scenario: Scenario, name: str, trial: int, params: TpmParams, mode: StartMode, seeds: list[int]
) -> TrialRecord:
    """Build the pair for ``mode`` from (init, aux, sync) seeds, run an attack
    on it (attack scenarios) or synchronize it, and record the outcome."""
    started = time.perf_counter()
    init_seed, aux_seed, sync_seed = seeds
    alice, bob = mode.machines(params, init_seed, aux_seed)
    best_overlap = -1.0
    if scenario.kind == "attack":
        config = SyncConfig(params=params, seed=sync_seed)
        transcript, result = run_attack(alice, bob, config, scenario.attack)
        best_overlap = result.best_overlap
    else:
        config = SyncConfig(
            params=params,
            max_iterations=scenario.max_iterations,
            seed=sync_seed,
            protocol_mode=scenario.protocol_mode,
        )
        try:
            transcript = synchronize_from_weights(alice, bob, config)
        except NonConvergenceError as err:
            transcript = err.transcript
        # a protocol-mode digest collision would end a run early
        if transcript.converged and not np.array_equal(alice.weights, bob.weights):
            raise RuntimeError("converged run produced differing machines")
    return TrialRecord(
        scenario=name,
        trial=trial,
        K=params.K,
        N=params.N,
        L=params.L,
        start_mode=str(mode),
        iterations=transcript.iterations,
        learning_steps=transcript.learning_steps,
        parity_checks=-1,
        disclosed_bits=transcript.disclosed_bits,
        attacker_best_overlap=best_overlap,
        converged=transcript.converged,
        wall_time=time.perf_counter() - started,
    )


def _run_compare_trial(scenario: Scenario, setting_index: int, trial: int) -> list[TrialRecord]:
    setting = scenario.compare_settings[setting_index]
    params = TpmParams(K=scenario.K_values[0], N=setting.tpm_n, L=scenario.L)
    pair_seed, parity_seed_a, parity_seed_b, *machine_seeds = _child_seeds(
        scenario.base_seed, (setting_index, trial), 6
    )
    pair = generate_key_pair(setting.key_length, setting.qber, seed=pair_seed)
    records: list[TrialRecord] = []
    for algorithm, seed in (("bbbss", parity_seed_a), ("cascade", parity_seed_b)):
        started = time.perf_counter()
        outcome = run_parity_reconciliation(
            pair, ParityConfig(qber_hint=setting.qber, seed=seed, algorithm=algorithm)
        )
        records.append(
            TrialRecord(
                scenario=f"{scenario.name}/{algorithm}/{setting.key_length}b",
                trial=trial,
                K=-1,
                N=-1,
                L=-1,
                start_mode=f"from_qber:{setting.qber:g}",
                iterations=-1,
                learning_steps=-1,
                parity_checks=outcome.parity_checks,
                disclosed_bits=outcome.disclosed_bits,
                attacker_best_overlap=-1.0,
                converged=outcome.residual_errors == 0,
                wall_time=time.perf_counter() - started,
            )
        )
    records.append(
        _run_machine_trial(
            scenario,
            f"{scenario.name}/tpm/{setting.key_length}b",
            trial,
            params,
            StartMode("overlap", 1.0 - setting.qber),
            machine_seeds,
        )
    )
    return records


def _scenario_tasks(scenario: Scenario) -> list[tuple]:
    tasks: list[tuple] = []
    if scenario.kind == "compare":
        for setting_index in range(len(scenario.compare_settings)):
            for trial in range(scenario.trials):
                tasks.append((scenario, setting_index, 0, 0, trial))
    else:
        for mode_index in range(len(scenario.start_modes)):
            for K in scenario.K_values:
                for N in scenario.N_values:
                    for trial in range(scenario.trials):
                        tasks.append((scenario, mode_index, K, N, trial))
    return tasks


def _run_task(task: tuple) -> list[TrialRecord]:
    scenario, index, K, N, trial = task
    if scenario.kind == "compare":
        return _run_compare_trial(scenario, index, trial)
    params = TpmParams(K=K, N=N, L=scenario.L)
    seeds = machine_trial_seeds(scenario.base_seed, index, params, trial)
    mode = scenario.start_modes[index]
    return [_run_machine_trial(scenario, scenario.name, trial, params, mode, seeds)]


def run_scenario(scenario: Scenario, workers: int = 1) -> Iterator[TrialRecord]:
    """Execute every trial of the scenario, streaming records in a fixed
    order (mode, K, N, trial) independent of the worker count.

    The worker count is checked here, before the first record is requested
    and before any pool exists: it must lie in [1, os.cpu_count()]."""
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ScenarioError(f"workers must be in [1, {cpus}], got {workers}")
    return _stream_records(_scenario_tasks(scenario), workers)


def _stream_records(tasks: list[tuple], workers: int) -> Iterator[TrialRecord]:
    if workers == 1:
        for task in tasks:
            yield from _run_task(task)
        return
    # imported here: the pool modules cost ~15 ms, which serial runs never need
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(tasks) // (workers * 8))
    # a dead worker raises BrokenProcessPool; a consumer that stops early
    # cancels the queued tasks instead of waiting for them. Spawned workers
    # inherit no locks from threads of the caller.
    executor = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        for records in executor.map(_run_task, tasks, chunksize=chunk):
            yield from records
    finally:
        executor.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# CSV emission


def write_csv(records: Iterable[TrialRecord], handle) -> int:
    """Write the schema comment, header, and one row per record. Returns the
    row count."""
    handle.write(f"# {CSV_SCHEMA}\n")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    count = 0
    for record in records:
        writer.writerow(record.csv_row())
        count += 1
    return count


def records_to_csv(records: Iterable[TrialRecord]) -> str:
    buffer = io.StringIO()
    write_csv(records, buffer)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# algorithm comparison


@dataclass(frozen=True)
class ComparisonRow:
    """Mean public-channel cost of one algorithm at one setting. For the
    parity baselines an iteration is one block-parity check; for the
    mutual-learning column it is one input draw plus output exchange."""

    algorithm: str
    key_length: int
    qber: float
    trials: int
    mean_iterations: float
    mean_disclosed_bits: float
    residual_rate: float


def compare_algorithms(
    key_length: int,
    qber: float,
    trials: int,
    seed: int,
    tpm_params: TpmParams | None = None,
    workers: int = 1,
) -> list[ComparisonRow]:
    """Run both parity baselines on identical noisy key pairs and the
    mutual-learning method on machines seeded at matching agreement
    (weight overlap 1-qber), returning per-algorithm means."""
    if trials < 100:
        raise ValueError("trials must be >= 100 for meaningful means")
    params = tpm_params or TpmParams(K=10, N=25, L=2)
    scenario = Scenario(
        name="compare",
        kind="compare",
        L=params.L,
        K_values=(params.K,),
        trials=trials,
        base_seed=seed,
        compare_settings=(CompareSetting(key_length, qber, params.N),),
    )
    sums: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for record in run_scenario(scenario, workers=workers):
        algorithm = record.scenario.split("/")[1]
        cost = record.parity_checks if record.parity_checks >= 0 else record.iterations
        # for parity rows the converged flag encodes residual_errors == 0
        residual = 0.0 if record.converged else 1.0
        entry = sums.setdefault(algorithm, [0.0, 0.0, 0.0])
        entry[0] += cost
        entry[1] += record.disclosed_bits
        entry[2] += residual
        counts[algorithm] = counts.get(algorithm, 0) + 1
    rows = []
    for algorithm in ("bbbss", "cascade", "tpm"):
        total, disclosed, residual = sums[algorithm]
        n = counts[algorithm]
        rows.append(
            ComparisonRow(
                algorithm=algorithm,
                key_length=key_length,
                qber=qber,
                trials=n,
                mean_iterations=total / n,
                mean_disclosed_bits=disclosed / n,
                residual_rate=residual / n,
            )
        )
    return rows


def format_comparison_table(rows: list[ComparisonRow]) -> str:
    header = f"{'algorithm':<10} {'key_length':>10} {'qber':>6} {'trials':>7} {'mean_iterations':>16}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.algorithm:<10} {row.key_length:>10} {row.qber:>6g} "
            f"{row.trials:>7} {row.mean_iterations:>16.2f}"
        )
    return "\n".join(lines)


def comparison_csv(rows: list[ComparisonRow]) -> str:
    buffer = io.StringIO()
    buffer.write(f"# {CSV_SCHEMA} comparison\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["algorithm", "key_length", "qber", "trials", "mean_iterations", "mean_disclosed_bits"]
    )
    for row in rows:
        writer.writerow(
            [
                row.algorithm,
                row.key_length,
                f"{row.qber:g}",
                row.trials,
                f"{row.mean_iterations:.4f}",
                f"{row.mean_disclosed_bits:.4f}",
            ]
        )
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# end-to-end pipeline


@dataclass
class PipelineReport:
    """Everything one end-to-end run discloses and produces."""

    raw_length: int
    qber_estimate: QberEstimate
    transcript: SyncTranscript
    leakage: LeakageEstimate
    budget: AmplificationBudget
    hash_spec_hex: str
    final_alice: BitKey
    final_bob: BitKey

    @property
    def identical(self) -> bool:
        return self.final_alice == self.final_bob

    @property
    def stage_disclosed_bits(self) -> dict[str, int]:
        return {
            "qber_estimation": self.qber_estimate.sampled_count,
            "sync_outputs": self.leakage.bit_reduction,
            "sync_digests": self.transcript.disclosed_bits,
            "security_margin": self.budget.security_bits,
        }

    def summary(self) -> str:
        stages = self.stage_disclosed_bits
        lines = [
            f"raw key length        {self.raw_length}",
            f"estimated QBER        {self.qber_estimate.estimate:.4f}"
            f" ({self.qber_estimate.mismatches}/{self.qber_estimate.sampled_count})",
            f"sync iterations       {self.transcript.iterations}"
            f" (learning steps {self.transcript.learning_steps})",
            f"disclosed: estimation {stages['qber_estimation']}, sync outputs"
            f" {stages['sync_outputs']}, digests {stages['sync_digests']}",
            f"reconciled length     {self.budget.reconciled_length}",
            f"removed (known+margin) {self.budget.eve_known_bits}+{self.budget.security_bits}",
            f"final key length      {self.budget.final_length}",
            f"keys identical        {self.identical}",
        ]
        return "\n".join(lines)


def run_pipeline(
    length: int,
    qber: float,
    params: TpmParams,
    security_bits: int = DEFAULT_SECURITY_BITS,
    seed: int = 0,
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
    qber_threshold: float = DEFAULT_QBER_THRESHOLD,
    protocol_mode: bool = False,
    digest_check_interval: int = 100,
    error_mode: str = "uniform",
) -> PipelineReport:
    """Generate - estimate - reconcile - plan - amplify, with an abort when
    the estimated error rate crosses the threshold.

    In protocol mode every digest exchange costs 64 disclosed bits, so the
    interval defaults to a sparser cadence than SyncConfig's: frequent checks
    can easily eat the whole budget of a small machine.
    """
    pair_seed, sample_seed, sync_seed, hash_seed = _child_seeds(seed, (0,), 4)
    pair = generate_key_pair(length, qber, seed=pair_seed, error_mode=error_mode)
    estimate = estimate_qber(pair, sample_fraction, seed=sample_seed)
    if estimate.estimate > qber_threshold:
        raise QberAbortError(estimate.estimate, qber_threshold)
    config = SyncConfig(
        params=params,
        seed=sync_seed,
        protocol_mode=protocol_mode,
        digest_check_interval=digest_check_interval,
    )
    result_a, result_b = reconcile(estimate.remaining_alice, estimate.remaining_bob, config)
    reconciled_length = result_a.final_key.length
    disclosed = estimate.sampled_count + result_a.transcript.disclosed_bits
    budget = plan_budget(reconciled_length, result_a.leakage, disclosed, security_bits)
    spec = ToeplitzSpec.from_seed(budget.final_length, reconciled_length, hash_seed)
    final_a = amplify(result_a.final_key, spec)
    final_b = amplify(result_b.final_key, spec)
    if final_a != final_b:
        raise RuntimeError("pipeline produced differing final keys")
    return PipelineReport(
        raw_length=length,
        qber_estimate=estimate,
        transcript=result_a.transcript,
        leakage=result_a.leakage,
        budget=budget,
        hash_spec_hex=spec.to_hex(),
        final_alice=final_a,
        final_bob=final_b,
    )
