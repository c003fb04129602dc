"""Monte-Carlo experiment harness: scenario configs, seeded trial sweeps,
CSV emission, per-point summaries, and the end-to-end pipeline.

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
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Iterable, Iterator

import numpy as np

from .channel import (
    DEFAULT_QBER_THRESHOLD,
    DEFAULT_SAMPLE_FRACTION,
    QberEstimate,
    estimate_qber,
    generate_key_pair,
    sample_size,
)
from .parity import ParityConfig, run_parity_reconciliation
from .privacy import (
    DEFAULT_SECURITY_BITS,
    AmplificationBudget,
    InfeasibleBudgetError,
    ToeplitzSpec,
    amplify,
    plan_budget,
)
from .sync import (
    DIGEST_BITS,
    AttackConfig,
    NonConvergenceError,
    SyncConfig,
    SyncTranscript,
    changed_weight_count,
    leakage_after,
    reconcile,
    run_attack,
    seed_initial_overlap,
    synchronize_batch,
    synchronize_from_weights,  # noqa: F401  traced benchmark runs wrap this name here
)
from .tpm import BitKey, KeyMaterialError, ScenarioError, Tpm, TpmParams, bits_to_weights

__all__ = [
    "PipelineReport",
    "PointSummary",
    "QberAbortError",
    "Scenario",
    "StartMode",
    "TrialRecord",
    "compare_algorithms",
    "format_summary",
    "load_scenario",
    "machine_trial_seeds",
    "records_to_csv",
    "run_pipeline",
    "run_scenario",
    "summarize",
    "write_csv",
]

CSV_SCHEMA = "neurokey-trials v1"

SCENARIO_KINDS = ("sync", "attack", "compare")
DEFAULT_PIPELINE_DIGEST_INTERVAL = 100  # run_pipeline's cadence: sparse, as each digest spends 64 bits of its budget


class QberAbortError(RuntimeError):
    """Estimated error rate exceeded the abort threshold."""


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
                value = float(raw)
            except ValueError as err:
                raise ScenarioError(f"bad start mode value in {text!r}") from err
            return cls(kind.strip(), value)
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
        object.__setattr__(self, "key_length", ScenarioError.integer("length", self.key_length))
        object.__setattr__(self, "tpm_n", ScenarioError.integer("tpm_N", self.tpm_n))
        if not 0.0 < self.qber <= 0.5:
            raise ScenarioError(f"compare qber must be in (0, 0.5], got {self.qber}")

    @classmethod
    def parse(cls, text: str) -> "CompareSetting":
        pieces = text.split(":")
        if len(pieces) != 3:
            raise ScenarioError(f"compare setting must be length:qber:tpm_N, got {text!r}")
        try:
            numbers = int(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError as err:
            raise ScenarioError(f"bad compare setting {text!r}") from err
        try:
            return cls(*numbers)
        except ScenarioError as err:
            raise ScenarioError(f"settings entry {text}: {err}") from err

    def __str__(self) -> str:
        return f"{self.key_length}:{self.qber:g}:{self.tpm_n}"


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
        if "/" in self.name:  # rows are named <name>/<algorithm>/<length>b
            raise ScenarioError(f"scenario name must not contain '/', got {self.name!r}")
        if self.kind not in SCENARIO_KINDS:
            raise ScenarioError(f"kind must be one of {SCENARIO_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "trials", ScenarioError.integer("trials", self.trials))
        object.__setattr__(self, "base_seed", ScenarioError.integer("seed", self.base_seed, low=0))
        SyncConfig(max_iterations=self.max_iterations)  # max_iterations: a positive integer
        if not self.K_values or not self.N_values:
            raise ScenarioError("K and N sweeps must be non-empty")
        points = self.points()  # every shape: positive integers
        if not self.start_modes:
            raise ScenarioError("at least one start mode is required")
        for key, values in (("K", self.K_values), ("N", self.N_values), ("start_mode", self.start_modes),
                            ("settings", self.compare_settings)):
            if repeated := [v for i, v in enumerate(values) if v in values[:i]]:  # its point would run twice
                raise ScenarioError(f"{key} lists {repeated[0]} twice")
        if self.kind == "attack" and self.attack is None:
            raise ScenarioError("attack scenarios need an [attack] section")
        if self.kind != "attack" and self.attack is not None:
            raise ScenarioError(f"an [attack] section applies only to attack scenarios, not {self.kind}")
        if self.kind == "compare" and not self.compare_settings:
            raise ScenarioError("compare scenarios need a settings list")
        if self.kind == "compare" and len(self.K_values) != 1:  # the TPM rows run tpm_K = K_values[0]
            raise ScenarioError(f"compare scenarios take one K, tpm_K, got {self.K_values}")
        if self.kind != "compare" and self.compare_settings:
            raise ScenarioError(f"compare settings apply only to compare scenarios, not {self.kind}")
        # run_attack reads neither setting; the compare TPM row reads max_iterations, and protocol_mode is sync's by rule
        if self.protocol_mode and self.kind != "sync":
            raise ScenarioError(f"protocol_mode applies only to sync scenarios, not {self.kind}")
        if self.max_iterations is not None and self.kind == "attack":
            raise ScenarioError("attack scenarios take their budget from [attack] iteration_budget")
        SyncConfig(max_iterations=self.max_iterations, protocol_mode=self.protocol_mode)  # a budget with a digest round
        # an overlap start, the parties' or Eve's, must change some weight of the machines it starts
        eve = self.attack.eve_initial_overlap if self.attack else None
        eve_starts = [(f"eve_initial_overlap = {eve:g}", eve)] if eve is not None else []
        for index, params, mode in points:
            party = f"settings entry {self.compare_settings[index]}" if self.kind == "compare" else f"start_mode = {mode}"
            for key, overlap in ([(party, mode.value)] if mode.kind == "overlap" else []) + eve_starts:
                try:
                    changed_weight_count(overlap, params.weight_count)
                except ScenarioError as err:
                    raise ScenarioError(f"{key}: {err}") from err
        for key, value in (("N_values", self.N_values), ("start_modes", self.start_modes)):
            if self.kind == "compare" and value != getattr(Scenario, key):  # TPM rows run tpm_N at overlap 1 - qber
                raise ScenarioError(f"{key} does not apply to compare scenarios, got {', '.join(map(str, value))}")

    def points(self) -> list[tuple[int, TpmParams, StartMode]]:
        """Each sweep point in run order, as (index, machine shape, start mode):
        start mode ``index`` at every K and N, or the mutual-learning row of
        compare setting ``index``, tpm_K x tpm_N machines at weight overlap
        1 - qber."""
        if self.kind == "compare":
            return [(index, TpmParams(self.K_values[0], s.tpm_n, self.L), StartMode("overlap", 1.0 - s.qber))
                    for index, s in enumerate(self.compare_settings)]
        shapes = [TpmParams(K, N, self.L) for K in self.K_values for N in self.N_values]
        return [(index, params, mode) for index, mode in enumerate(self.start_modes) for params in shapes]


@dataclass(kw_only=True)
class TrialRecord:
    """One Monte-Carlo outcome row; -1 marks fields a trial kind never sets.

    ``wall_time`` is the time of the batch that ran the trial, split evenly
    across the batch's trials: the trials of a sweep point (or of its slice,
    when workers share the point) form one batch, and so do the
    mutual-learning rows of a compare setting, while each parity row is timed
    on its own. Summed over a point it is the point's time."""

    scenario: str
    trial: int
    K: int = -1
    N: int = -1
    L: int = -1
    start_mode: str
    iterations: int = -1
    learning_steps: int = -1
    parity_checks: int = -1
    disclosed_bits: int
    attacker_best_overlap: float = -1.0
    converged: bool
    wall_time: float

    def csv_row(self) -> list[str]:
        """One cell per CSV column: a float to 6 decimals, a bool as 0/1."""
        return [
            f"{v:.6f}" if isinstance(v, float) else str(int(v) if isinstance(v, bool) else v)
            for v in map(self.__getattribute__, CSV_COLUMNS)
        ]


# Trial CSV columns: the record's fields in order, less the wall time, which
# differs between reruns and would keep them from being byte-identical.
CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.name != "wall_time")


def _child_seeds(base_seed: int, coordinates: tuple[int, ...], count: int) -> list[int]:
    state = np.random.SeedSequence([ScenarioError.integer("seed", base_seed, low=0), *map(int, coordinates)])
    return [int(v) for v in state.generate_state(count, dtype=np.uint64)]


def machine_trial_seeds(base_seed: int, mode_index: int, params: TpmParams, trial: int) -> list[int]:
    """The (init, aux, sync) seeds of one sync or attack trial."""
    return _child_seeds(base_seed, (mode_index, params.L, params.K, params.N, trial), 3)


# ---------------------------------------------------------------------------
# scenario parsing


def _entries(text: str) -> list[str]:
    """The comma-separated entries of ``text``, stripped; empty ones are skipped."""
    return [part for part in map(str.strip, text.split(",")) if part]


def _parse_int_list(text: str, label: str) -> tuple[int, ...]:
    """Accepts "6, 8, 10" and inclusive ranges like "20-25"."""
    values: list[int] = []
    for part in _entries(text):
        if "-" in part and not part.startswith("-"):
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


# the configparser getter per annotated field type; a field of another type
# (a sweep list, a nested config) is no scalar key
_GETTERS = {"int": "getint", "float": "getfloat", "bool": "getboolean", "str": "get"}


def _scalar_types(cls) -> dict[str, str]:
    # field types are annotation strings, as harness and sync postpone
    # the evaluation of annotations
    return {f.name: f.type.split(" ")[0] for f in fields(cls) if f.type.split(" ")[0] in _GETTERS}


def _read_section(parser: configparser.ConfigParser, name: str, types: dict[str, str]) -> dict:
    """The keys section [name] sets, each converted by its type in ``types``.
    A key outside ``types`` is an error, unless a [DEFAULT] section sets it."""
    section = parser[name]
    unknown = set(section) - set(parser.defaults()) - set(map(parser.optionxform, types))
    if unknown:
        raise ScenarioError(f"unknown key {', '.join(sorted(unknown))} in [{name}]")
    values = {}
    for key in filter(section.__contains__, types):
        try:
            values[key] = getattr(section, _GETTERS[types[key]])(key)
        except ValueError as err:
            raise ScenarioError(f"bad {key} in [{name}]: {section[key]!r}") from err
    return values


def parse_scenario(text: str, fallback_name: str = "scenario") -> Scenario:
    """Each key of [scenario] and [attack] sets the field of the same name of
    ``Scenario`` or ``AttackConfig``; a key left out keeps its default."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ScenarioError(f"cannot parse scenario file: {err}") from err
    if "scenario" not in parser:
        raise ScenarioError("missing [scenario] section")
    if unknown := sorted(set(parser.sections()) - {"scenario", "attack", "compare"}):
        raise ScenarioError(f"unknown section [{'], ['.join(unknown)}]")
    types = {**_scalar_types(Scenario), "K": "str", "N": "str", "start_mode": "str"}
    values = {"name": fallback_name, **_read_section(parser, "scenario", types)}
    K_text, N_text, modes = (values.pop(key, None) for key in ("K", "N", "start_mode"))
    if "attack" in parser:
        values["attack"] = AttackConfig(**_read_section(parser, "attack", _scalar_types(AttackConfig)))

    kind = values.get("kind", Scenario.kind)
    if kind == "compare":
        if "compare" not in parser:
            raise ScenarioError("compare scenarios need a [compare] section")
        # the TPM row takes its shape from [compare] and its start from the qber
        if unused := [key for key in ("K", "N", "start_mode") if key in parser["scenario"]]:
            raise ScenarioError(f"key {unused[0]} in [scenario] does not apply to compare scenarios")
        compare = _read_section(parser, "compare", {"tpm_K": "int", "settings": "str"})
        values["compare_settings"] = tuple(map(CompareSetting.parse, _entries(compare.get("settings", ""))))
        if "tpm_K" in compare:
            values["K_values"] = (compare["tpm_K"],)
    elif "compare" in parser:
        raise ScenarioError(f"a [compare] section applies only to compare scenarios, not {kind}")
    else:
        values["K_values"] = _parse_int_list(K_text or "", "K")
        values["N_values"] = _parse_int_list(N_text or "", "N")
        if modes is not None:
            values["start_modes"] = tuple(map(StartMode.parse, _entries(modes)))
    return Scenario(**values)


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario from a file path or a bundled name (fig2..fig6, table1)."""
    bundled = os.path.join(os.path.dirname(__file__), "scenarios", f"{path_or_name}.ini")
    path = path_or_name if os.path.isfile(path_or_name) else bundled
    if not os.path.isfile(path):
        raise ScenarioError(f"no scenario file or bundled scenario named {path_or_name!r}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ScenarioError(f"cannot read scenario file {path!r}: {err}") from err
    return parse_scenario(text, os.path.splitext(os.path.basename(path))[0])


# ---------------------------------------------------------------------------
# trial execution


def _run_machine_trials(
    scenario: Scenario,
    name: str,
    params: TpmParams,
    mode: StartMode,
    trials: range,
    seeds: list[list[int]],
) -> list[TrialRecord]:
    """Build each trial's pair for ``mode`` from its (init, aux, sync) seeds,
    run an attack on each (attack scenarios) or synchronize them all in
    lockstep, and record the outcomes."""
    started = time.perf_counter()
    pairs = [mode.machines(params, init_seed, aux_seed) for init_seed, aux_seed, _ in seeds]
    if scenario.kind == "attack":
        outcomes = [
            run_attack(alice, bob, sync_seed, scenario.attack)
            for (alice, bob), (*_, sync_seed) in zip(pairs, seeds)
        ]
        transcripts, results = zip(*outcomes)
        cells = [{"attacker_best_overlap": result.best_overlap} for result in results]
    else:
        config = SyncConfig(max_iterations=scenario.max_iterations, protocol_mode=scenario.protocol_mode)
        transcripts = synchronize_batch(pairs, config, [sync_seed for *_, sync_seed in seeds])
        cells = [{}] * len(pairs)
    wall_time = (time.perf_counter() - started) / len(pairs)
    return [
        TrialRecord(
            scenario=name,
            trial=trial,
            K=params.K,
            N=params.N,
            L=params.L,
            start_mode=str(mode),
            iterations=transcript.iterations,
            learning_steps=transcript.learning_steps,
            disclosed_bits=transcript.disclosed_bits,
            converged=transcript.converged,
            wall_time=wall_time,
            **extra,
        )
        for trial, transcript, extra in zip(trials, transcripts, cells)
    ]


def _run_compare_trials(
    scenario: Scenario, setting_index: int, params: TpmParams, start: StartMode, trials: range
) -> list[TrialRecord]:
    """Per trial, the BBBSS and Cascade rows on one noisy key pair, then the
    mutual-learning row on ``params`` machines from ``start``; the
    mutual-learning rows of all trials run as one lockstep batch."""
    setting = scenario.compare_settings[setting_index]
    parity_rows: list[list[TrialRecord]] = []
    machine_seeds: list[list[int]] = []
    for trial in trials:
        pair_seed, parity_seed_a, parity_seed_b, *seeds = _child_seeds(
            scenario.base_seed, (setting_index, trial), 6
        )
        machine_seeds.append(seeds)
        pair = generate_key_pair(setting.key_length, setting.qber, seed=pair_seed)
        records = []
        for algorithm, seed in (("bbbss", parity_seed_a), ("cascade", parity_seed_b)):
            started = time.perf_counter()
            outcome = run_parity_reconciliation(
                pair, ParityConfig(qber_hint=setting.qber, seed=seed, algorithm=algorithm)
            )
            records.append(
                TrialRecord(
                    scenario=f"{scenario.name}/{algorithm}/{setting.key_length}b",
                    trial=trial,
                    start_mode=str(StartMode("from_qber", setting.qber)),
                    parity_checks=outcome.parity_checks,
                    disclosed_bits=outcome.disclosed_bits,
                    converged=outcome.residual_errors == 0,
                    wall_time=time.perf_counter() - started,
                )
            )
        parity_rows.append(records)
    tpm_rows = _run_machine_trials(
        scenario,
        f"{scenario.name}/tpm/{setting.key_length}b",
        params,
        start,
        trials,
        machine_seeds,
    )
    return [record for parity, tpm in zip(parity_rows, tpm_rows) for record in (*parity, tpm)]


def _scenario_tasks(scenario: Scenario, workers: int) -> list[tuple]:
    """One task (scenario, index, params, start, trials) per sweep point, or
    per contiguous slice of its trials when ``workers`` processes share it."""
    count = scenario.trials
    slices = [range(count * i // workers, count * (i + 1) // workers) for i in range(workers)]
    return [(scenario, *point, trials) for point in scenario.points() for trials in slices if trials]


def _run_task(task: tuple) -> list[TrialRecord]:
    scenario, index, params, start, trials = task
    if scenario.kind == "compare":
        return _run_compare_trials(scenario, index, params, start, trials)
    seeds = [machine_trial_seeds(scenario.base_seed, index, params, trial) for trial in trials]
    return _run_machine_trials(scenario, scenario.name, params, start, trials, seeds)


def run_scenario(scenario: Scenario, workers: int = 1) -> Iterator[TrialRecord]:
    """Execute every trial of the scenario, streaming records in a fixed
    order (mode, K, N, trial) independent of the worker count. The trials of
    a sync sweep point advance in lockstep as one batch, or as one batch per
    contiguous slice when several workers share the point.

    The worker count is checked here, before the first record is requested
    and before any pool exists: it must lie in [1, os.cpu_count()]."""
    cpus = os.cpu_count() or 1
    workers = ScenarioError.integer("workers", workers)
    if workers > cpus:
        raise ScenarioError(f"workers must be in [1, {cpus}], got {workers}")
    return _stream_records(_scenario_tasks(scenario, workers), workers)


def _stream_records(tasks: list[tuple], workers: int) -> Iterator[TrialRecord]:
    if workers == 1:
        for task in tasks:
            yield from _run_task(task)
        return
    # imported here: the pool modules cost ~15 ms, which serial runs never need
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a dead worker raises BrokenProcessPool; a consumer that stops early
    # cancels the queued tasks instead of waiting for them. Spawned workers
    # inherit no locks from threads of the caller.
    executor = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        for records in executor.map(_run_task, tasks):
            yield from records
    finally:
        executor.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# CSV emission


def write_csv(records: Iterable[TrialRecord], handle) -> None:
    """Write the schema comment, header, and one row per record."""
    handle.write(f"# {CSV_SCHEMA}\n")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(record.csv_row() for record in records)


def records_to_csv(records: Iterable[TrialRecord]) -> str:
    buffer = io.StringIO()
    write_csv(records, buffer)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# summaries


@dataclass(frozen=True)
class PointSummary:
    """Statistics over every record of one (scenario, start_mode, K, N) point.

    Non-converged runs count at their censored iteration count, beside the
    ``converged`` count. For the parity rows of a compare scenario an
    iteration is one parity check, and ``converged`` counts runs left
    without residual errors. Wall time is left out of equality, so reruns
    compare equal."""

    scenario: str
    start_mode: str
    K: int
    N: int
    trials: int
    converged: int
    mean_iterations: float
    median_iterations: float
    p90_iterations: float
    mean_disclosed_bits: float
    eve_synced: int
    wall_time: float = field(compare=False)

    @property
    def algorithm(self) -> str:
        """bbbss, cascade or tpm: compare rows are named
        <name>/<algorithm>/<length>b, and every other trial is mutual learning."""
        parts = self.scenario.split("/")
        return parts[1] if len(parts) == 3 else "tpm"


def summarize(records: Iterable[TrialRecord]) -> list[PointSummary]:
    """One summary per point, in the order the points first appear."""
    points: dict[tuple, list[TrialRecord]] = {}
    for record in records:
        points.setdefault((record.scenario, record.start_mode, record.K, record.N), []).append(record)
    summaries = []
    for point, group in points.items():
        cost = np.array([r.parity_checks if r.parity_checks >= 0 else r.iterations for r in group])
        summaries.append(
            PointSummary(
                *point,
                trials=len(group),
                converged=sum(int(r.converged) for r in group),
                mean_iterations=float(np.mean(cost)),
                median_iterations=float(np.median(cost)),
                p90_iterations=float(np.percentile(cost, 90)),
                mean_disclosed_bits=float(np.mean([r.disclosed_bits for r in group])),
                eve_synced=sum(int(r.attacker_best_overlap >= 1.0) for r in group),
                wall_time=sum(r.wall_time for r in group),
            )
        )
    return summaries


def format_summary(summaries: list[PointSummary]) -> str:
    """An aligned text table: a header line, then one line per point."""
    header = [f.name for f in fields(PointSummary)]
    rows = [header] + [
        [f"{v:.2f}" if isinstance(v, float) else str(v) for v in astuple(s)] for s in summaries
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join(
        "  ".join(c.ljust(w) if i < 2 else c.rjust(w) for i, (c, w) in enumerate(zip(row, widths)))
        for row in rows
    )


def compare_algorithms(
    key_length: int,
    qber: float,
    trials: int,
    seed: int,
    tpm_params: TpmParams | None = None,
    workers: int = 1,
) -> list[PointSummary]:
    """Summaries of both parity baselines on identical noisy key pairs and of
    mutual learning on machines seeded at matching agreement (weight overlap
    1-qber), in the order bbbss, cascade, tpm."""
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
    return summarize(run_scenario(scenario, workers=workers))


# ---------------------------------------------------------------------------
# end-to-end pipeline


@dataclass
class PipelineReport:
    """Everything one end-to-end run discloses and produces."""

    params: TpmParams
    qber_estimate: QberEstimate
    transcript: SyncTranscript
    budget: AmplificationBudget
    final_alice: BitKey
    final_bob: BitKey

    @property
    def identical(self) -> bool:
        return self.final_alice == self.final_bob

    def summary(self) -> str:
        p, estimate, digests = self.params, self.qber_estimate, self.transcript.disclosed_bits
        # Shannon entropy of the loaded weights: `doubled` values take 2 of the 2^b chunks
        b, doubled = p.bits_per_weight, 2**p.bits_per_weight - p.alphabet_size
        shannon = p.weight_count * (b - 2 * doubled / 2**b)
        lines = [
            f"raw key length        {estimate.sampled_count + estimate.remaining_alice.length}",
            f"estimated QBER        {estimate.estimate:.4f}"
            f" ({estimate.mismatches}/{estimate.sampled_count})",
            f"sync iterations       {self.transcript.iterations}"
            f" (learning steps {self.transcript.learning_steps})",
            f"disclosed: estimation {estimate.sampled_count} (not charged: the sample left the key)",
            f"charged: sync outputs {self.budget.eve_known_bits - digests} (the paper's accounting, not"
            f" shown to be sound), digests {digests}",
            f"reconciled length     {p.key_bits} (budget on its min-entropy {self.budget.entropy_bits};"
            f" the paper's Shannon figure {shannon:g})",
            f"dropped key bits      {estimate.remaining_alice.length - p.key_bits}",
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
    digest_check_interval: int | None = None,
    error_mode: str = "uniform",
) -> PipelineReport:
    """Generate - estimate - reconcile - plan - amplify, aborting when the
    estimated error rate crosses the threshold. A security margin outside
    [0, K*N*(b-1)) (it must leave some of the loaded machine's min-entropy),
    a threshold outside [0, 0.5], a bad SyncConfig or ``sample_size``, a
    nonzero threshold that one sampled mismatch crosses and fewer than K*N*b
    bits left after the sample (KeyMaterialError) are, in that order, a
    ScenarioError before any key is drawn. No pilots run: the sync stops at
    the last round the min-entropy pays for, one bit per round and 64 per
    digest (hence the sparse default cadence). A session not synced by then
    is plan_budget's InfeasibleBudgetError for the first round past that cap,
    chained from the sync's NonConvergenceError, and so is a protocol-mode
    cap of 0, before any key is drawn. The sample is not charged.
    """
    if not 0 <= security_bits < params.min_entropy_bits:
        raise ScenarioError(f"security_bits={security_bits} must be in [0, K*N*(b-1)) = [0, {params.min_entropy_bits})")
    security_bits = ScenarioError.integer("security_bits", security_bits, low=0)
    if not 0.0 <= qber_threshold <= 0.5:
        raise ScenarioError(f"qber_threshold must be in [0, 0.5], got {qber_threshold}")
    if digest_check_interval is None and protocol_mode:
        digest_check_interval = DEFAULT_PIPELINE_DIGEST_INTERVAL
    config = SyncConfig(protocol_mode=protocol_mode, digest_check_interval=digest_check_interval)
    interval, digest_bits = config.digest_check_interval or 1, DIGEST_BITS if protocol_mode else 0
    cap = interval * ((params.min_entropy_bits - security_bits - 1) // (interval + digest_bits))
    config = replace(config, max_iterations=max(cap, interval))  # a session past a 0 cap still aborts below
    past_cap = leakage_after(cap + interval, params), digest_bits * (cap // interval + 1)  # the first round past the cap
    sampled = sample_size(length, sample_fraction)
    if 0 < qber_threshold < 1 / sampled:
        raise ScenarioError(f"a {sampled}-bit sample cannot resolve qber_threshold={qber_threshold}: one mismatch aborts")
    KeyMaterialError.check(length - sampled, params)
    if cap == 0 and protocol_mode:
        plan_budget(params.min_entropy_bits, *past_cap, security_bits)
    pair_seed, sample_seed, sync_seed, hash_seed = _child_seeds(seed, (0,), 4)
    pair = generate_key_pair(length, qber, seed=pair_seed, error_mode=error_mode)
    estimate = estimate_qber(pair, sample_fraction, seed=sample_seed)
    if estimate.estimate > qber_threshold:
        raise QberAbortError(f"estimated QBER {estimate.estimate:.4f} exceeds threshold {qber_threshold:.4f}")
    try:
        key_a, key_b, transcript = reconcile(estimate.remaining_alice, estimate.remaining_bob, params, config, sync_seed)
    except NonConvergenceError as stalled:
        try:
            plan_budget(params.min_entropy_bits, *past_cap, security_bits)
        except InfeasibleBudgetError as abort:
            raise abort from stalled
    if key_a != key_b:
        raise RuntimeError("pipeline reconciled differing keys")
    leakage = leakage_after(transcript.iterations, params)
    budget = plan_budget(params.min_entropy_bits, leakage, transcript.disclosed_bits, security_bits)
    final = amplify(key_a, ToeplitzSpec.from_seed(budget.final_length, key_a.length, hash_seed))
    return PipelineReport(
        params=params,
        qber_estimate=estimate,
        transcript=transcript,
        budget=budget,
        final_alice=final,
        final_bob=final,
    )
