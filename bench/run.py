#!/usr/bin/env python3
"""neurokey benchmark: one command per workload run, from the root of a checkout.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads: sweep, attack_race, distill (see workloads.py and NOTES.md). The
library is imported from ./src of the checkout; without it the run fails.

Every run makes a fixed number of operation cycles, sized by --seconds: the
workload's cycles_per_second is calibrated so that the cycles take --seconds
at the nominal machine speed of reference.py. The operations, and so the
attempted and failed counts, repeat exactly at one seed and one --seconds.
--trace 0 measures the end-to-end metrics: set-up time (median of several
fresh-interpreter set-ups), then the cycles back to back. Times are scaled to
a fixed machine speed by a reference kernel run alongside (reference.py); the
record keeps the wall figures too.
--trace 1 wraps the library's public functions, runs the same cycles and
reports the per-layer metrics.

Both modes rerun the first cycle after the measurement and compare its output
digest with the first pass. The last line of stdout is the result JSON; the
line before it holds the run's record (environment, digest, failures). Both
are also written under bench/out/.
"""

import time

_STARTED = time.perf_counter()  # set-up clock: starts before numpy is imported

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from reference import Reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 5  # fresh-interpreter set-ups per run; setup_s is their median
TAIL_BEYOND = 10  # the tail latency has at least this many samples beyond it
SHOWN_FAILURES = 20
KERNEL_INTERVAL_S = 0.2  # timed runs time the reference kernel this often


def load(workload_name: str):
    """Import the library from the checkout's src/ and return the workload."""
    if not (SRC / "neurokey" / "__init__.py").is_file():
        raise SystemExit(f"error: no neurokey sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import neurokey
    import workloads

    if Path(neurokey.__file__).resolve().parent != SRC / "neurokey":
        raise SystemExit(f"error: neurokey imported from {neurokey.__file__}, not {SRC}")
    return workloads.WORKLOADS[workload_name]


def probe_setup(workload_name: str, reference: Reference) -> tuple[float, float]:
    """Set-up of one fresh interpreter: (wall seconds for imports plus
    warm-up, mean reference kernel seconds just before and just after)."""
    before = reference.seconds()
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name, "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    after = reference.seconds()
    setup_s = json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]
    return setup_s, (before + after) / 2


def environment(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def _git_commit() -> str | None:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "neurokey").rglob("*")):
        if path.suffix in (".py", ".ini"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


class Run:
    """Runs operation cycles and keeps what the metrics need."""

    def __init__(self, workload, seed: int, recorder=None, reference=None) -> None:
        self.workload = workload
        self.seed = seed
        self.recorder = recorder
        self.reference = reference
        self.latencies: list[float] = []  # wall seconds per operation
        self.slices: list[int] = []  # per operation: index of the kernel time before it
        self.kernel_s: list[float] = []  # reference kernel times, in run order
        self.raw_bits = 0
        self.trials = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong_outputs: list[str] = []
        self.protocol_outcomes: dict[str, int] = {}
        self.first_digest: str | None = None
        # (first operation, operations, trials, raw bits) of every cycle completed
        self.cycles: list[tuple[int, int, int, int]] = []

    def execute(self, op) -> bytes:
        started = time.perf_counter()
        output, failure, protocol, wrong = op.attempt()
        self.latencies.append(time.perf_counter() - started)
        self.attempted += 1
        self.raw_bits += op.raw_bits
        self.trials += op.trials
        if protocol is not None:
            self.protocol_outcomes[protocol] = self.protocol_outcomes.get(protocol, 0) + 1
        if failure is not None:
            self.failures.append(f"op {self.attempted - 1} ({op.label}): {failure}")
            if wrong:
                self.wrong_outputs.append(self.failures[-1])
        return output

    def measure(self, cycles: int) -> float:
        """Run ``cycles`` whole cycles back to back; returns the measured seconds."""
        started = time.perf_counter()
        last_kernel = -math.inf
        for index in range(cycles):
            digest = hashlib.sha256()
            ops = self.workload.cycle(self.seed, index)
            first = self.attempted
            for op in ops:
                now = time.perf_counter()
                if self.reference is not None and now - last_kernel >= KERNEL_INTERVAL_S:
                    self.kernel_s.append(self.reference.seconds())
                    last_kernel = now
                self.slices.append(len(self.kernel_s) - 1)
                if self.recorder is not None:
                    self.recorder.op = self.attempted
                digest.update(self.execute(op))
            trials = sum(op.trials for op in ops)
            self.cycles.append((first, len(ops), trials, sum(op.raw_bits for op in ops)))
            if index == 0:
                self.first_digest = digest.hexdigest()
        elapsed = time.perf_counter() - started
        if self.reference is not None:
            self.kernel_s.append(self.reference.seconds())
        return elapsed

    def scaled_latencies(self) -> list[float]:
        """Operation seconds at the reference machine speed: each wall time
        scaled by the nominal kernel time over the mean of the kernel times
        measured just before and just after it."""
        return [
            seconds * self.reference.nominal_s * 2 / (self.kernel_s[k] + self.kernel_s[k + 1])
            for seconds, k in zip(self.latencies, self.slices)
        ]

    def replay_first_cycle(self) -> str:
        """Digest of the first cycle, run again outside the measurement."""
        digest = hashlib.sha256()
        for op in self.workload.cycle(self.seed, 0):
            digest.update(op.attempt()[0])
        return digest.hexdigest()


def latency_summary(latencies: list[float]) -> tuple[float, float, float]:
    """(p50, tail, tail percentile) in seconds; the tail is the highest
    percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return statistics.median(ordered), ordered[rank], 100.0 * (rank + 1) / n


def end_to_end(run: Run, window: float, probes: list[tuple[float, float]]) -> tuple[dict, dict]:
    setup = [seconds * run.reference.nominal_s / kernel for seconds, kernel in probes]
    scaled = run.scaled_latencies()
    p50, tail, tail_percentile = latency_summary(scaled)
    # rates are medians over whole cycles, which all hold the same mix of operations
    busy = [sum(scaled[first : first + ops]) for first, ops, _, _ in run.cycles]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "trials_per_s": (statistics.median(c[2] / s for c, s in zip(run.cycles, busy)), "1/s"),
        "distill_p50_ms": (1000 * p50, "ms"),
        "distill_tail_ms": (1000 * tail, "ms"),
        "raw_kbit_per_s": (statistics.median(c[3] / 1000 / s for c, s in zip(run.cycles, busy)), "kbit/s"),
        "success_frac": ((run.attempted - len(run.failures)) / run.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall_p50, wall_tail, _ = latency_summary(run.latencies)
    detail = {
        "setup_probes": [{"wall_s": seconds, "kernel_s": kernel} for seconds, kernel in probes],
        "latency_samples": len(scaled),
        "tail_percentile": tail_percentile,
        "window_s": window,
        "cycles": len(run.cycles),
        "kernel_s": {
            "kernel": run.reference.kernel,
            "runs": len(run.kernel_s),
            "median": statistics.median(run.kernel_s),
            "min": min(run.kernel_s),
            "max": max(run.kernel_s),
        },
        # the same figures unscaled, as the wall clock read them
        "wall": {
            "trials_per_s": run.trials / window,
            "distill_p50_ms": 1000 * wall_p50,
            "distill_tail_ms": 1000 * wall_tail,
            "raw_kbit_per_s": run.raw_bits / 1000 / window,
            "setup_s": statistics.median(seconds for seconds, _ in probes),
        },
    }
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("sweep", "attack_race", "distill"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        load(args.workload).warm_up()
        print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = load(args.workload)
    reference, probes = None, []
    if not args.trace:
        reference = Reference(workload.reference_kernel)
        reference.seconds()  # the first call pays numpy's lazy set-up
        probes = [probe_setup(args.workload, reference) for _ in range(SETUP_PROBES)]
    recorder = stats = None
    if args.trace:
        import layers
        import spans

        span_cost = spans.span_cost()
        recorder = spans.Recorder()
        stats = layers.LayerStats(recorder)
        stats.install()
    workload.warm_up()

    run = Run(workload, args.seed, recorder, reference)
    window = run.measure(max(1, math.ceil(args.seconds * workload.cycles_per_second)))
    if args.trace:
        metrics = stats.metrics(window, span_cost)
        recorder.restore()
        detail = {"cycles": len(run.cycles), "window_s": window, "spans": len(recorder.spans)}
    else:
        metrics, detail = end_to_end(run, window, probes)

    digest_repeats = run.replay_first_cycle() == run.first_digest
    correct = digest_repeats and not run.wrong_outputs

    record = environment(args.workload, args.seed)
    record.update(
        trace=args.trace,
        seconds=args.seconds,
        output_sha256=run.first_digest,
        output_repeats=digest_repeats,
        wrong_outputs=run.wrong_outputs[:SHOWN_FAILURES],
        protocol_outcomes=run.protocol_outcomes,
        failures=run.failures[:SHOWN_FAILURES],
        **detail,
    )
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # the raw data behind the scaled metrics
    series = {"op_wall_s": run.latencies, "op_slice": run.slices, "kernel_s": run.kernel_s, "cycles": run.cycles}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"record": record, "result": result, "series": series}, handle)
    if recorder is not None:
        recorder.dump(OUT / f"{stem}.spans.jsonl")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
