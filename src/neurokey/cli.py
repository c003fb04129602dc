"""Command-line front end.

Subcommands: sync (single run with overlap trace), scenario (sweep from a
config file: trial CSV on --out or stdout, per-point summary on stderr),
pipeline (end-to-end run). Exit codes: 0 success, 2 non-convergence or
protocol abort (QBER over threshold, budget exhausted), 3 configuration error,
1 stdout closed before the output was written.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    DEFAULT_PIPELINE_DIGEST_INTERVAL,
    QberAbortError,
    StartMode,
    format_summary,
    load_scenario,
    machine_trial_seeds,
    run_pipeline,
    run_scenario,
    summarize,
    write_csv,
)
from .privacy import DEFAULT_SECURITY_BITS, InfeasibleBudgetError
from .sync import NonConvergenceError, SyncConfig, synchronize_from_weights
from .tpm import ScenarioError, TpmParams
from .channel import DEFAULT_QBER_THRESHOLD, DEFAULT_SAMPLE_FRACTION


class _Parser(argparse.ArgumentParser):
    # bad flags are configuration errors: exit 3, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _add_shape_flags(parser: argparse.ArgumentParser, n=25) -> None:
    parser.add_argument("--K", type=int, default=10, help="hidden units")
    parser.add_argument("--N", type=int, default=n, help="inputs per hidden unit")
    parser.add_argument("--L", type=int, default=2, help="weight bound")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="neurokey", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    cadence = "protocol-mode digest cadence (default: {})".format

    p_sync = sub.add_parser("sync", help="one synchronization run with an overlap trace")
    _add_shape_flags(p_sync)
    p_sync.add_argument("--start", default="random", help="start mode, as a scenario's start_mode (default: random)")
    p_sync.add_argument("--seed", type=int, default=0)
    p_sync.add_argument("--budget", type=int, default=None, help="iteration cap (default: pilot-based)")
    p_sync.add_argument("--digest-interval", type=int, help=cadence(SyncConfig(protocol_mode=True).digest_check_interval))
    p_sync.add_argument("--protocol-mode", action="store_true")
    p_sync.add_argument("--trace", action="store_true", help="print per-iteration overlap")
    p_sync.set_defaults(func=cmd_sync)

    p_scen = sub.add_parser("scenario", help="run a scenario file (or bundled name)")
    p_scen.add_argument("scenario", help="path or bundled name: fig2..fig6, table1")
    p_scen.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p_scen.add_argument("--trials", type=int, default=None, help="override the configured trials")
    p_scen.add_argument("--seed", type=int, default=None, help="override the configured base seed")
    p_scen.add_argument("--workers", type=int, default=1)
    p_scen.add_argument("--protocol-mode", action="store_true")
    p_scen.set_defaults(func=cmd_scenario)

    p_pipe = sub.add_parser("pipeline", help="generate, estimate, reconcile, amplify")
    p_pipe.add_argument("--length", type=int, default=2250)
    p_pipe.add_argument("--qber", type=float, default=0.03)
    _add_shape_flags(p_pipe, n=30)
    p_pipe.add_argument("--security-bits", type=int, default=DEFAULT_SECURITY_BITS)
    p_pipe.add_argument("--seed", type=int, default=0)
    p_pipe.add_argument("--sample-fraction", type=float, default=DEFAULT_SAMPLE_FRACTION)
    p_pipe.add_argument("--threshold", type=float, default=DEFAULT_QBER_THRESHOLD)
    p_pipe.add_argument("--protocol-mode", action="store_true")
    p_pipe.add_argument("--digest-interval", type=int, help=cadence(DEFAULT_PIPELINE_DIGEST_INTERVAL))
    p_pipe.set_defaults(func=cmd_pipeline)

    return parser


def cmd_sync(args) -> int:
    # trial 0 of the one-point sync scenario with base seed --seed
    mode = StartMode.parse(args.start)
    params = TpmParams(K=args.K, N=args.N, L=args.L)
    init_seed, aux_seed, sync_seed = machine_trial_seeds(args.seed, 0, params, 0)
    alice, bob = mode.machines(params, init_seed, aux_seed)
    config = SyncConfig(max_iterations=args.budget, digest_check_interval=args.digest_interval, protocol_mode=args.protocol_mode)
    try:
        transcript, error = synchronize_from_weights(alice, bob, config, sync_seed, record_overlap=args.trace), None
    except NonConvergenceError as err:  # a run out of budget prints its partial transcript, then exits 2
        transcript, error = err.transcript, err
    for iteration, overlap in transcript.overlap_trace or ():
        print(f"{iteration}\t{overlap:.6f}")
    print(
        f"converged={transcript.converged} iterations={transcript.iterations} "
        f"learning_steps={transcript.learning_steps} "
        f"digest_exchanges={transcript.digest_exchanges}"
    )
    if error is not None:
        raise error
    return 0


def cmd_scenario(args) -> int:
    scenario = load_scenario(args.scenario)
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.protocol_mode:
        overrides["protocol_mode"] = True
    if overrides:
        scenario = replace(scenario, **overrides)
    if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        raise ScenarioError(f"--out {args.out} must name a file in an existing directory")
    # every record exists before --out is opened, so a failed run leaves no file
    records = list(run_scenario(scenario, workers=args.workers))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            write_csv(records, handle)
    else:
        write_csv(records, sys.stdout)
    print(format_summary(summarize(records)), file=sys.stderr)
    return 0


def cmd_pipeline(args) -> int:
    report = run_pipeline(
        length=args.length,
        qber=args.qber,
        params=TpmParams(K=args.K, N=args.N, L=args.L),
        security_bits=args.security_bits,
        seed=args.seed,
        sample_fraction=args.sample_fraction,
        qber_threshold=args.threshold,
        protocol_mode=args.protocol_mode,
        digest_check_interval=args.digest_interval,
    )
    print(report.summary())
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except SystemExit as exc:  # argparse --help exits 0, our error() exits 3; both meet the flush below
            return int(exc.code or 0)
        finally:
            sys.stdout.flush()  # output left in the buffer meets a closed stdout here, not at exit
    except BrokenPipeError:  # the reader left early; the signal module's docs give this recipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit cannot raise again
        return 1
    except NonConvergenceError as exc:
        print(f"neurokey: non-convergence: {exc}", file=sys.stderr)
        return 2
    except (QberAbortError, InfeasibleBudgetError) as exc:
        print(f"neurokey: abort: {exc}", file=sys.stderr)
        return 2
    except ScenarioError as exc:  # bad input; any other exception is a bug and keeps its traceback
        print(f"neurokey: config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
