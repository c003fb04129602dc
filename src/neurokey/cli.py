"""Command-line front end.

Subcommands: sync (single run with overlap trace), scenario (sweep from a
config file), compare (algorithm comparison), pipeline (end-to-end run),
attack (eavesdropper study). Exit codes: 0 success, 2 non-convergence or
protocol abort, 3 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .adversary import AttackConfig
from .harness import (
    QberAbortError,
    Scenario,
    ScenarioError,
    StartMode,
    compare_algorithms,
    comparison_csv,
    format_comparison_table,
    load_scenario,
    machine_trial_seeds,
    run_pipeline,
    run_scenario,
    write_csv,
)
from .privacy import DEFAULT_SECURITY_BITS, InfeasibleBudgetError
from .sync import NonConvergenceError, SyncConfig, synchronize_from_weights
from .tpm import TpmParams
from .channel import DEFAULT_QBER_THRESHOLD, DEFAULT_SAMPLE_FRACTION


class _Parser(argparse.ArgumentParser):
    # bad flags are configuration errors: exit 3, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _add_shape_flags(parser: argparse.ArgumentParser, k=10, n=25, l=2) -> None:
    parser.add_argument("--K", type=int, default=k, help="hidden units")
    parser.add_argument("--N", type=int, default=n, help="inputs per hidden unit")
    parser.add_argument("--L", type=int, default=l, help="weight bound")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="neurokey", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sync = sub.add_parser("sync", help="one synchronization run with an overlap trace")
    _add_shape_flags(p_sync)
    group = p_sync.add_mutually_exclusive_group()
    group.add_argument("--overlap", type=float, help="start from this weight agreement")
    group.add_argument("--qber", type=float, help="start from keys over a channel at this rate")
    p_sync.add_argument("--seed", type=int, default=0)
    p_sync.add_argument("--budget", type=int, default=None, help="iteration cap (default: pilot-based)")
    p_sync.add_argument("--digest-interval", type=int, default=10)
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

    p_cmp = sub.add_parser("compare", help="BBBSS vs Cascade vs mutual learning")
    p_cmp.add_argument("--length", type=int, default=500)
    p_cmp.add_argument("--qber", type=float, default=0.05)
    p_cmp.add_argument("--trials", type=int, default=1000)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--workers", type=int, default=1)
    p_cmp.add_argument("--out", default=None, help="also write a summary CSV here")
    _add_shape_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_pipe = sub.add_parser("pipeline", help="generate, estimate, reconcile, amplify")
    p_pipe.add_argument("--length", type=int, default=2250)
    p_pipe.add_argument("--qber", type=float, default=0.03)
    _add_shape_flags(p_pipe, n=30)
    p_pipe.add_argument("--security-bits", type=int, default=DEFAULT_SECURITY_BITS)
    p_pipe.add_argument("--seed", type=int, default=0)
    p_pipe.add_argument("--sample-fraction", type=float, default=DEFAULT_SAMPLE_FRACTION)
    p_pipe.add_argument("--threshold", type=float, default=DEFAULT_QBER_THRESHOLD)
    p_pipe.add_argument("--protocol-mode", action="store_true")
    p_pipe.add_argument("--digest-interval", type=int, default=100)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_atk = sub.add_parser("attack", help="eavesdropper study over many trials")
    _add_shape_flags(p_atk, k=6, n=8)
    p_atk.add_argument("--strategy", choices=("passive", "geometric", "ensemble"), default="passive")
    p_atk.add_argument("--ensemble-size", type=int, default=1)
    p_atk.add_argument("--budget", type=int, default=1000)
    p_atk.add_argument("--overlap", type=float, default=None, help="Alice/Bob initial agreement")
    p_atk.add_argument("--trials", type=int, default=500)
    p_atk.add_argument("--seed", type=int, default=0)
    p_atk.add_argument("--workers", type=int, default=1)
    p_atk.add_argument("--out", default=None, help="CSV output path")
    p_atk.set_defaults(func=cmd_attack)

    return parser


def cmd_sync(args) -> int:
    # trial 0 of the one-point sync scenario with base seed --seed
    if args.qber is not None:
        mode = StartMode("from_qber", args.qber)
    elif args.overlap is not None:
        mode = StartMode("overlap", args.overlap)
    else:
        mode = StartMode("random")
    params = TpmParams(K=args.K, N=args.N, L=args.L)
    init_seed, aux_seed, sync_seed = machine_trial_seeds(args.seed, 0, params, 0)
    alice, bob = mode.machines(params, init_seed, aux_seed)
    config = SyncConfig(
        params=params,
        max_iterations=args.budget,
        digest_check_interval=args.digest_interval,
        seed=sync_seed,
        protocol_mode=args.protocol_mode,
        record_overlap=True,
    )
    transcript = synchronize_from_weights(alice, bob, config)
    if args.trace and transcript.overlap_trace:
        for iteration, overlap in transcript.overlap_trace:
            print(f"{iteration}\t{overlap:.6f}")
    print(
        f"converged={transcript.converged} iterations={transcript.iterations} "
        f"learning_steps={transcript.learning_steps} "
        f"digest_exchanges={transcript.digest_exchanges}"
    )
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
    records = run_scenario(scenario, workers=args.workers)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            count = write_csv(records, handle)
        print(f"wrote {count} records to {args.out}", file=sys.stderr)
    else:
        write_csv(records, sys.stdout)
    return 0


def cmd_compare(args) -> int:
    rows = compare_algorithms(
        args.length,
        args.qber,
        args.trials,
        args.seed,
        tpm_params=TpmParams(K=args.K, N=args.N, L=args.L),
        workers=args.workers,
    )
    print(format_comparison_table(rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(comparison_csv(rows))
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


def cmd_attack(args) -> int:
    start = StartMode("random") if args.overlap is None else StartMode("overlap", args.overlap)
    scenario = Scenario(
        name=f"attack-{args.strategy}",
        kind="attack",
        L=args.L,
        K_values=(args.K,),
        N_values=(args.N,),
        start_modes=(start,),
        trials=args.trials,
        base_seed=args.seed,
        attack=AttackConfig(
            strategy=args.strategy,
            ensemble_size=args.ensemble_size,
            iteration_budget=args.budget,
        ),
    )
    records = list(run_scenario(scenario, workers=args.workers))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            write_csv(records, handle)
    synced = sum(1 for r in records if r.attacker_best_overlap >= 1.0)
    converged = [r.iterations for r in records if r.converged]
    median = sorted(converged)[len(converged) // 2] if converged else -1
    print(
        f"trials={len(records)} ab_converged={len(converged)} "
        f"ab_median_iterations={median} "
        f"eve_synced={synced} eve_success_rate={synced / len(records):.4f}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help exits 0; our error() exits 3
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"neurokey: non-convergence: {exc}", file=sys.stderr)
        return 2
    except QberAbortError as exc:
        print(f"neurokey: abort: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, InfeasibleBudgetError, ValueError) as exc:
        print(f"neurokey: config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
