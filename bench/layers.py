"""Per-layer counters of a traced run.

``LayerStats.install`` wraps the library's public functions in the namespaces
where they are looked up, and the hooks turn each call into counts for its
layer (a layer is a module of ``src/neurokey``). ``metrics`` turns counts and
span self times into the per-layer metrics. A ratio whose base is zero on a
workload (no burst keys in ``sweep``, say) reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from neurokey import adversary, channel, harness, parity, privacy, sync

import workloads
from spans import Recorder

LAYERS = ("harness", "sync", "tpm", "channel", "parity", "adversary", "privacy")
CSV_SPAN = "harness.records_to_csv"


def _arg(args: tuple, kwargs: dict, position: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


class LayerStats:
    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.counts: dict[str, float] = defaultdict(float)

    def install(self) -> None:
        wrap = self.recorder.wrap
        wrap(workloads, "run_scenario", "harness.run_scenario")
        wrap(harness, "run_pipeline", "harness.run_pipeline")
        wrap(harness, "records_to_csv", CSV_SPAN)
        wrap(harness, "reconcile", "sync.reconcile")
        wrap(harness, "seed_initial_overlap", "sync.seed_initial_overlap")
        wrap(sync, "resolve_iteration_budget", "sync.resolve_iteration_budget", self._pilot)
        wrap(harness, "run_attack", "adversary.run_attack", self._attack)
        wrap(sync, "weights_to_bits", "tpm.weights_to_bits", self._codec)
        for namespace in (harness, sync):
            wrap(namespace, "synchronize_from_weights", "sync.synchronize_from_weights", self._sync)
            wrap(namespace, "bits_to_weights", "tpm.bits_to_weights", self._codec)
        for namespace in (harness, channel):
            wrap(namespace, "generate_key_pair", "channel.generate_key_pair", self._generate)
            wrap(namespace, "estimate_qber", "channel.estimate_qber", self._estimate)
        for namespace in (harness, parity):
            wrap(namespace, "run_parity_reconciliation", "parity.run_parity_reconciliation", self._parity)
        for namespace in (harness, privacy):
            wrap(namespace, "plan_budget", "privacy.plan_budget", self._plan)
            wrap(namespace, "amplify", "privacy.amplify", self._amplify)

    # -- hooks: (args, kwargs, result, error, span, index, parent name)

    def _sync(self, args, kwargs, result, error, span, index, parent) -> None:
        if error is not None and not isinstance(error, sync.NonConvergenceError):
            return
        transcript = result if error is None else error.transcript
        c = self.counts
        if parent == "sync.resolve_iteration_budget":
            c["pilot_rounds"] += transcript.iterations
            return
        seconds = span.end - span.start
        c["rounds"] += transcript.iterations
        c["learning_steps"] += transcript.learning_steps
        c["digest_exchanges"] += transcript.digest_exchanges
        c["sync_s"] += seconds
        c["nonconverged"] += error is not None
        if _arg(args, kwargs, 2, "config").protocol_mode:
            c["protocol_rounds"] += transcript.iterations
            c["protocol_s"] += seconds

    def _pilot(self, args, kwargs, result, error, span, index, parent) -> None:
        # cached budgets return at once; only calls that ran pilots count
        if self.recorder.has_children(index):
            self.counts["pilot_s"] += span.end - span.start

    def _codec(self, args, kwargs, result, error, span, index, parent) -> None:
        self.counts["codec_calls"] += 1
        self.counts["codec_s"] += span.end - span.start

    def _generate(self, args, kwargs, result, error, span, index, parent) -> None:
        if error is not None:
            return
        mode = _arg(args, kwargs, 3, "error_mode", "uniform")
        self.counts[f"generate_bits.{mode}"] += result.length
        self.counts[f"generate_s.{mode}"] += span.end - span.start

    def _estimate(self, args, kwargs, result, error, span, index, parent) -> None:
        self.counts["estimate_s"] += span.end - span.start

    def _parity(self, args, kwargs, result, error, span, index, parent) -> None:
        if error is not None:
            return
        algorithm = _arg(args, kwargs, 1, "config").algorithm
        c = self.counts
        c[f"{algorithm}.runs"] += 1
        c[f"{algorithm}.bits"] += _arg(args, kwargs, 0, "pair").length
        c[f"{algorithm}.checks"] += result.parity_checks
        c[f"{algorithm}.busy_s"] += span.end - span.start
        c[f"{algorithm}.residual_runs"] += result.residual_errors > 0

    def _attack(self, args, kwargs, result, error, span, index, parent) -> None:
        if error is not None:
            return
        _, outcome = result
        machines = 2 + _arg(args, kwargs, 3, "attack").ensemble_size
        c = self.counts
        c["attack_runs"] += 1
        c["attack_rounds"] += outcome.iterations_observed
        c["machine_rounds"] += outcome.iterations_observed * machines
        c["attack_s"] += span.end - span.start
        c["eve_synced"] += outcome.synced

    def _plan(self, args, kwargs, result, error, span, index, parent) -> None:
        self.counts["infeasible"] += isinstance(error, privacy.InfeasibleBudgetError)

    def _amplify(self, args, kwargs, result, error, span, index, parent) -> None:
        spec = _arg(args, kwargs, 1, "spec")
        self.counts["amplify_calls"] += 1
        self.counts["bit_products"] += spec.rows * spec.cols
        self.counts["amplify_s"] += span.end - span.start

    # -- report

    def metrics(self, window_s: float, span_cost_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)} for the timed operations
        (pilot figures come from set-up, where the pilots run)."""
        c = self.counts

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return num * scale / den if den else 0.0

        own = self.recorder.self_times()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in own.items():
            layer, _, _ = name.partition(".")
            if layer in layer_self and name != CSV_SPAN:
                layer_self[layer] += seconds
        m: dict[str, tuple[float, str]] = {
            "harness.self_s": (layer_self["harness"], "s"),
            "harness.csv_s": (own.get(CSV_SPAN, 0.0), "s"),
            "sync.rounds": (c["rounds"], "count"),
            "sync.learning_steps": (c["learning_steps"], "count"),
            "sync.learn_ratio": (ratio(c["learning_steps"], c["rounds"]), "frac"),
            "sync.busy_s": (c["sync_s"], "s"),
            "sync.us_per_round": (ratio(c["sync_s"], c["rounds"], 1e6), "us"),
            "sync.digest_exchanges": (c["digest_exchanges"], "count"),
            "sync.protocol_us_per_round": (ratio(c["protocol_s"], c["protocol_rounds"], 1e6), "us"),
            "sync.pilot_s": (c["pilot_s"], "s"),
            "sync.pilot_rounds": (c["pilot_rounds"], "count"),
            "sync.nonconverged": (c["nonconverged"], "count"),
            "tpm.codec_calls": (c["codec_calls"], "count"),
            "tpm.codec_s": (c["codec_s"], "s"),
            "channel.generate_kbit": (
                (c["generate_bits.uniform"] + c["generate_bits.burst"]) / 1000, "kbit"
            ),
        }
        for mode in ("uniform", "burst"):
            m[f"channel.us_per_kbit.{mode}"] = (
                ratio(c[f"generate_s.{mode}"], c[f"generate_bits.{mode}"], 1e9), "us"
            )
        m["channel.estimate_s"] = (c["estimate_s"], "s")
        for algorithm in ("cascade", "bbbss"):
            m[f"parity.{algorithm}.checks"] = (c[f"{algorithm}.checks"], "count")
            m[f"parity.{algorithm}.busy_s"] = (c[f"{algorithm}.busy_s"], "s")
            m[f"parity.{algorithm}.ns_per_bit"] = (
                ratio(c[f"{algorithm}.busy_s"], c[f"{algorithm}.bits"], 1e9), "ns"
            )
        m["parity.bbbss.residual_rate"] = (ratio(c["bbbss.residual_runs"], c["bbbss.runs"]), "frac")
        m.update({
            "adversary.rounds": (c["attack_rounds"], "count"),
            "adversary.machine_rounds": (c["machine_rounds"], "count"),
            "adversary.busy_s": (c["attack_s"], "s"),
            "adversary.us_per_machine_round": (ratio(c["attack_s"], c["machine_rounds"], 1e6), "us"),
            "adversary.eve_success_rate": (ratio(c["eve_synced"], c["attack_runs"]), "frac"),
            "privacy.amplify.calls": (c["amplify_calls"], "count"),
            "privacy.amplify.bit_products": (c["bit_products"], "count"),
            "privacy.amplify.busy_s": (c["amplify_s"], "s"),
            "privacy.plan_budget.infeasible": (c["infeasible"], "count"),
        })
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        m["trace.overhead_frac"] = (
            ratio(span_cost_s * self.recorder.op_span_count(), window_s), "frac"
        )
        return m
