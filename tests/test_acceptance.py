"""Acceptance gate: end-to-end checks at their stated tolerances.

Each test prints one `[criterion N] PASS/FAIL` line with the measured values;
the lines bypass pytest's capture so they always reach the terminal.
"""

import math
import os
import time

import numpy as np
import pytest

from neurokey.adversary import AttackConfig, leakage_after
from neurokey.channel import generate_key_pair
from neurokey.harness import Scenario, StartMode, compare_algorithms, records_to_csv, run_scenario
from neurokey.privacy import InfeasibleBudgetError, ToeplitzSpec, amplify, plan_budget
from neurokey.sync import SyncConfig, reconcile
from neurokey.tpm import (
    BitKey,
    Tpm,
    TpmParams,
    bits_to_weights,
    evaluate,
    hebbian_step,
    random_input,
    weights_to_bits,
)

WORKERS = min(2, os.cpu_count() or 1)

_capture = None


@pytest.fixture(autouse=True)
def _live_reporting(capfd):
    global _capture
    _capture = capfd
    yield
    _capture = None


def report(number: int, passed: bool, detail: str) -> None:
    line = f"\n[criterion {number}] {'PASS' if passed else 'FAIL'} - {detail}"
    if _capture is not None:
        with _capture.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert passed, detail


def mean_iterations(records):
    values = [r.iterations for r in records]
    return sum(values) / len(values)


def test_criterion_1_reconciliation_oracle_and_convergence():
    """1000 seeded bit-path trials: identical keys, 100% convergence, < 2 min."""
    scenario = Scenario(
        name="c1",
        kind="sync",
        L=2,
        K_values=(10,),
        N_values=(25,),
        start_modes=(StartMode("from_qber", 0.05),),
        trials=1000,
        base_seed=4101,
        max_iterations=10_000,
    )
    started = time.perf_counter()
    records = list(run_scenario(scenario, workers=WORKERS))
    elapsed = time.perf_counter() - started
    converged = sum(r.converged for r in records)
    # direct spot check of the key-equality oracle on a handful of trials
    params = TpmParams(10, 25, 2)
    for trial in range(5):
        pair = generate_key_pair(params.key_bits, 0.05, seed=trial)
        key_a, key_b, _ = reconcile(pair.alice, pair.bob, params, SyncConfig(max_iterations=10_000), trial)
        assert key_a == key_b
    ok = converged == 1000 and elapsed < 120.0
    report(1, ok, f"convergence {converged}/1000, wall {elapsed:.1f}s (< 120s)")


def test_criterion_2_table_tpm_iteration_means():
    """Mean iterations within +-35% of 120 (N=25) and 98 (N=30) at 1000 trials."""
    means = {}
    for name, n_inputs, overlap, target in (
        ("table-500b", 25, 0.95, 120.0),
        ("table-600b", 30, 0.97, 98.0),
    ):
        scenario = Scenario(
            name=name,
            kind="sync",
            L=2,
            K_values=(10,),
            N_values=(n_inputs,),
            start_modes=(StartMode("overlap", overlap),),
            trials=1000,
            base_seed=4102,
            max_iterations=100_000,
        )
        means[name] = (mean_iterations(list(run_scenario(scenario, workers=WORKERS))), target)
    ok = all(0.65 * target <= mean <= 1.35 * target for mean, target in means.values())
    detail = ", ".join(
        f"{name}: {mean:.1f} (target {target:.0f} +-35%)" for name, (mean, target) in means.items()
    )
    report(2, ok, detail)


def test_criterion_3_table_baselines_and_ordering():
    """BBBSS/Cascade means within +-35% of Table values; TPM < Cascade < BBBSS."""
    results = {}
    for length, qber, n_inputs, targets in (
        (500, 0.05, 25, {"bbbss": 213.0, "cascade": 181.0}),
        (600, 0.03, 30, {"bbbss": 189.0, "cascade": 150.0}),
    ):
        rows = compare_algorithms(
            length, qber, trials=600, seed=4103,
            tpm_params=TpmParams(K=10, N=n_inputs, L=2), workers=WORKERS,
        )
        results[length] = ({r.algorithm: r.mean_iterations for r in rows}, targets)
    ok = True
    details = []
    for length, (means, targets) in results.items():
        for algorithm, target in targets.items():
            in_band = 0.65 * target <= means[algorithm] <= 1.35 * target
            ok = ok and in_band
            details.append(f"{length}b {algorithm} {means[algorithm]:.1f} (target {target:.0f})")
        ordered = means["tpm"] < means["cascade"] < means["bbbss"]
        ok = ok and ordered
        details.append(f"{length}b order tpm<cascade<bbbss: {ordered}")
    report(3, ok, "; ".join(details))


def test_criterion_4_speedup_ratio_per_point():
    """Random-start vs 95%-overlap mean-iteration ratio in [2, 6] for every
    (K, N) in {6,8,10} x {20..25}."""
    trials = 500
    sums: dict[tuple, dict[str, float]] = {}
    scenario = Scenario(
        name="c4",
        kind="sync",
        L=2,
        K_values=(6, 8, 10),
        N_values=tuple(range(20, 26)),
        start_modes=(StartMode("random"), StartMode("overlap", 0.95)),
        trials=trials,
        base_seed=4104,
        max_iterations=100_000,
    )
    for record in run_scenario(scenario, workers=WORKERS):
        point = sums.setdefault((record.K, record.N), {"random": 0.0, "overlap:0.95": 0.0})
        point[record.start_mode] += record.iterations
    ratios = {
        point: values["random"] / values["overlap:0.95"] for point, values in sums.items()
    }
    bad = {point: round(ratio, 2) for point, ratio in ratios.items() if not 2.0 <= ratio <= 6.0}
    lo, hi = min(ratios.values()), max(ratios.values())
    report(4, not bad, f"18 points, ratio range [{lo:.2f}, {hi:.2f}], out of [2,6]: {bad or 'none'}")


def test_criterion_5_attacker_race():
    """N=8, K=6, L=2: Alice/Bob median <= 500; passive Eve fails >= 80%."""
    scenario = Scenario(
        name="c5",
        kind="attack",
        L=2,
        K_values=(6,),
        N_values=(8,),
        start_modes=(StartMode("random"),),
        trials=500,
        base_seed=4105,
        attack=AttackConfig(strategy="passive", iteration_budget=1000, until="budget"),
    )
    records = list(run_scenario(scenario, workers=WORKERS))
    converged = sorted(r.iterations for r in records if r.converged)
    median = converged[len(converged) // 2]
    failures = sum(1 for r in records if r.attacker_best_overlap < 1.0)
    ok = median <= 500 and failures / len(records) >= 0.80
    report(
        5,
        ok,
        f"ab median {median} (<= 500), eve failure rate {failures / len(records):.3f} (>= 0.80)",
    )


def test_criterion_6_leakage_formula_exact():
    """Z = i / log2(2L+1) to 1e-9 relative error on a grid; Z(0) = 0 exactly."""
    worst = 0.0
    for L in (1, 2, 3, 5, 10, 17):
        params = TpmParams(K=3, N=7, L=L)
        assert leakage_after(0, params).weight_equivalent_reduction == 0.0
        for i in (1, 2, 7, 98, 120, 1000, 123_456):
            expected = i / math.log2(2 * L + 1)
            got = leakage_after(i, params).weight_equivalent_reduction
            worst = max(worst, abs(got - expected) / expected)
    report(6, worst <= 1e-9, f"worst relative error {worst:.2e} (<= 1e-9), Z(0)=0 exact")


def test_criterion_7_property_suite():
    """Deterministic property checks: clamping, sgn(0), codec, absorption,
    Toeplitz linearity and collision rate, budget arithmetic."""
    failures = []

    # weight clamping under fuzzed update sequences
    rng = np.random.default_rng(4107)
    for _ in range(200):
        params = TpmParams(
            K=int(rng.integers(1, 5)), N=int(rng.integers(1, 7)), L=int(rng.integers(1, 5))
        )
        tpm = Tpm.random(params, rng)
        for _ in range(20):
            x = random_input(params, rng)
            own = evaluate(tpm, x)
            tpm = hebbian_step(tpm, x, own, own.tau)
        if int(np.abs(tpm.weights).max()) > params.L:
            failures.append("clamping")
            break

    # sgn(0) = -1
    zero = Tpm(TpmParams(2, 3, 1), np.zeros((2, 3), dtype=int))
    if evaluate(zero, np.ones((2, 3), dtype=int)).sigma.tolist() != [-1, -1]:
        failures.append("sgn(0)")

    # codec round trips
    for _ in range(200):
        params = TpmParams(
            K=int(rng.integers(1, 5)), N=int(rng.integers(1, 7)), L=int(rng.integers(1, 5))
        )
        tpm = Tpm.random(params, rng)
        if bits_to_weights(weights_to_bits(tpm), params) != tpm:
            failures.append("codec")
            break

    # identical-machine absorption
    params = TpmParams(4, 6, 2)
    tpm = Tpm.random(params, rng)
    twin = tpm.copy()
    for _ in range(300):
        x = random_input(params, rng)
        ea, eb = evaluate(tpm, x), evaluate(twin, x)
        tpm = hebbian_step(tpm, x, ea, eb.tau)
        twin = hebbian_step(twin, x, eb, ea.tau)
    if tpm != twin:
        failures.append("absorption")

    # Toeplitz linearity
    for _ in range(300):
        spec = ToeplitzSpec.from_seed(8, 32, seed=int(rng.integers(0, 2**32)))
        x = BitKey(rng.integers(0, 2, size=32, dtype=np.uint8))
        y = BitKey(rng.integers(0, 2, size=32, dtype=np.uint8))
        if amplify(x ^ y, spec) != amplify(x, spec) ^ amplify(y, spec):
            failures.append("linearity")
            break

    # Toeplitz collision rate at R=8, M=32 over 1e5 seeds
    rows, cols, trials = 8, 32, 100_000
    x = BitKey(rng.integers(0, 2, size=cols, dtype=np.uint8))
    y = BitKey(rng.integers(0, 2, size=cols, dtype=np.uint8))
    while y == x:
        y = BitKey(rng.integers(0, 2, size=cols, dtype=np.uint8))
    seeds = rng.integers(0, 2, size=(trials, rows + cols - 1), dtype=np.uint8)
    collisions = sum(
        1
        for row in seeds
        if amplify(x, ToeplitzSpec(rows, cols, row)) == amplify(y, ToeplitzSpec(rows, cols, row))
    )
    expected = 2.0**-rows
    sigma = math.sqrt(expected * (1 - expected) / trials)
    rate = collisions / trials
    if abs(rate - expected) > 3 * sigma:
        failures.append(f"collision rate {rate:.5f}")

    # budget arithmetic and strict-inequality rejection
    leak = leakage_after(0, TpmParams(1, 1, 1))
    if plan_budget(1000, leak, 100, 50).final_length != 850:
        failures.append("budget arithmetic")
    try:
        plan_budget(1000, leak, 100, 900)
        failures.append("strict inequality")
    except InfeasibleBudgetError:
        pass

    report(7, not failures, f"failures: {failures or 'none'}")


def test_criterion_8_csv_determinism():
    """Scenario rerun with identical config and seed is byte-identical."""
    scenario = Scenario(
        name="c8",
        kind="sync",
        L=2,
        K_values=(6,),
        N_values=(20, 21),
        start_modes=(StartMode("overlap", 0.95),),
        trials=5,
        base_seed=4108,
        max_iterations=100_000,
    )
    first = records_to_csv(run_scenario(scenario, workers=1))
    second = records_to_csv(run_scenario(scenario, workers=1))
    parallel = records_to_csv(run_scenario(scenario, workers=WORKERS))
    ok = first == second == parallel
    report(8, ok, f"serial rerun identical: {first == second}; worker-count invariant: {first == parallel}")
