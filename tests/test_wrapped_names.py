"""The traced benchmark counts each layer's work by replacing library
functions by name, in the module where the library looks each name up. A
call moved into another module slips past its wrap, and that layer's
metrics read 0 with no error. Each case here replaces one wrapped name the
same way and requires the library's own caller to reach the replacement.

A name with no caller (None) is one the benchmark calls itself, through the
module; replacing it only requires that the module still has it.
"""

import numpy as np
import pytest

from neurokey import channel, harness, parity, privacy, sync
from neurokey.adversary import AttackConfig
from neurokey.harness import CompareSetting, Scenario, StartMode, run_pipeline, run_scenario
from neurokey.sync import SyncConfig, reconcile, synchronize_batch
from neurokey.tpm import BitKey, Tpm, TpmParams

PARAMS = TpmParams(K=3, N=4, L=2)


def from_qber_start():
    StartMode("from_qber", 0.05).machines(PARAMS, 1, 2)


def overlap_start():
    StartMode("overlap", 0.5).machines(PARAMS, 1, 2)


def pipeline():
    run_pipeline(length=300, qber=0.0, params=TpmParams(K=4, N=6, L=2), security_bits=10, seed=1)


def reconciliation():
    key = BitKey.from_string("01" * (PARAMS.key_bits // 2))
    reconcile(key, key, PARAMS, SyncConfig(max_iterations=100), 0)


def attack_scenario():
    attack = AttackConfig(iteration_budget=50)
    list(run_scenario(Scenario("atk", "attack", K_values=(3,), N_values=(4,), trials=1, attack=attack)))


def compare_scenario():
    setting = CompareSetting(64, 0.05, 8)
    list(run_scenario(Scenario("cmp", "compare", K_values=(3,), trials=1, compare_settings=(setting,))))


def batch_without_budget():
    rng = np.random.default_rng(0)
    synchronize_batch([(Tpm.random(PARAMS, rng), Tpm.random(PARAMS, rng))], SyncConfig(), [0])


WRAPPED = [
    (harness, "generate_key_pair", from_qber_start),
    (harness, "bits_to_weights", from_qber_start),
    (harness, "seed_initial_overlap", overlap_start),
    (harness, "reconcile", pipeline),
    (harness, "estimate_qber", pipeline),
    (harness, "plan_budget", pipeline),
    (harness, "amplify", pipeline),
    (sync, "synchronize_from_weights", reconciliation),
    (sync, "bits_to_weights", reconciliation),
    (sync, "weights_to_bits", reconciliation),
    (harness, "run_attack", attack_scenario),
    (harness, "run_parity_reconciliation", compare_scenario),
    (sync, "resolve_iteration_budget", batch_without_budget),
    (harness, "run_pipeline", None),
    (harness, "records_to_csv", None),
    (harness, "synchronize_from_weights", None),
    (channel, "generate_key_pair", None),
    (channel, "estimate_qber", None),
    (parity, "run_parity_reconciliation", None),
    (privacy, "plan_budget", None),
    (privacy, "amplify", None),
]


@pytest.mark.parametrize(
    "namespace, name, caller", WRAPPED, ids=[f"{ns.__name__.split('.')[-1]}.{name}" for ns, name, _ in WRAPPED]
)
def test_the_library_looks_up_each_wrapped_name_where_it_is_wrapped(monkeypatch, namespace, name, caller):
    original = getattr(namespace, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(namespace, name, spy)  # raises if the module lacks the name
    if caller is not None:
        caller()
        assert calls, f"{caller.__name__} no longer calls {namespace.__name__}.{name}"
