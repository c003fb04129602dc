"""Which module owns what: the exchange kernel, its input format and both of
its drivers (the sync batch and the attack race) live in ``sync``, no module
reaches into another's private names, and the package exports exactly the
names its modules declare public."""

import ast
from pathlib import Path

import pytest

import neurokey
from neurokey import adversary, channel, harness, parity, privacy, sync, tpm

SRC = Path(neurokey.__file__).resolve().parent

EXPORTING_MODULES = (channel, harness, parity, privacy, sync, tpm)

# the package's exports before it read them from the modules' __all__
EARLIER_EXPORTS = {
    "AmplificationBudget", "AttackConfig", "AttackResult", "BitKey", "DEFAULT_QBER_THRESHOLD",
    "DEFAULT_SAMPLE_FRACTION", "FftPrecisionError", "InfeasibleBudgetError", "KeyMaterialError",
    "LeakageEstimate", "NoisyKeyPair", "NonConvergenceError", "ParityConfig", "ParityOutcome",
    "PipelineReport", "PointSummary", "QberAbortError", "QberEstimate", "Scenario", "ScenarioError",
    "StartMode", "SyncConfig", "SyncTranscript", "ToeplitzSpec", "Tpm", "TpmEvaluation", "TpmParams",
    "TrialRecord", "amplify", "bits_to_weights", "block_size_for", "compare_algorithms", "estimate_qber",
    "evaluate", "generate_key_pair", "hebbian_step", "leakage_after", "load_scenario", "plan_budget",
    "random_input", "reconcile", "run_attack", "run_parity_reconciliation", "run_pipeline", "run_scenario",
    "seed_initial_overlap", "summarize", "synchronize_from_weights", "weight_overlap", "weights_to_bits",
}


def test_adversary_only_re_exports_the_race_from_sync():
    for name in adversary.__all__:
        assert getattr(adversary, name) is getattr(sync, name), name
    own = {name for name in vars(adversary) if not name.startswith("__")}
    assert own == set(adversary.__all__)


def test_package_exports_each_modules_all_once():
    assert neurokey.__all__ == [name for module in EXPORTING_MODULES for name in module.__all__]
    assert len(set(neurokey.__all__)) == len(neurokey.__all__)
    for module in EXPORTING_MODULES:
        for name in module.__all__:
            assert getattr(neurokey, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_package_keeps_every_earlier_export():
    assert len(EARLIER_EXPORTS) == 50
    assert EARLIER_EXPORTS <= set(neurokey.__all__)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_another_modules_private_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
