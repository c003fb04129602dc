"""Key reconciliation for QKD-style keys via mutual learning of tree parity
machines, alongside BBBSS/Cascade parity baselines, eavesdropper
simulations, leakage accounting, and privacy amplification."""

from .channel import (
    DEFAULT_QBER_THRESHOLD,
    DEFAULT_SAMPLE_FRACTION,
    NoisyKeyPair,
    QberEstimate,
    estimate_qber,
    generate_key_pair,
)
from .harness import (
    PipelineReport,
    PointSummary,
    QberAbortError,
    Scenario,
    ScenarioError,
    StartMode,
    TrialRecord,
    compare_algorithms,
    load_scenario,
    run_pipeline,
    run_scenario,
    summarize,
)
from .parity import (
    ParityConfig,
    ParityOutcome,
    block_size_for,
    run_parity_reconciliation,
)
from .privacy import (
    AmplificationBudget,
    FftPrecisionError,
    InfeasibleBudgetError,
    ToeplitzSpec,
    amplify,
    plan_budget,
)
from .sync import (
    AttackConfig,
    AttackResult,
    LeakageEstimate,
    NonConvergenceError,
    SyncConfig,
    SyncTranscript,
    leakage_after,
    reconcile,
    run_attack,
    seed_initial_overlap,
    synchronize_from_weights,
)
from .tpm import (
    BitKey,
    KeyMaterialError,
    Tpm,
    TpmEvaluation,
    TpmParams,
    bits_to_weights,
    evaluate,
    hebbian_step,
    random_input,
    weight_overlap,
    weights_to_bits,
)

__version__ = "0.1.0"
