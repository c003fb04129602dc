"""The eavesdropper race, re-exported from ``sync`` while ``bench/`` still reads it here."""

from .sync import STRATEGIES, AttackConfig, AttackResult, LeakageEstimate, leakage_after, run_attack

__all__ = ["AttackConfig", "AttackResult", "LeakageEstimate", "STRATEGIES", "leakage_after", "run_attack"]
