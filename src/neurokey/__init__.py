"""Key reconciliation for QKD-style keys via mutual learning of tree parity
machines, alongside BBBSS/Cascade parity baselines, eavesdropper
simulations, leakage accounting, and privacy amplification.

The package exports each module's ``__all__``; a public name is declared
once, in the module that defines it."""

from . import channel, harness, parity, privacy, sync, tpm
from .channel import *  # noqa: F403
from .harness import *  # noqa: F403
from .parity import *  # noqa: F403
from .privacy import *  # noqa: F403
from .sync import *  # noqa: F403
from .tpm import *  # noqa: F403

__all__ = channel.__all__ + harness.__all__ + parity.__all__ + privacy.__all__ + sync.__all__ + tpm.__all__

__version__ = "0.1.0"
