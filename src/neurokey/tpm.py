"""Tree parity machines: forward evaluation, bounded Hebbian learning, and
the codec that turns key bits into weights and back.

A machine has K hidden units with N inputs each; every weight is an integer
in [-L, L]. The network output is the product of the hidden-unit signs, so
two machines can be driven toward identical weights while exchanging only a
single +/-1 value per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "BitKey",
    "KeyMaterialError",
    "ScenarioError",
    "Tpm",
    "TpmEvaluation",
    "TpmParams",
    "bits_to_weights",
    "evaluate",
    "hebbian_step",
    "random_input",
    "weight_overlap",
    "weights_to_bits",
]


class ScenarioError(ValueError):
    """Bad input: a value that a command-line flag or a scenario file sets,
    raised where the value is checked. The CLI reports it as a config error."""


class KeyMaterialError(ScenarioError):
    """Bit key is too short to fill the requested machine."""

    @classmethod
    def check(cls, length: int, params: TpmParams) -> None:
        """Raise unless ``length`` key bits fill a machine of shape ``params``."""
        if length < params.key_bits:
            raise cls(f"need {params.key_bits} bits for K={params.K}, N={params.N}, L={params.L}; got {length}")


@dataclass(frozen=True)
class TpmParams:
    """Shape of a tree parity machine: K hidden units, N inputs per unit,
    weights bounded to [-L, L]."""

    K: int
    N: int
    L: int

    def __post_init__(self) -> None:
        for name in ("K", "N", "L"):
            value = getattr(self, name)
            as_int = int(value)
            if as_int != value or as_int < 1:
                raise ScenarioError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, as_int)

    @property
    def alphabet_size(self) -> int:
        """Number of admissible weight values, 2L+1."""
        return 2 * self.L + 1

    @property
    def bits_per_weight(self) -> int:
        """Codec chunk width: the smallest b with 2^b >= 2L+1."""
        return (self.alphabet_size - 1).bit_length()

    @property
    def min_entropy_bits(self) -> int:
        """Min-entropy of a machine loaded from uniform bits: 2^b < 2(2L+1), so
        bits_to_weights maps at most 2 of the 2^b chunks to each weight value."""
        return self.weight_count * (self.bits_per_weight - 1)

    @property
    def weight_count(self) -> int:
        return self.K * self.N

    @property
    def key_bits(self) -> int:
        """Bits consumed (produced) when loading (dumping) a full weight matrix."""
        return self.weight_count * self.bits_per_weight


@dataclass(frozen=True, eq=False)
class BitKey:
    """A sequence of {0,1} bits; the unit flowing through every protocol stage.

    The stored array is a private copy, so keys behave as values.
    """

    bits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits)
        if arr.ndim != 1:
            raise ValueError("bits must be a one-dimensional sequence")
        arr = arr.astype(np.uint8, copy=True)
        if arr.size and arr.max(initial=0) > 1:
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", arr)

    @classmethod
    def from_string(cls, text: str) -> "BitKey":
        return cls(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"))

    @property
    def length(self) -> int:
        return int(self.bits.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitKey):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    def __xor__(self, other: "BitKey") -> "BitKey":
        if self.length != other.length:
            raise ValueError("xor requires equal lengths")
        return BitKey(self.bits ^ other.bits)

    def __repr__(self) -> str:
        head = self.to01()[:16]
        tail = "..." if self.length > 16 else ""
        return f"BitKey({head}{tail}, length={self.length})"

    def to01(self) -> str:
        return (self.bits + ord("0")).tobytes().decode("ascii")

    def without(self, positions: np.ndarray) -> "BitKey":
        """Key with the given positions removed (order preserved)."""
        return BitKey(np.delete(self.bits, positions))


@dataclass(eq=False)
class Tpm:
    """A parity machine: shape parameters plus the integer weight matrix."""

    params: TpmParams
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights)
        expected = (self.params.K, self.params.N)
        if w.shape != expected:
            raise ValueError(f"weight matrix must have shape {expected}, got {w.shape}")
        w = w.astype(np.int32, copy=True)
        if w.size and int(np.abs(w).max()) > self.params.L:
            raise ValueError(f"weights must lie in [-{self.params.L}, {self.params.L}]")
        self.weights = w

    @classmethod
    def random(cls, params: TpmParams, rng: np.random.Generator) -> "Tpm":
        w = rng.integers(-params.L, params.L + 1, size=(params.K, params.N), dtype=np.int32)
        return cls(params, w)

    def copy(self) -> "Tpm":
        return Tpm(self.params, self.weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tpm):
            return NotImplemented
        return self.params == other.params and np.array_equal(self.weights, other.weights)


class TpmEvaluation(NamedTuple):
    """Hidden-unit signs and the network output (their product)."""

    sigma: np.ndarray
    tau: int


def _validate_input(params: TpmParams, entries: np.ndarray) -> np.ndarray:
    x = np.asarray(entries)
    if x.shape != (params.K, params.N):
        raise ValueError(f"input must have shape {(params.K, params.N)}, got {x.shape}")
    if x.size and not (np.abs(x) == 1).all():
        raise ValueError("input entries must be -1 or +1")
    return x.astype(np.int32, copy=False)


def random_input(params: TpmParams, rng: np.random.Generator) -> np.ndarray:
    """Uniform random +/-1 matrix shaped for the machine."""
    return rng.integers(0, 2, size=(params.K, params.N), dtype=np.int32) * 2 - 1


def evaluate(tpm: Tpm, entries: np.ndarray) -> TpmEvaluation:
    """Run the forward pass: per-unit sign of the local field, then the product.

    A zero local field yields -1.
    """
    x = _validate_input(tpm.params, entries)
    # zero counts as negative: 2h - 1 is odd, so never zero
    sigma = np.sign((tpm.weights * x).sum(axis=1) * 2 - 1)
    return TpmEvaluation(sigma=sigma, tau=int(sigma.prod()))


def hebbian_step(
    tpm: Tpm,
    entries: np.ndarray,
    own_eval: TpmEvaluation,
    partner_tau: int,
) -> Tpm:
    """One mutual-learning update. Only rows whose sign matches the agreed
    output move; results are clamped back into [-L, L].

    Callers must skip learning when outputs disagree; passing a mismatched
    partner_tau raises ValueError.
    """
    x = _validate_input(tpm.params, entries)
    if partner_tau not in (-1, 1):
        raise ValueError(f"partner_tau must be -1 or +1, got {partner_tau!r}")
    if int(own_eval.tau) != int(partner_tau):
        raise ValueError("outputs disagree; the learning step must be skipped")
    sigma = np.asarray(own_eval.sigma, dtype=np.int32)
    step = x * (sigma * (sigma == partner_tau))[:, None]
    return Tpm(tpm.params, np.clip(tpm.weights + step, -tpm.params.L, tpm.params.L))


def bits_to_weights(key: BitKey, params: TpmParams) -> Tpm:
    """Load the first K*N*b key bits into a weight matrix, row by row.

    Each consecutive b-bit big-endian chunk maps to (value mod (2L+1)) - L.
    Trailing bits beyond K*N*b are ignored; a too-short key raises
    KeyMaterialError.
    """
    KeyMaterialError.check(key.length, params)
    b = params.bits_per_weight
    chunks = key.bits[: params.key_bits].reshape(params.weight_count, b)
    place = (1 << np.arange(b - 1, -1, -1)).astype(np.int64)
    values = chunks.astype(np.int64) @ place
    weights = (values % params.alphabet_size - params.L).astype(np.int32)
    return Tpm(params, weights.reshape(params.K, params.N))


def weights_to_bits(tpm: Tpm) -> BitKey:
    """Dump the weight matrix as K*N big-endian b-bit chunks of (w + L).

    Canonical inverse of bits_to_weights: every emitted chunk value is below
    2L+1, so loading the result reproduces the weights exactly.
    """
    p = tpm.params
    shifts = np.arange(p.bits_per_weight - 1, -1, -1)
    values = (tpm.weights.astype(np.int64) + p.L).reshape(-1, 1)
    bits = ((values >> shifts) & 1).astype(np.uint8)
    return BitKey(bits.reshape(-1))


def weight_overlap(a: Tpm, b: Tpm) -> float:
    """Fraction of positions holding equal weights; 1.0 means synchronized."""
    if a.weights.shape != b.weights.shape:
        raise ValueError(f"shape mismatch: {a.weights.shape} vs {b.weights.shape}")
    return float((a.weights == b.weights).mean())
