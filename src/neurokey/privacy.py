"""Privacy amplification: budget arithmetic plus key compression with a
binary Toeplitz hash (a Wegman-Carter universal family with a compact
description).

The budget removes every bit the attacker could hold deterministically
(reconciliation leakage plus all explicitly disclosed bits) and a security
margin on top of that; the residual information the attacker is expected to
keep about the compressed key is at most 2^-margin divided by ln 2.

The hash is a Toeplitz matrix-vector product over GF(2), i.e. the parity of
an integer convolution. Products under 2^16 bit pairs use the direct
convolution, where FFT set-up would dominate; larger ones use a float64 FFT
convolution, O(n log n) instead of O(rows * cols), checked to round exactly.
Both give the same integers, so the output bits do not depend on the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sync import LeakageEstimate
from .tpm import BitKey

__all__ = [
    "AmplificationBudget",
    "FftPrecisionError",
    "InfeasibleBudgetError",
    "ToeplitzSpec",
    "amplify",
    "plan_budget",
]

DEFAULT_SECURITY_BITS = 30

# Products with rows * cols below this use the direct convolution. FFT set-up
# costs ~25-30 us, so the direct path wins on small shapes (2 us at 8 x 32,
# the shape the collision and linearity tests call ~4e5 times); the two cross
# near 5e4-6.5e4 products for rows/cols between 0.05 and 1 (table in CHANGES.md).
_FFT_MIN_PRODUCT = 1 << 16

# Largest distance of an FFT output from the nearest integer that is still
# read as that integer. Measured errors stay below 1e-10 at 1e6 columns.
_ROUNDING_TOLERANCE = 0.25


class InfeasibleBudgetError(RuntimeError):
    """The security margin does not fit: margin >= key length - known bits."""


class FftPrecisionError(ArithmeticError):
    """The floating-point convolution in amplify was too far from an integer
    to be rounded safely, so no key bits were produced."""


@dataclass(frozen=True)
class AmplificationBudget:
    """Sizes for one compression: the min-entropy of the reconciled key
    before anything is disclosed (``entropy_bits``), attacker-known bits, and
    the extra margin removed on top."""

    entropy_bits: int
    eve_known_bits: int
    security_bits: int

    @property
    def final_length(self) -> int:
        return self.entropy_bits - self.eve_known_bits - self.security_bits

    @property
    def information_bound(self) -> float:
        """Upper bound, in bits, on the attacker's expected residual
        information about the compressed key."""
        return 2.0**-self.security_bits / math.log(2)


def plan_budget(
    entropy_bits: int,
    leakage: LeakageEstimate,
    disclosed_bits: int,
    security_bits: int = DEFAULT_SECURITY_BITS,
) -> AmplificationBudget:
    """Combine leakage accounting with explicitly disclosed bits and check
    that the margin is >= 0 (else ValueError) and fits strictly inside what
    remains (else InfeasibleBudgetError)."""
    if entropy_bits < 1:
        raise ValueError("entropy_bits must be >= 1")
    if disclosed_bits < 0:
        raise ValueError("disclosed_bits must be >= 0")
    if security_bits < 0:
        raise ValueError("security_bits must be >= 0")
    eve_known = int(math.ceil(leakage.bit_reduction)) + int(disclosed_bits)
    if security_bits >= entropy_bits - eve_known:
        raise InfeasibleBudgetError(
            f"security_bits={security_bits} must be < {entropy_bits} - {eve_known}"
        )
    return AmplificationBudget(
        entropy_bits=int(entropy_bits),
        eve_known_bits=eve_known,
        security_bits=int(security_bits),
    )


@dataclass(frozen=True)
class ToeplitzSpec:
    """A binary Toeplitz matrix described by its first row and first column.

    ``first_row_and_col`` holds the first row left-to-right (cols bits)
    followed by the first column below the top-left corner, top-to-bottom
    (rows-1 bits). Entry (i, j) equals first_row_and_col[j-i] when j >= i and
    first_row_and_col[cols + (i-j) - 1] otherwise, so every diagonal is
    constant.
    """

    rows: int
    cols: int
    first_row_and_col: np.ndarray
    # amplify's last key on the FFT path and its hash: (key bits, hash bits)
    _last_hash: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")
        arr = BitKey(self.first_row_and_col).bits  # a private 0/1 copy
        expected = self.rows + self.cols - 1
        if arr.size != expected:
            raise ValueError(f"first_row_and_col must hold {expected} bits, got {arr.size}")
        arr.flags.writeable = False  # the kept last hash derives from it
        object.__setattr__(self, "first_row_and_col", arr)

    @classmethod
    def from_seed(cls, rows: int, cols: int, seed: int) -> "ToeplitzSpec":
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=rows + cols - 1, dtype=np.uint8)
        return cls(rows=rows, cols=cols, first_row_and_col=bits)

    @property
    def diagonals(self) -> np.ndarray:
        """The diagonal sequence: the first row reversed, then the rest of
        the first column. Row i of the matrix is diagonals[i : i + cols]
        reversed."""
        seq = self.first_row_and_col
        return np.concatenate([seq[: self.cols][::-1], seq[self.cols :]])


def _fft_length(m: int) -> int:
    """The smallest 5-smooth integer (2^a 3^b 5^c) >= m, at least 1.

    numpy's FFT is fast on such lengths, and they lie much closer above m
    than the next power of two: 100000 instead of 131072 for m = 1e5.
    """
    best = 1 << (m - 1).bit_length() if m > 1 else 1
    power5 = 1
    while power5 < best:
        power35 = power5
        while power35 < best:
            # the smallest power-of-two multiple of power35 that reaches m
            best = min(best, power35 << (-(-m // power35) - 1).bit_length())
            power35 *= 3
        power5 *= 5
    return best


def _direct_counts(diagonals: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Row-by-key dot products over the integers by direct convolution; the
    "valid" mode computes exactly the rows needed, rows * cols products."""
    return np.convolve(diagonals.astype(np.int64), bits.astype(np.int64), "valid")


def _fft_counts(diagonals: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The same dot products by a real FFT convolution of length n, the
    smallest 5-smooth integer >= len(diagonals) = rows + cols - 1.

    The linear convolution has rows + 2*cols - 2 entries; the circular one
    of length n adds entry k + n onto entry k. For the wanted window,
    k in [cols - 1, rows + cols - 1), entry k + n lies beyond the end for any
    n >= rows + cols - 1, so the window is free of aliasing. Each value is an
    integer <= cols, recovered by rounding; FftPrecisionError is raised
    instead of returning bits if any value is _ROUNDING_TOLERANCE or more
    from its nearest integer.
    """
    cols = bits.size
    rows = diagonals.size - cols + 1
    n = _fft_length(diagonals.size)
    product = np.fft.rfft(diagonals, n) * np.fft.rfft(bits, n)
    window = np.fft.irfft(product, n)[cols - 1 : cols - 1 + rows]
    counts = np.rint(window)
    error = float(np.max(np.abs(window - counts)))
    if not error < _ROUNDING_TOLERANCE:  # written so that a NaN fails too
        raise FftPrecisionError(
            f"FFT convolution is {error:.3g} from an integer at {rows}x{cols} "
            f"(tolerance {_ROUNDING_TOLERANCE}); refusing to round it to key bits"
        )
    return counts.astype(np.int64)


def amplify(key: BitKey, spec: ToeplitzSpec) -> BitKey:
    """Compress the key to spec.rows bits: Toeplitz matrix times key over GF(2).

    Output bit i is the parity of the integer dot product of matrix row i with
    the key. All rows come from one convolution of the key with the diagonal
    sequence (first row reversed, then the rest of the first column), without
    materializing the matrix. Products under 2^16 bit pairs (rows * cols <
    _FFT_MIN_PRODUCT) use the direct O(rows * cols) convolution; larger ones
    use a float64 FFT convolution whose rounding is checked, of the smallest
    5-smooth length >= rows + cols - 1. Both paths give the same integers,
    hence the same bits. The FFT path keeps a copy of its key and hash on
    the spec, and returns that hash with no transform when the next key's
    bits are equal: a caller hashing both parties' equal keys pays once.

    Raises FftPrecisionError, and returns nothing, if the FFT result cannot
    be rounded safely; this has not been observed at any tested size.
    """
    if key.length != spec.cols:
        raise ValueError(f"key length {key.length} does not match matrix cols {spec.cols}")
    if spec.rows * spec.cols < _FFT_MIN_PRODUCT:
        return BitKey((_direct_counts(spec.diagonals, key.bits) & 1).astype(np.uint8))
    last = spec._last_hash
    if last is None or not np.array_equal(last[0], key.bits):
        last = key.bits.copy(), (_fft_counts(spec.diagonals, key.bits) & 1).astype(np.uint8)
        object.__setattr__(spec, "_last_hash", last)
    return BitKey(last[1])
