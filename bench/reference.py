"""Fixed reference kernels that measure how fast the machine runs right now.

The benchmark's machine is shared: the same work takes up to half as long
again from one ten-second stretch to the next. Timed runs interleave a kernel
with the operations and scale each operation's time by
``NOMINAL_S / kernel time`` around it, which turns wall seconds into seconds
at a fixed machine speed. The kernels belong to the benchmark and call no
library code, so a change to the library moves the scaled times as much as
the wall times.

A busy neighbour slows interpreter-bound code and long compiled loops by
different amounts, so each workload is scaled by the kernel that does what
its hot path does:

* ``exchange``: small-array numpy calls from a Python loop, like the
  mutual-learning and attack loops, then a pure-Python byte loop, like the
  protocol-mode weight digest (``sweep``, ``attack_race``);
* ``convolve``: one long integer convolution, like the Toeplitz hash that
  dominates ``distill``.
"""

from __future__ import annotations

import time

import numpy as np

# Each kernel's time on the machine the benchmark was written on, at the speed
# it ran most of the time (2-CPU Xeon VM, Python 3.11, numpy 2.4).
NOMINAL_S = {"exchange": 0.007, "convolve": 0.0095}


class Reference:
    def __init__(self, kernel: str) -> None:
        if kernel not in NOMINAL_S:
            raise ValueError(f"unknown reference kernel {kernel!r}")
        self.kernel = kernel
        self.nominal_s = NOMINAL_S[kernel]
        rng = np.random.default_rng(0)
        self._weights = rng.integers(-2, 3, size=(4, 10, 25)).astype(np.int32)
        self._inputs = rng.integers(0, 2, size=(220, 10, 25)).astype(np.int32) * 2 - 1
        self._taps = rng.integers(0, 2, size=4096).astype(np.int64)
        self._bits = rng.integers(0, 2, size=3072).astype(np.int64)
        self._bytes = rng.integers(0, 256, size=12_288, dtype=np.uint8).tobytes()

    def seconds(self) -> float:
        """Wall seconds of one kernel run."""
        started = time.perf_counter()
        if self.kernel == "exchange":
            w = self._weights.copy()
            for x in self._inputs:
                sigma = np.where((w * x).sum(axis=2) > 0, 1, -1)
                tau = sigma.prod(axis=1)
                if tau[0] == tau[1]:
                    w += x * tau[:, None, None] * (sigma == tau[:, None])[:, :, None]
                    np.clip(w, -2, 2, out=w)
            value = 0
            for byte in self._bytes:
                value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        else:
            np.convolve(self._taps, self._bits)
        return time.perf_counter() - started
