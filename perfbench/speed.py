"""Machine-speed reference: wall times scaled to a fixed machine speed.

The benchmark runs on shared machines whose speed drifts.  On the 2-vCPU
Xeon it was tuned on, identical work took up to 1.7x longer in slow phases
lasting minutes, and the drift was the same for CPU time, so it is the
core that slows, not scheduling.  Every few hundred milliseconds the loop
therefore times a fixed reference kernel that uses no kreintwist code
(interpreter arithmetic plus small complex matrix products and SVDs, the
mix the verifier runs).  Each op's wall time is multiplied by
``NOMINAL_S / reference``, the reference being the median of the samples
taken within ``WINDOW_S`` of the op's end, giving
seconds at the speed where the kernel takes ``NOMINAL_S``.  A faster or
slower program moves the scaled time exactly as it moves the wall time;
a slower machine phase moves it far less.  Set-up, a handful of fresh
interpreters, is scaled by the median of every reference sample of the
run.  Raw wall times are printed too.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.004  # about reference_s() in a fast phase of the tuning machine
EVERY_S = 0.5  # longest stretch of ops between two reference samples
# half-width of the span of samples that scale an op: one sample is too noisy
# (a few ms of kernel), a whole run would miss drift within it
WINDOW_S = 5.0

_RNG = np.random.default_rng(12345)
_MATS = [_RNG.normal(size=(n, n)) + 1j * _RNG.normal(size=(n, n)) for n in (4, 8, 16)]


def _kernel() -> float:
    acc = 0
    for i in range(15000):
        acc += i * i
    for m in _MATS:
        for _ in range(45):
            m = m @ m
            m = m / np.linalg.svd(m, compute_uv=False)[0]
    return acc + float(m.real[0, 0])


def reference_s() -> float:
    """Median time of three kernel runs: the machine's speed right now."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Scaler:
    """Scales op wall times by the reference samples taken around them."""

    def __init__(self):
        self.ops: list = []  # (time the op ended, its result)
        self.samples: list = []
        self.times: list = []
        self._sample()

    def _sample(self) -> None:
        self.samples.append(reference_s())
        self.times.append(perf_counter())

    def add(self, result) -> None:
        """Queue an op result; sample the reference when one is due."""
        self.ops.append((perf_counter(), result))
        if perf_counter() - self.times[-1] >= EVERY_S:
            self._sample()

    def flush(self) -> None:
        """Scale every queued op by the median sample within WINDOW_S of it."""
        self._sample()
        for t, r in self.ops:
            near = [s for ts, s in zip(self.times, self.samples) if abs(ts - t) <= WINDOW_S]
            r.scaled_s = r.wall_s * NOMINAL_S / statistics.median(near)
        self.ops = []
