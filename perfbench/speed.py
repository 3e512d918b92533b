"""Machine-speed reference for timing on a host whose CPU speed drifts.

On small shared virtual machines the same trial can take 33 ms or 93 ms
depending on what the host does, with swings that last tens of seconds
(measurements in README.md). The benchmark therefore times a fixed kernel of
its own between operations and scales each operation's time by
NOMINAL_S / (kernel time measured around it). The kernel mixes what the
sensing chain spends its time on, interpreted Python and small numpy array
operations, and calls no BLAS routine, so a change to the program or to its
BLAS threading cannot change it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# About the median kernel time on the 2-core Xeon VM the benchmark was tuned on.
NOMINAL_S = 1.25e-3
# Seconds of operations between two reference samples.
INTERVAL_S = 0.2
_RUNS_PER_SAMPLE = 3
_RAMP = np.arange(45.0)


def kernel() -> float:
    acc = 0.0
    for k in range(100):
        v = np.exp(1j * (1e-3 * k) * _RAMP)
        acc += float(np.sum(v.real * v.real + v.imag * v.imag))
        for j in range(20):
            acc += math.sin(j * 0.1) * 1e-9
    return acc


def sample() -> float:
    """Median time of a few kernel runs, in seconds."""
    times = []
    for _ in range(_RUNS_PER_SAMPLE):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedTrack:
    """Reference samples taken between operations of one closed loop."""

    def __init__(self):
        self.samples = [sample()]
        self.boundaries = [0]        # operations done when each sample was taken
        self._since = time.perf_counter()

    def after_op(self, ops_done: int, force: bool = False) -> None:
        if force or time.perf_counter() - self._since >= INTERVAL_S:
            self.samples.append(sample())
            self.boundaries.append(ops_done)
            self._since = time.perf_counter()

    def factors(self, n_ops: int) -> list[float]:
        """NOMINAL_S over the mean of the samples bracketing each operation."""
        out = []
        for k in range(1, len(self.samples)):
            scale = NOMINAL_S / ((self.samples[k - 1] + self.samples[k]) / 2.0)
            out += [scale] * (self.boundaries[k] - self.boundaries[k - 1])
        return out[:n_ops]
