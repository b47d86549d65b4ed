"""A fixed reference kernel that gauges how fast the host runs right now.

The host this benchmark was sized on runs the same code up to 70% slower
for minutes at a time, so raw times of runs made minutes apart differ by
more than any useful bound. A run therefore also times a fixed kernel of
the same kind of work as the program (small float64 matrix products and
elementwise numpy ops driven from Python) between steps, and reports each
pass's time in units of the kernel's median time during that pass. Over
whole runs that ratio stays put while the raw times drift. The kernel is
part of the benchmark, not of the program, so a change to the program
moves only the numerator.
"""

from __future__ import annotations

import time

import numpy as np

INTERVAL = 0.25  # seconds between samples; a sample takes about 25 ms

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((256, 32))
_W = _RNG.standard_normal((32, 32)) * 0.1


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    for _ in range(40):
        h = _X
        for _ in range(10):
            h = np.tanh(h @ _W + 0.1)
            ((1.0 - h * h) * h).sum(axis=0)
    return time.perf_counter() - start


class HostGauge:
    """Reference kernel timings, taken at most every ``INTERVAL`` seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the kernel, to leave out of pass times
        self._due = 0.0

    def sample(self) -> float:
        """Time the kernel now; its time in seconds."""
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        end = time.perf_counter()
        self.spent += end - start
        self._due = end + INTERVAL
        return self.samples[-1]

    def maybe_sample(self) -> bool:
        """Time the kernel if a sample is due; True if it ran."""
        if time.perf_counter() < self._due:
            return False
        self.sample()
        return True
