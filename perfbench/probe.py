"""Machine-speed probe.

The machines this benchmark runs on change speed by 15-25% for tens of
seconds at a time (CPU time moves with wall time, so it is not a scheduling
delay).  A run therefore times a fixed reference work -- interpreter loop,
small NumPy kernels, LU factorizations and a pass over an array larger than
the per-core caches, the kinds of work the program does -- before and after
every request, and scales each measured time to the
speed at which ``REFERENCE_S`` was recorded, using the readings on either
side of it.  Both sides of a comparison use
this same code and constant, so a ratio between them is unchanged; the raw
times are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# Median probe time on the machine the baseline was recorded on
# (Intel Xeon, 2 vCPUs, Python 3.11, NumPy 2.4, one BLAS thread).
REFERENCE_S = 0.0048

_M = np.eye(96) * 96.0 + np.linspace(0.0, 1.0, 96 * 96).reshape(96, 96)
_X = np.linspace(-3.0, 3.0, 4096)
# 8 MB: past the per-core caches, so the shared last-level cache and memory
# bandwidth, which neighbours on the machine contend for, show in the probe
_BIG = np.ones(1 << 20)


def probe() -> float:
    """Seconds taken by the fixed reference work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(25000):
        acc += i * i
    for _ in range(24):
        float(np.exp(-_X * _X).sum())
    for _ in range(4):
        scipy.linalg.lu_factor(_M)
    for _ in range(3):
        float(_BIG.sum())
    return time.perf_counter() - t0


def sample() -> float:
    """One probe reading: the faster of two probes, to shed interruptions."""
    return min(probe(), probe())


def local_factor(before: float, after: float) -> float:
    """Scale for a time measured between two probe readings."""
    return REFERENCE_S / (0.5 * (before + after))


def speed_factor(samples: list[float]) -> float:
    """Scale for a time measured over the span of several probe readings."""
    return REFERENCE_S / statistics.median(samples)
