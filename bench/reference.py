"""Machine-speed reference for the end-to-end times.

On a shared machine the speed of one core drifts by tens of percent over
seconds to minutes, so raw wall times of identical work spread more between
runs than any bound worth having. The benchmark therefore times a fixed
kernel next to every repetition and reports times in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / kernel seconds

that is, seconds on a machine that runs the kernel in REFERENCE_S, about its
median on the 2-core x86_64 machine the benchmark was defined on. The kernel
never calls hexnet, so a change to hexnet cannot move it; raw seconds stay
in the run record.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.020
KERNEL_REPS = 5

_M = np.outer(np.linspace(0.1, 0.9, 16), np.linspace(0.9, 0.1, 16)) - 0.4


def kernel() -> int:
    """Fixed work shaped like hexnet's hot loop: small numpy array
    operations driven from interpreted Python, plus plain integer arithmetic."""
    u = np.linspace(-1.0, 1.0, 16)
    acc = 0
    for i in range(2000):
        v = np.exp(np.minimum(u, 5.0))
        s = v * v
        u = 0.999 * u + 1e-4 * (_M @ s - s.sum())
        for j in range(40):
            acc = (acc + i * j) % 1000003
    return acc


def kernel_times() -> list[float]:
    """Times of KERNEL_REPS kernel runs in a row: the machine's current speed."""
    times = []
    for _ in range(KERNEL_REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times
