"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds as neighbours load the host; identical work measured a
minute apart differed by 2x on the 2-core box this benchmark was written on.
A fixed kernel that does the same kind of work as a campaign row (small
``eigh`` and matrix products, dataclass and ``Fraction`` churn) but uses no
oporder code is timed between invocations, and each invocation's time is
scaled by ``REFERENCE_S / kernel time`` (mean of the kernel times measured
before and after it).  Scaled times read as seconds on a machine where the kernel takes
``REFERENCE_S``; a change to oporder cannot move the kernel.  Set-up samples
are corrected by the start of a bare interpreter instead, measured next to
each sample.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import numpy as np

# Kernel time on the reference machine (2 vCPUs, Python 3.11.7, numpy 2.4.6
# on scipy-openblas 0.3.31), median of 400 runs.
REFERENCE_S = 0.0044

# Seconds from spawning a bare interpreter through ``import numpy`` on the
# same machine, median of 234 runs.  Its spread between consecutive runs was
# 36% there, so each set-up sample replaces its own bare start by this value
# and keeps the part that oporder adds as measured.
BARE_START_REFERENCE_S = 0.19
BARE_START_ARGS = ("-c", "import time, numpy; print(repr(time.monotonic()))")

_MATRIX = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])


@dataclass(frozen=True)
class _Cell:
    matrix: np.ndarray
    weight: Fraction


def kernel() -> float:
    cells = []
    total = 0.0
    for i in range(60):
        m = _MATRIX * (1 + i % 5)
        lam, u = np.linalg.eigh(m)
        p = (u * lam ** 1.5) @ u.conj().T
        p = 0.5 * (p + p.conj().T)
        w = Fraction(i + 1, 7) * Fraction(3, i + 2) + Fraction(1, 3)
        cells.append(_Cell(p, w))
        total += sum({f"p{j}": 0.5 * j for j in range(8)}.values())
        total += float(np.linalg.norm(p)) + float(np.linalg.eigvalsh(p - m)[0]) + float(w)
    for i in range(90):
        lam, u = np.linalg.eigh(_MATRIX)
        b = (u * lam ** 0.5) @ u.T
        total += float(np.linalg.norm(b - b.T)) + i % 7
    return total + len(cells)


def kernel_seconds(runs: int = 1) -> float:
    """Median time of ``runs`` kernel runs."""
    times = []
    for _ in range(runs):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class ScaledClock:
    """Scales measured durations by the kernel times around them.  The
    kernel runs for about 2% of the duration just measured (1 to 5 runs), so
    long invocations get a steadier speed estimate."""

    def __init__(self):
        self._before = kernel_seconds()

    def scale(self, seconds: float) -> float:
        after = kernel_seconds(max(1, min(5, round(0.02 * seconds / REFERENCE_S))))
        factor = REFERENCE_S / ((self._before + after) / 2.0)
        self._before = after
        return seconds * factor
