"""Scaling of measured times to a reference speed.

On the reference machine (a 2-vCPU virtual machine with python 3.11) the
same work runs up to 2x slower for minutes at a time while other tenants
of the host are busy: 25 set-ups of the same lift in a row took from 1.22
s to 2.43 s. Every time the benchmark reports is therefore measured next
to `calibrate()`, a fixed piece of exact arithmetic that never touches
cyclift, and multiplied by REFERENCE_S / that calibration time. The result
reads as seconds at the reference machine's usual speed; a change to the
program still shows in full, and a slow period of the host mostly does not.
"""

from __future__ import annotations

import time
from fractions import Fraction

# calibrate() on the reference machine outside its slow periods
REFERENCE_S = 0.002


def _reference_work() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 1)
    return acc


def calibrate() -> float:
    """Median of five timings of the reference work, in seconds."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        _reference_work()
        samples.append(time.perf_counter() - t0)
    return sorted(samples)[2]


def scale(before: float, after: float) -> float:
    """Factor for a time measured between two calibrations."""
    return REFERENCE_S / ((before + after) / 2)
