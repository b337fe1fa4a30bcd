"""Host calibration, percentile math and the thread guard.

Every timing the benchmark reports is *host-calibrated*: the op (or a
batch of sub-millisecond ops) is bracketed by a frozen reference slice
that runs on the same core, and the op's wall time is multiplied by
``NOMINAL_REF_S / measured reference time``.  A host that runs 20 %
slower for a second slows the slice by about as much, so the calibrated
figure moves far less than the raw one.

FROZEN: :func:`reference_slice` and :data:`NOMINAL_REF_S` define the
unit every calibrated number is expressed in.  Changing either is a
benchmark change: figures before and after are not comparable.
"""

from __future__ import annotations

import math
import os
import threading
import time
from fractions import Fraction
from statistics import median
from typing import Dict, List, Sequence

#: Reference-slice wall time, in seconds, that calibrated figures are
#: normalised to.  Frozen.
NOMINAL_REF_S = 0.0025

#: Samples that must lie strictly beyond a reported percentile.
MIN_TAIL = 10


def reference_slice() -> int:
    """The frozen, stdlib-only calibration workload (about 2.5 ms).

    A mix of what the program under test spends its time on: integer
    arithmetic, dict updates, list sorting and `Fraction` sums.  The
    return value only keeps the work from being optimised away.
    """
    acc = 0
    table: Dict[int, int] = {}
    items: List[int] = []
    total = Fraction(0)
    for r in range(60):
        for i in range(40):
            acc = (acc * 1103515245 + 12345 + i) & 0xFFFFFFFF
            table[acc & 511] = table.get(acc & 511, 0) + (acc >> 7)
            items.append(acc % 997)
        items.sort()
        del items[:20]
        total += Fraction(acc % 1000 + 1, (r % 7) + 3)
    return acc ^ len(table) ^ total.numerator


class ThreadGuardError(RuntimeError):
    """A thread other than the benchmark's own ran beside a slice."""


def foreign_threads() -> int:
    """Threads of this process besides the calling one.

    Counts kernel tasks, so native threads the interpreter cannot see
    (a BLAS pool, an extension's worker) count too.
    """
    try:
        native = len(os.listdir("/proc/self/task"))
    except OSError:
        native = 1
    return max(native, threading.active_count()) - 1


class Calibrator:
    """Runs reference slices and turns bracketing pairs into factors.

    With ``guard`` set, a slice refuses to run while any other thread is
    alive in the process: a busy program thread would slow the slice as
    much as the op and so be scaled away.
    """

    def __init__(self, guard: bool = True) -> None:
        self.guard = guard
        self.slices: List[float] = []
        self.factors: List[float] = []

    def slice(self) -> float:
        """Run one reference slice; return its wall time in seconds."""
        if self.guard:
            extra = foreign_threads()
            if extra:
                raise ThreadGuardError(
                    f"{extra} foreign thread(s) alive during a reference slice"
                )
        start = time.perf_counter()
        reference_slice()
        elapsed = time.perf_counter() - start
        self.slices.append(elapsed)
        return elapsed

    def factor(self, before: float, after: float) -> float:
        """Calibration factor for work bracketed by two slices."""
        value = calibration_factor(before, after)
        self.factors.append(value)
        return value

    def slowdown(self) -> float:
        """Median host slowdown of the run (measured ÷ nominal)."""
        if not self.factors:
            return 1.0
        return median(1.0 / f for f in self.factors)


def calibration_factor(before: float, after: float) -> float:
    """``nominal ÷ mean(bracketing slices)``: multiply wall time by it."""
    measured = (before + after) / 2.0
    if measured <= 0:
        raise ValueError("reference slices must take positive time")
    return NOMINAL_REF_S / measured


def percentile_rank(count: int, pct: float) -> int:
    """1-based nearest rank of the *pct* percentile among *count* values."""
    if count < 1:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    return max(1, math.ceil(pct / 100.0 * count))


def tail_count(count: int, pct: float) -> int:
    """Samples strictly beyond the nearest-rank *pct* percentile."""
    return count - percentile_rank(count, pct)


def min_samples(pct: float) -> int:
    """Smallest sample count leaving :data:`MIN_TAIL` beyond *pct*."""
    count = 1
    while tail_count(count, pct) < MIN_TAIL:
        count += 1
    return count


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile, refusing a tail thinner than MIN_TAIL."""
    ordered = sorted(values)
    beyond = tail_count(len(ordered), pct)
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples leaves {beyond} beyond it; "
            f"at least {MIN_TAIL} are required"
        )
    return ordered[percentile_rank(len(ordered), pct) - 1]
