"""Reference clock: CPU-bound time expressed in units the host cannot stretch.

On a shared two-core sandbox the same Python code runs 10-40% slower or
faster from one ten-second window to the next, and up to 3x slower for whole
windows, whatever the process does (a fixed loop, dict traffic, allocation
and socket syscalls all slow down together).  Wall-clock numbers of
CPU-bound work therefore say as much about the neighbours as about the code.

The harness runs a fixed reference loop every few milliseconds *inside* the
measured window, on the measured thread, and expresses CPU-bound durations in
**reference seconds**: the wall time the window took, scaled by how fast the
reference loop ran in that same window.  One reference second is the time in
which the loop completes :data:`ITERATIONS_PER_SECOND` iterations - about one
wall second on this class of machine when it is quiet.

``speed`` is nominal time over observed time: 1.0 on the reference machine,
0.5 when the host runs everything at half speed.  A duration of ``d`` wall
seconds is ``d * speed`` reference seconds.
"""

from __future__ import annotations

import time
from typing import List

#: Iterations of the loop in :func:`sample`.
ITERATIONS = 5000
#: Definition of the unit: this many iterations take one reference second.
ITERATIONS_PER_SECOND = 20_000_000
NOMINAL_S = ITERATIONS / ITERATIONS_PER_SECOND
#: The live sampler sleeps this long between samples (~2.5% of the loop).
LIVE_PERIOD_S = 0.010
#: The simulator is sampled this many times over a run (~1% of its wall time).
SIM_SLICES = 200
#: Samples taken back to back where there is no window to spread them over.
BURST = 20

_clock = time.perf_counter


def sample() -> float:
    """Wall seconds the reference loop takes right now."""
    started = _clock()
    x = 0
    for i in range(ITERATIONS):
        x += i * i % 7
    return _clock() - started


class ReferenceClock:
    """Collects reference-loop samples over one measured interval."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def tick(self) -> None:
        self.samples.append(sample())

    def burst(self) -> "ReferenceClock":
        for _ in range(BURST):
            self.tick()
        return self

    @property
    def speed(self) -> float:
        """Nominal over observed loop time; work is a sum, so use the mean."""
        if not self.samples:
            raise RuntimeError("reference clock read before it was sampled")
        return NOMINAL_S * len(self.samples) / sum(self.samples)
