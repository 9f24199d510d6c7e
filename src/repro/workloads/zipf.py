"""Zipfian key-popularity generator.

YCSB's default request distribution is Zipfian; this implementation uses the
classic Gray et al. rejection-free inverse-CDF approximation, so key draws are
O(1) and no table of size ``record_count`` is materialised.  The setup is the
normalising sum zeta(n), an O(n) pure-Python loop (70-100 ms for the paper's
600k-record table on a 2-core x86_64 host); it is memoised per process, and
the default YCSB table's sum ships precomputed.
"""

from __future__ import annotations

import math

from typing import Dict, Tuple

from repro.errors import WorkloadError
from repro.sim.rng import SeededRng

#: Memoized zeta(n) partial sums keyed by (count, theta).  Every experiment in
#: a sweep builds a fresh workload with the same parameters, so each sum is
#: computed at most once per process.  The default YCSB table (600k records,
#: theta 0.9) is seeded with the exact float :func:`zeta_sum` returns, so no
#: YCSB process pays the 600k-term loop at start; a test recomputes it.
_ZETA_CACHE: Dict[Tuple[int, float], float] = {
    (600_000, 0.9): float.fromhex("0x1.c65e6057b2892p+4"),
}


def zeta_sum(count: int, theta: float) -> float:
    """The generalised harmonic number: the sum of ``1 / i**theta`` for i in 1..count."""
    return sum(1.0 / math.pow(i, theta) for i in range(1, count + 1))


class ZipfGenerator:
    """Draw integers in ``[0, item_count)`` with Zipfian popularity skew.

    Parameters
    ----------
    item_count:
        Number of distinct items (keys).
    theta:
        Skew parameter in ``[0, 1)``; 0 degenerates to uniform, YCSB's default
        is 0.99.
    """

    def __init__(self, item_count: int, theta: float = 0.99) -> None:
        if item_count <= 0:
            raise WorkloadError("item_count must be positive")
        if not 0.0 <= theta < 1.0:
            raise WorkloadError("theta must be in [0, 1)")
        self.item_count = int(item_count)
        self.theta = float(theta)
        self._zetan = self._zeta(self.item_count, self.theta)
        self._zeta2 = self._zeta(2, self.theta)
        self._alpha = 1.0 / (1.0 - self.theta) if self.theta > 0 else 1.0
        # For item_count <= 2 the denominator is zero (zeta(2) == zeta(n)),
        # but eta is never consulted: next() resolves those draws entirely
        # through its first two inverse-CDF branches.
        eta_denominator = 1.0 - self._zeta2 / self._zetan
        self._eta = (
            (1.0 - math.pow(2.0 / self.item_count, 1.0 - self.theta)) / eta_denominator
            if self.theta > 0 and eta_denominator != 0.0
            else 0.0
        )

    @staticmethod
    def _zeta(count: int, theta: float) -> float:
        if theta <= 0:
            return float(count)
        key = (count, theta)
        value = _ZETA_CACHE.get(key)
        if value is None:
            value = zeta_sum(count, theta)
            _ZETA_CACHE[key] = value
        return value

    def next(self, rng: SeededRng) -> int:
        """Draw the next item index using *rng*."""
        if self.theta == 0.0:
            return rng.randint(0, self.item_count - 1)
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + math.pow(0.5, self.theta):
            return 1
        index = int(self.item_count * math.pow(self._eta * u - self._eta + 1.0, self._alpha))
        return min(index, self.item_count - 1)
