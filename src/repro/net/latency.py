"""Latency models for the simulated network.

Three models cover the paper's deployments:

* :class:`ConstantLatency` — a single one-way delay for every link (LAN runs
  in Figures 8 a–d, 9 a–d and 10);
* :class:`JitteredLatency` — constant base plus uniform jitter, used when a
  scenario wants to avoid pathological synchronisation artefacts;
* :class:`GeoLatencyModel` — replicas are assigned to named regions and links
  use half of the measured inter-region round-trip time (Figures 8 e–h and
  9 e/j).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.errors import NetworkError
from repro.sim.rng import SeededRng

#: Approximate public inter-region round-trip times in milliseconds between the
#: five regions used in the paper's geo experiments.  Values are symmetric and
#: only need to be realistic in relative magnitude.
REGION_RTT_MS: Dict[frozenset, float] = {
    frozenset(["virginia"]): 0.5,
    frozenset(["hongkong"]): 0.5,
    frozenset(["london"]): 0.5,
    frozenset(["saopaulo"]): 0.5,
    frozenset(["zurich"]): 0.5,
    frozenset(["virginia", "hongkong"]): 212.0,
    frozenset(["virginia", "london"]): 76.0,
    frozenset(["virginia", "saopaulo"]): 116.0,
    frozenset(["virginia", "zurich"]): 90.0,
    frozenset(["hongkong", "london"]): 205.0,
    frozenset(["hongkong", "saopaulo"]): 306.0,
    frozenset(["hongkong", "zurich"]): 196.0,
    frozenset(["london", "saopaulo"]): 188.0,
    frozenset(["london", "zurich"]): 17.0,
    frozenset(["saopaulo", "zurich"]): 203.0,
}

#: Region names in the order the paper adds them (2 → 5 regions).
DEFAULT_REGION_ORDER: Sequence[str] = (
    "virginia",
    "hongkong",
    "london",
    "saopaulo",
    "zurich",
)


class LatencyModel:
    """Base class: maps a (source, destination) pair to a one-way delay."""

    def sample(self, src: int, dst: int, rng: SeededRng) -> float:
        """Return the one-way delay in seconds for a message ``src -> dst``."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable description used in experiment reports."""
        return type(self).__name__


class ConstantLatency(LatencyModel):
    """Every link has the same fixed one-way delay."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise NetworkError(f"latency cannot be negative: {delay!r}")
        self.delay = float(delay)

    def sample(self, src: int, dst: int, rng: SeededRng) -> float:
        return self.delay

    def describe(self) -> str:
        return f"constant({self.delay * 1000:.3f} ms)"


class JitteredLatency(LatencyModel):
    """Fixed base delay plus a uniform jitter in ``[0, jitter]``."""

    def __init__(self, base: float, jitter: float) -> None:
        if base < 0 or jitter < 0:
            raise NetworkError("base and jitter must be non-negative")
        self.base = float(base)
        self.jitter = float(jitter)

    def sample(self, src: int, dst: int, rng: SeededRng) -> float:
        return self.base + rng.uniform(0.0, self.jitter)

    def describe(self) -> str:
        return f"jittered(base={self.base * 1000:.3f} ms, jitter={self.jitter * 1000:.3f} ms)"


class GeoLatencyModel(LatencyModel):
    """Latency between nodes placed in named geographic regions.

    Parameters
    ----------
    placement:
        Mapping from node id to region name.  Nodes not present fall back to
        ``default_region``.
    rtt_ms:
        Optional override of the inter-region RTT table (milliseconds).
    intra_region_ms:
        One-way delay within a region, in milliseconds.
    default_region:
        Region assigned to unplaced nodes (clients usually live here).
    """

    def __init__(
        self,
        placement: Mapping[int, str],
        rtt_ms: Optional[Mapping[frozenset, float]] = None,
        intra_region_ms: float = 0.25,
        default_region: str = "virginia",
    ) -> None:
        self.placement = dict(placement)
        self.rtt_ms = dict(REGION_RTT_MS if rtt_ms is None else rtt_ms)
        self.intra_region_ms = float(intra_region_ms)
        self.default_region = default_region

    @staticmethod
    def uniform_spread(
        node_ids: Sequence[int],
        regions: Sequence[str],
    ) -> "GeoLatencyModel":
        """Place *node_ids* round-robin across *regions* (paper's geo setup)."""
        placement = {
            node_id: regions[index % len(regions)]
            for index, node_id in enumerate(node_ids)
        }
        return GeoLatencyModel(placement)

    def region_of(self, node: int) -> str:
        """Return the region assigned to *node*."""
        return self.placement.get(node, self.default_region)

    def one_way_ms(self, src_region: str, dst_region: str) -> float:
        """One-way delay between two regions in milliseconds."""
        if src_region == dst_region:
            return self.intra_region_ms
        key = frozenset([src_region, dst_region])
        if key not in self.rtt_ms:
            raise NetworkError(f"no RTT entry for regions {src_region!r}/{dst_region!r}")
        return self.rtt_ms[key] / 2.0

    def sample(self, src: int, dst: int, rng: SeededRng) -> float:
        delay_ms = self.one_way_ms(self.region_of(src), self.region_of(dst))
        return delay_ms / 1000.0

    def link_delays(self, src: int, node_ids: Iterable[int]) -> Dict[int, float]:
        """One-way delays in seconds from *src* to every other node of *node_ids*.

        The map a live transport shapes its outbound links with
        (:meth:`~repro.live.transport.AsyncTcpTransport.set_link_delays`):
        the same table lookup :meth:`sample` gives the simulated network.
        """
        src_region = self.region_of(src)
        return {
            dst: self.one_way_ms(src_region, self.region_of(dst)) / 1000.0
            for dst in node_ids
            if dst != src
        }

    def describe(self) -> str:
        regions = sorted(set(self.placement.values()))
        return f"geo(regions={regions})"
