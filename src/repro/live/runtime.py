"""Wall-clock replica driver.

The whole consensus stack schedules work through the duck-typed scheduler
interface of :class:`~repro.sim.scheduler.Simulator` — ``now``,
``schedule``, ``schedule_at``, ``cancel`` and a seeded ``rng``.
:class:`WallClock` implements exactly that interface on top of a running
asyncio event loop, so the *same* replica classes, pacemaker and client pool
run unmodified in real time: pacemaker view timers become ``loop.call_later``
handles, simulated CPU costs become real (tiny) deferrals, and latency
samples are measured against the monotonic loop clock.

:class:`LiveCluster` owns the transport plumbing for one deployment: it
starts every node's TCP server, distributes the resulting address book, and
tears everything down at the end of a run.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.live.transport import AsyncTcpTransport
from repro.sim.rng import SeededRng


class WallHandle:
    """A scheduled wall-clock callback, API-compatible with :class:`~repro.sim.events.Event`."""

    __slots__ = ("time", "cancelled", "fired", "_timer")

    def __init__(self, time: float) -> None:
        self.time = float(time)
        self.cancelled = False
        self.fired = False
        self._timer: Optional[asyncio.TimerHandle] = None

    def cancel(self) -> None:
        """Cancel the callback (no-op if it already fired)."""
        self.cancelled = True
        if self._timer is not None:
            self._timer.cancel()

    @property
    def pending(self) -> bool:
        """``True`` while the callback has neither fired nor been cancelled."""
        return not self.cancelled and not self.fired


class WallClock:
    """Scheduler facade over the asyncio event loop.

    Structurally equivalent to the discrete-event :class:`Simulator` from the
    perspective of replicas, pacemakers and client pools: time starts at 0.0
    when the clock is constructed (inside a running loop) and advances with
    the loop's monotonic clock.  One instance is shared by every node of an
    in-process cluster, exactly as one ``Simulator`` is shared in simulation.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = SeededRng(seed)
        self._loop = asyncio.get_running_loop()
        self._origin = self._loop.time()

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Seconds since the clock was created (monotonic)."""
        return self._loop.time() - self._origin

    def reset_origin(self) -> None:
        """Restart time at 0.0, as if the clock had just been constructed.

        Deployment construction (workload tables, keys, replicas) happens
        under the same clock that later times the run; resetting the origin
        right before the protocol starts keeps that setup cost out of the
        measured window.  Must be called before anything is scheduled.
        """
        self._origin = self._loop.time()

    # -------------------------------------------------------------- schedule
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> WallHandle:
        """Run *callback* *delay* wall-clock seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay!r}s in the past")
        return self.schedule_at(self.now + delay, callback, *args, **kwargs)

    def schedule_at(self, when: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> WallHandle:
        """Run *callback* at absolute clock time *when* (clamped to now)."""
        handle = WallHandle(when)

        def fire() -> None:
            if handle.cancelled:
                return
            handle.fired = True
            callback(*args, **kwargs)

        handle._timer = self._loop.call_later(max(0.0, when - self.now), fire)
        return handle

    def cancel(self, event: WallHandle) -> None:
        """Cancel a previously scheduled handle (no-op if it already fired)."""
        event.cancel()


class LiveNode:
    """One addressable endpoint of a live cluster (a replica or client pool)."""

    def __init__(self, node_id: int, transport: AsyncTcpTransport) -> None:
        self.node_id = int(node_id)
        self.transport = transport


class LiveCluster:
    """Transport plumbing for an n-node localhost deployment.

    Usage: create one :class:`AsyncTcpTransport` per node, wrap them in a
    cluster, ``await start()`` (binds every server, then distributes the
    address book), build the actors against their transports, and finally
    ``await close()``.
    """

    def __init__(self, clock: WallClock, nodes: List[LiveNode]) -> None:
        self.clock = clock
        self.nodes = nodes

    async def start(self) -> Dict[int, Tuple[str, int]]:
        """Bind every server, then install the address book on every node."""
        for node in self.nodes:
            await node.transport.start()
        peers = {
            node.node_id: (node.transport.host, node.transport.port) for node in self.nodes
        }
        for node in self.nodes:
            node.transport.set_peers(peers)
        return peers

    async def close(self) -> None:
        """Tear down every transport (servers, connections, reader tasks).

        Two phases: first every transport stops accepting and closes its
        outbound legs (which delivers EOFs cluster-wide), then every
        transport waits for its inbound readers to exit on those EOFs.
        """
        for node in self.nodes:
            await node.transport.close()
        for node in self.nodes:
            await node.transport.drain_readers()
