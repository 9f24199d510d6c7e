"""Heap-driven discrete-event scheduler."""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import Event
from repro.sim.rng import SeededRng


class Simulator:
    """Deterministic discrete-event simulator.

    The simulator owns a :class:`SimClock`, a priority queue of
    :class:`Event` objects and a :class:`SeededRng`.  Components schedule
    callbacks either relative to the current time (:meth:`schedule`) or at an
    absolute time (:meth:`schedule_at`) and the :meth:`run` loop fires them in
    ``(time, insertion-order)`` order.  The heap holds ``(time, seq, event)``
    tuples: ``seq`` is unique, so ``heapq`` orders them by comparing floats
    and ints in C and never compares two events.

    Example
    -------
    >>> sim = Simulator(seed=7)
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "b")
    >>> _ = sim.schedule(0.5, fired.append, "a")
    >>> sim.run()
    >>> fired
    ['a', 'b']
    >>> sim.now
    1.5
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self.clock = SimClock(start_time)
        self.rng = SeededRng(seed)
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._events_processed = 0
        self._running = False

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (useful to bound runaway runs)."""
        return self._events_processed

    # -------------------------------------------------------------- schedule
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule *callback* to fire *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay!r}s in the past")
        return self.schedule_at(self.now + delay, callback, *args, **kwargs)

    def schedule_at(self, when: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule *callback* to fire at absolute simulated time *when*."""
        if when < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule an event at {when!r}, which is before now={self.now!r}"
            )
        when = max(when, self.now)
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, seq, callback, args, kwargs)
        heapq.heappush(self._heap, (event.time, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (no-op if it already fired)."""
        event.cancel()

    # ------------------------------------------------------------------- run
    def peek_next_time(self) -> Optional[float]:
        """Return the timestamp of the next pending event, or ``None``."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        """Fire the single next pending event.

        Returns ``True`` if an event fired and ``False`` if the queue was
        empty.
        """
        self._drop_cancelled_head()
        if not self._heap:
            return False
        when, _, event = heapq.heappop(self._heap)
        self.clock.advance_to(when)
        self._events_processed += 1
        event.fire()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, *until* is reached, or *max_events* fire.

        ``until`` is an absolute simulated time; events scheduled at exactly
        ``until`` still fire.  When the run stops because of ``until``, the
        clock is advanced to ``until`` so subsequent measurements see a full
        window.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        fired = 0
        try:
            while True:
                if max_events is not None and fired >= max_events:
                    break
                next_time = self.peek_next_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                self.step()
                fired += 1
        finally:
            self._running = False
        if until is not None and until > self.now:
            self.clock.advance_to(until)

    # -------------------------------------------------------------- internal
    def _drop_cancelled_head(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6f}, pending={len(self._heap)}, "
            f"processed={self._events_processed})"
        )
