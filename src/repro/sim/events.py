"""Scheduled events for the discrete-event simulator."""

from __future__ import annotations

from typing import Any, Callable, Tuple


class Event:
    """A callback scheduled at a simulated time.

    The simulator orders events by ``(time, seq)``: its heap holds
    ``(time, seq, event)`` tuples, so the order is compared in C and never
    reaches the event.  The sequence number is assigned by the simulator and
    makes ordering fully deterministic even when several events share the
    same timestamp.

    An event can be cancelled before it fires; cancelled events stay in the
    scheduler heap but are skipped when popped.
    """

    __slots__ = ("time", "seq", "callback", "args", "kwargs", "cancelled", "fired")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        kwargs: dict | None = None,
    ) -> None:
        self.time = float(time)
        self.seq = int(seq)
        self.callback = callback
        self.args = args
        self.kwargs = kwargs or {}
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped by the scheduler."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """``True`` while the event has neither fired nor been cancelled."""
        return not self.cancelled and not self.fired

    def fire(self) -> None:
        """Invoke the callback (called by the scheduler only)."""
        self.fired = True
        self.callback(*self.args, **self.kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6f}, seq={self.seq}, cb={name}, {state})"
