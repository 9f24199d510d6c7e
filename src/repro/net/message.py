"""Message envelopes carried by the simulated network."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_ENVELOPE_COUNTER = itertools.count()


@dataclass
class Envelope:
    """A message in flight between two nodes.

    Attributes
    ----------
    sender:
        Node id of the sender (replica id or a negative client-pool id).
    receiver:
        Node id of the destination.
    payload:
        The protocol message object (one of :mod:`repro.consensus.messages`).
    sent_at:
        Simulated time at which the message entered the network.
    deliver_at:
        Simulated time at which the network will deliver it (set by the
        network once the latency sample and fault rules are applied).
    size_bytes:
        Bytes of the message's frame on the wire; used only for statistics.
    envelope_id:
        Monotonic id for deterministic tie-breaking and tracing.
    """

    sender: int
    receiver: int
    payload: Any
    sent_at: float
    deliver_at: float = 0.0
    size_bytes: int = 0
    envelope_id: int = field(default_factory=lambda: next(_ENVELOPE_COUNTER))

    @property
    def latency(self) -> float:
        """Network latency experienced by this envelope (seconds)."""
        return max(0.0, self.deliver_at - self.sent_at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = type(self.payload).__name__
        return (
            f"Envelope(#{self.envelope_id} {self.sender}->{self.receiver} "
            f"{kind} sent={self.sent_at:.6f} deliver={self.deliver_at:.6f})"
        )
