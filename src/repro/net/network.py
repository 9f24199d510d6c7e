"""Simulated message-passing network."""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Protocol

from repro.errors import NetworkError
from repro.net.faults import FaultInjector
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Envelope
from repro.sim.scheduler import Simulator

_encoded_size = None


def _wire_size(payload: Any) -> int:
    """Bytes of the frame a live transport would write for *payload*: its
    encoding plus the envelope (:func:`repro.live.codec.encoded_size`).

    Imported lazily so the network substrate stays importable on its own;
    unknown payload types (test stubs) are charged the codec's default size.
    """
    global _encoded_size
    if _encoded_size is None:
        from repro.live.codec import encoded_size

        _encoded_size = encoded_size
    return _encoded_size(payload)


class NetworkNode(Protocol):
    """Anything that can be registered on the network and receive envelopes."""

    node_id: int

    def deliver(self, envelope: Envelope) -> None:
        """Handle an incoming envelope."""


class NetworkStats:
    """Aggregate traffic counters exposed to the experiment reports.

    Besides the classic totals, the stats break sends and deliveries down by
    payload type (``Propose``, ``NewView``, ...), which is how the paper
    discusses message complexity; :func:`repro.experiments.report.format_network_breakdown`
    renders the breakdown as a table.
    """

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        self.sent_by_type: Dict[str, int] = {}
        self.bytes_by_type: Dict[str, int] = {}
        self.delivered_by_type: Dict[str, int] = {}

    def record_sent(self, payload: Any, size_bytes: int) -> None:
        """Count one outgoing message of *size_bytes*, keyed by payload type."""
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        name = type(payload).__name__
        self.sent_by_type[name] = self.sent_by_type.get(name, 0) + 1
        self.bytes_by_type[name] = self.bytes_by_type.get(name, 0) + size_bytes

    def record_delivered(self, payload: Any) -> None:
        """Count one delivered message, keyed by payload type."""
        self.messages_delivered += 1
        name = type(payload).__name__
        self.delivered_by_type[name] = self.delivered_by_type.get(name, 0) + 1

    def merge(self, other: "NetworkStats") -> None:
        """Fold *other*'s counters into this one (live mode aggregates per-node stats)."""
        self.messages_sent += other.messages_sent
        self.messages_delivered += other.messages_delivered
        self.messages_dropped += other.messages_dropped
        self.bytes_sent += other.bytes_sent
        for name, count in other.sent_by_type.items():
            self.sent_by_type[name] = self.sent_by_type.get(name, 0) + count
        for name, count in other.bytes_by_type.items():
            self.bytes_by_type[name] = self.bytes_by_type.get(name, 0) + count
        for name, count in other.delivered_by_type.items():
            self.delivered_by_type[name] = self.delivered_by_type.get(name, 0) + count

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary (per-type maps nested)."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "bytes_sent": self.bytes_sent,
            "sent_by_type": dict(self.sent_by_type),
            "bytes_by_type": dict(self.bytes_by_type),
            "delivered_by_type": dict(self.delivered_by_type),
        }


class SimNetwork:
    """Point-to-point network with latency model and fault injection.

    Nodes register themselves with :meth:`register`; thereafter any node can
    :meth:`send` to another node id or :meth:`broadcast` to all replicas.
    Delivery is scheduled on the simulator after sampling the latency model
    and applying the fault injector.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.sim = sim
        self.latency = latency or ConstantLatency(0.001)
        self.faults = faults or FaultInjector()
        self.stats = NetworkStats()
        self._nodes: Dict[int, NetworkNode] = {}
        self._rng = sim.rng.fork("network")
        self._trace_hook: Optional[Callable[[Envelope], None]] = None

    # ------------------------------------------------------------- topology
    def register(self, node: NetworkNode) -> None:
        """Register *node* so it can receive messages."""
        node_id = node.node_id
        if node_id in self._nodes:
            raise NetworkError(f"node id {node_id} already registered")
        self._nodes[node_id] = node

    def unregister(self, node_id: int) -> None:
        """Remove a node (messages to it are dropped afterwards)."""
        self._nodes.pop(node_id, None)

    @property
    def node_ids(self) -> list:
        """Sorted list of registered node ids."""
        return sorted(self._nodes)

    def set_trace_hook(self, hook: Optional[Callable[[Envelope], None]]) -> None:
        """Install a hook invoked on every delivered envelope (for tests/tracing)."""
        self._trace_hook = hook

    # ------------------------------------------------------------------ send
    def send(self, sender: int, receiver: int, payload: Any) -> Optional[Envelope]:
        """Send *payload* from *sender* to *receiver*.

        The message is charged the bytes of the frame a live transport would
        write for it (:func:`_wire_size`), so simulated byte counters match
        what a live deployment puts on its sockets.

        Returns the in-flight :class:`Envelope`, or ``None`` if the message
        was dropped by a fault rule or the receiver is unknown.
        """
        return self._send(sender, receiver, payload, _wire_size(payload))

    def broadcast(self, sender: int, payload: Any, receivers: Optional[Iterable[int]] = None) -> int:
        """Send *payload* to every registered node (or the given *receivers*).

        The message is sized once for the whole fan-out.  Returns the number
        of messages handed to the network (drops included, as the sender
        cannot observe them).
        """
        size = _wire_size(payload)
        targets = list(self._nodes if receivers is None else receivers)
        for receiver in targets:
            self._send(sender, receiver, payload, size)
        return len(targets)

    # -------------------------------------------------------------- internal
    def _send(self, sender: int, receiver: int, payload: Any, size: int) -> Optional[Envelope]:
        self.stats.record_sent(payload, size)
        if self.faults.should_drop(sender, receiver):
            self.faults.record_drop()
            self.stats.messages_dropped += 1
            return None
        if receiver not in self._nodes:
            self.stats.messages_dropped += 1
            return None
        envelope = Envelope(
            sender=sender,
            receiver=receiver,
            payload=payload,
            sent_at=self.sim.now,
            size_bytes=size,
        )
        delay = self._one_way_delay(sender, receiver)
        envelope.deliver_at = self.sim.now + delay
        self.sim.schedule_at(envelope.deliver_at, self._deliver, envelope)
        return envelope

    def _one_way_delay(self, sender: int, receiver: int) -> float:
        base = 0.0 if sender == receiver else self.latency.sample(sender, receiver, self._rng)
        return base + self.faults.extra_delay(sender, receiver)

    def _deliver(self, envelope: Envelope) -> None:
        node = self._nodes.get(envelope.receiver)
        if node is None:
            self.stats.messages_dropped += 1
            return
        self.stats.record_delivered(envelope.payload)
        if self._trace_hook is not None:
            self._trace_hook(envelope)
        node.deliver(envelope)
