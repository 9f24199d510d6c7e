"""Transport abstraction and the asyncio TCP implementation.

:class:`Transport` is the structural interface replicas and client pools
already program against — :class:`~repro.net.network.SimNetwork` satisfies it
unchanged, so the same protocol state machines run over either backend:

* **simulated** — one shared :class:`SimNetwork` object, latency sampled from
  a model, delivery scheduled on the discrete-event simulator;
* **live** — one :class:`AsyncTcpTransport` per node, length-prefixed frames
  (see :mod:`repro.live.codec`) over real per-peer TCP connections with
  lazy connect, reconnect-with-backoff and bounded outbound queues.

Both keep the same :class:`~repro.net.network.NetworkStats` counters, so the
experiment reports read identically for simulated and live runs.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Iterable, List, Optional, Protocol, Tuple

from repro.errors import NetworkError
from repro.live.codec import (
    CodecError,
    decode_envelope,
    encode_message,
    frame_from_message,
    frame_size,
    read_frame,
)
from repro.net.message import Envelope
from repro.net.network import NetworkNode, NetworkStats


class Transport(Protocol):
    """What consensus code needs from a network backend.

    ``SimNetwork`` and ``AsyncTcpTransport`` both satisfy this structurally;
    replicas take whichever they are constructed with and never branch on the
    backend.
    """

    stats: NetworkStats

    def register(self, node: NetworkNode) -> None:
        """Attach *node* so it can receive envelopes."""

    def unregister(self, node_id: int) -> None:
        """Detach a node; subsequent messages to it are dropped."""

    def send(
        self, sender: int, receiver: int, payload: Any, size_bytes: Optional[int] = None
    ) -> Optional[Envelope]:
        """Send *payload* to one node; returns the envelope or ``None`` if dropped."""

    def broadcast(
        self,
        sender: int,
        payload: Any,
        receivers: Optional[Iterable[int]] = None,
        include_self: bool = True,
        size_bytes: Optional[int] = None,
    ) -> int:
        """Send *payload* to many nodes; returns the number handed to the network."""


class _PeerConnection:
    """Outbound leg to one peer: a bounded queue drained by a writer task.

    The connection is opened lazily on the first frame and re-opened with
    exponential backoff after errors; a frame that cannot be written within
    ``max_attempts`` (re)connects is dropped and counted, never blocking the
    event loop or the sender.
    """

    def __init__(self, owner: "AsyncTcpTransport", peer_id: int, host: str, port: int) -> None:
        self.owner = owner
        self.peer_id = peer_id
        self.host = host
        self.port = port
        self.connects = 0
        self._queue: "asyncio.Queue[bytes]" = asyncio.Queue(maxsize=owner.queue_limit)
        self._writer: Optional[asyncio.StreamWriter] = None
        self._task = asyncio.ensure_future(self._run())

    def enqueue(self, frame: bytes) -> bool:
        """Queue *frame* for delivery; ``False`` (caller counts a drop) when full."""
        try:
            self._queue.put_nowait(frame)
        except asyncio.QueueFull:
            return False
        return True

    async def _run(self) -> None:
        backoff = self.owner.reconnect_backoff
        queue = self._queue
        batch_bytes = self.owner.batch_bytes
        flush_delay = self.owner.flush_delay
        while True:
            frame = await queue.get()
            # Nagle-style coalescing: after blocking for the first frame,
            # greedily drain whatever else is already queued (optionally
            # lingering ``flush_delay`` seconds first) and write the batch
            # with a single syscall + drain.  Vote shares and beacons stop
            # paying one write()/drain() round-trip each; ``drain()`` on the
            # combined batch still applies writer backpressure.
            if flush_delay > 0.0 and queue.empty():
                await asyncio.sleep(flush_delay)
            frames = [frame]
            size = len(frame)
            while size < batch_bytes:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                frames.append(extra)
                size += len(extra)
            batch = frames[0] if len(frames) == 1 else b"".join(frames)
            delivered = False
            for _ in range(self.owner.max_send_attempts):
                try:
                    if self._writer is None:
                        _, self._writer = await asyncio.open_connection(self.host, self.port)
                        self.connects += 1
                    self._writer.write(batch)
                    await self._writer.drain()
                    delivered = True
                    break
                except (ConnectionError, OSError):
                    await self._drop_writer()
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2, self.owner.max_backoff)
            if delivered:
                backoff = self.owner.reconnect_backoff
                self.owner.batch_writes += 1
                self.owner.batched_frames += len(frames)
            else:
                self.owner.stats.messages_dropped += len(frames)

    async def _drop_writer(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def close(self) -> None:
        """Stop the writer task and close the socket (queued frames are dropped)."""
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        await self._drop_writer()


class AsyncTcpTransport:
    """Per-node TCP endpoint: one listening server plus lazy per-peer connections.

    Parameters
    ----------
    node_id:
        The id of the single local node this transport serves (a replica id or
        the client pool's negative id).
    clock:
        Anything with a monotonic ``now`` property (the cluster's
        :class:`~repro.live.runtime.WallClock`); stamps envelopes so latency
        measurements work exactly as in simulation.
    host / port:
        Listening address; port ``0`` (the default) picks an ephemeral port,
        read back from :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        node_id: int,
        clock,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 4096,
        max_send_attempts: int = 5,
        reconnect_backoff: float = 0.02,
        max_backoff: float = 0.5,
        batch_bytes: int = 64 * 1024,
        flush_delay: float = 0.0,
    ) -> None:
        self.node_id = int(node_id)
        self.clock = clock
        self.host = host
        self.stats = NetworkStats()
        self.queue_limit = queue_limit
        self.max_send_attempts = max_send_attempts
        self.reconnect_backoff = reconnect_backoff
        self.max_backoff = max_backoff
        #: Writer coalescing thresholds: a peer connection batches queued
        #: frames up to ``batch_bytes`` per write (after lingering
        #: ``flush_delay`` seconds when its queue is empty, 0 = flush
        #: immediately); ``batch_writes`` / ``batched_frames`` count the
        #: resulting syscalls and the frames they carried.
        self.batch_bytes = batch_bytes
        self.flush_delay = flush_delay
        self.batch_writes = 0
        self.batched_frames = 0
        self.delivery_errors: List[BaseException] = []
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._port: Optional[int] = None
        self._local_node: Optional[NetworkNode] = None
        self._peers: Dict[int, Tuple[str, int]] = {}
        self._link_delays: Dict[int, float] = {}
        self._connections: Dict[int, _PeerConnection] = {}
        self._reader_tasks: "set[asyncio.Task]" = set()
        self._trace_hook = None
        self._tracer = None
        self._send_seq = 0
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the listening server (resolving an ephemeral port)."""
        if self._server is not None:
            raise NetworkError(f"transport for node {self.node_id} already started")
        self._server = await asyncio.start_server(
            self._handle_inbound, self.host, self._requested_port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    @property
    def port(self) -> int:
        """The bound listening port (valid after :meth:`start`)."""
        if self._port is None:
            raise NetworkError(f"transport for node {self.node_id} not started")
        return self._port

    def set_peers(self, peers: Dict[int, Tuple[str, int]]) -> None:
        """Install the cluster address book (``node id -> (host, port)``)."""
        self._peers = {int(node_id): (host, int(port)) for node_id, (host, port) in peers.items()}

    def set_link_delays(self, delays: Dict[int, float]) -> None:
        """Install per-peer one-way delays in seconds (emulated geography).

        Shaping happens at the sender: a frame towards a delayed peer is held
        back before entering the outbound queue, so the extra latency is paid
        on top of the real socket round-trip.  A *constant* per-peer delay
        preserves FIFO ordering on each link, matching the simulator's geo
        model.  Self-sends are never delayed (the simulator delivers those
        immediately too); zero / negative entries clear shaping for that peer.
        """
        self._link_delays = {
            int(peer): float(delay) for peer, delay in delays.items() if float(delay) > 0.0
        }

    async def close(self) -> None:
        """Stop accepting and close every outbound connection.

        Inbound readers are left to exit on the EOF they observe once the
        peers' outbound legs close; a cluster-level teardown calls
        :meth:`drain_readers` after *every* transport has closed, so readers
        finish naturally instead of being cancelled (cancelling tasks spawned
        by ``asyncio.start_server`` makes the streams machinery log spurious
        ``CancelledError`` tracebacks).
        """
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for connection in list(self._connections.values()):
            await connection.close()
        self._connections.clear()

    async def drain_readers(self, timeout: float = 1.0) -> None:
        """Wait for inbound reader tasks to exit; cancel stragglers after *timeout*."""
        tasks = [task for task in self._reader_tasks if not task.done()]
        if tasks:
            await asyncio.wait(tasks, timeout=timeout)
        for task in self._reader_tasks:
            if not task.done():
                task.cancel()
        self._reader_tasks.clear()

    # -------------------------------------------------------------- topology
    def register(self, node: NetworkNode) -> None:
        """Attach the single local node this transport serves."""
        if self._local_node is not None:
            raise NetworkError(
                f"transport for node {self.node_id} already serves node "
                f"{self._local_node.node_id}; one AsyncTcpTransport per node"
            )
        if node.node_id != self.node_id:
            raise NetworkError(
                f"node id {node.node_id} does not match transport node id {self.node_id}"
            )
        self._local_node = node

    def unregister(self, node_id: int) -> None:
        """Detach the local node (messages to it are dropped afterwards)."""
        if self._local_node is not None and self._local_node.node_id == node_id:
            self._local_node = None

    @property
    def node_ids(self) -> list:
        """The local node id plus every known peer id, sorted."""
        known = set(self._peers)
        known.add(self.node_id)
        return sorted(known)

    def set_trace_hook(self, hook) -> None:
        """Install a hook invoked on every delivered envelope (tests/tracing)."""
        self._trace_hook = hook

    def set_tracer(self, tracer) -> None:
        """Attach a :class:`~repro.obs.trace.TraceRecorder` for wire events.

        With a tracer attached, every outbound frame is stamped with a
        per-sender send sequence (the v5 wire trace context) and recorded as
        a ``send`` wire event; every inbound frame that carries a sequence is
        recorded as the matching ``recv`` event.  ``None`` detaches — an
        untraced transport pays one attribute test per frame and emits
        byte-identical v4 frames.
        """
        self._tracer = tracer

    def wire_counters(self) -> Dict:
        """Wire-level counters for reports: write coalescing plus reconnects.

        ``reconnects`` maps peer id to the number of *re*-connections (the
        first lazy connect is free).  Must be read before :meth:`close` —
        closing drops the per-peer connection objects and their counts.
        """
        return {
            "batch_writes": self.batch_writes,
            "batched_frames": self.batched_frames,
            "reconnects": {
                peer_id: max(0, connection.connects - 1)
                for peer_id, connection in self._connections.items()
            },
        }

    def outbound_queue_depth(self) -> int:
        """Frames currently queued towards peers, summed over connections.

        A backpressure gauge for the scrape endpoint: a growing depth means
        this node produces frames faster than its sockets drain them.
        """
        return sum(connection._queue.qsize() for connection in self._connections.values())

    # ------------------------------------------------------------------ send
    def send(
        self, sender: int, receiver: int, payload: Any, size_bytes: Optional[int] = None
    ) -> Optional[Envelope]:
        """Frame *payload* and hand it to the receiver's connection.

        Self-sends skip the socket (scheduled on the loop to stay
        asynchronous, mirroring the simulator's zero-delay self-delivery).
        Returns the in-flight envelope, or ``None`` when dropped.
        """
        try:
            message = encode_message(payload)
        except CodecError as exc:
            # send() runs inside timer callbacks; raising here would vanish
            # into asyncio's default handler, so record and drop instead.
            self.delivery_errors.append(exc)
            self.stats.messages_dropped += 1
            return None
        return self._send_encoded(sender, receiver, payload, message, size_bytes)

    def _send_encoded(
        self,
        sender: int,
        receiver: int,
        payload: Any,
        message: bytes,
        size_bytes: Optional[int] = None,
    ) -> Optional[Envelope]:
        """Frame pre-encoded *message* bytes and hand them to one receiver."""
        tracer = self._tracer
        local = receiver == self.node_id
        now = self.clock.now
        seq = None
        frame = b""
        try:
            if local:
                # Self-sends never cross the wire (and carry no skew
                # information): they consume no trace sequence and build no
                # frame, only the size the frame would have had.
                size = frame_size(sender, receiver, message, now)
            else:
                if tracer is not None:
                    self._send_seq += 1
                    seq = self._send_seq
                frame = frame_from_message(sender, receiver, message, now, seq)
                size = len(frame)
        except CodecError as exc:  # includes FrameTooLargeError
            self.delivery_errors.append(exc)
            self.stats.messages_dropped += 1
            return None
        self.stats.record_sent(payload, size if size_bytes is None else size_bytes)
        if seq is not None:
            tracer.wire_send(self.node_id, receiver, seq, type(payload).__name__)
        if self._closed:
            self.stats.messages_dropped += 1
            return None
        envelope = Envelope(
            sender=sender,
            receiver=receiver,
            payload=payload,
            sent_at=now,
            deliver_at=now,
            size_bytes=size,
        )
        if local:
            asyncio.get_running_loop().call_soon(self._deliver_local, envelope)
            return envelope
        delay = self._link_delays.get(receiver, 0.0)
        if delay > 0.0:
            asyncio.get_running_loop().call_later(delay, self._enqueue_delayed, receiver, frame)
            return envelope
        if not self._enqueue_frame(receiver, frame):
            self.stats.messages_dropped += 1
            return None
        return envelope

    def _enqueue_frame(self, receiver: int, frame: bytes) -> bool:
        connection = self._connection_for(receiver)
        return connection is not None and connection.enqueue(frame)

    def _enqueue_delayed(self, receiver: int, frame: bytes) -> None:
        """Timer callback releasing a geo-delayed frame into the peer queue."""
        if self._closed or not self._enqueue_frame(receiver, frame):
            self.stats.messages_dropped += 1

    def broadcast(
        self,
        sender: int,
        payload: Any,
        receivers: Optional[Iterable[int]] = None,
        include_self: bool = True,
        size_bytes: Optional[int] = None,
    ) -> int:
        """Send *payload* to every known node (or the given *receivers*).

        The message body is encoded once for the whole fan-out; only the
        per-receiver envelope is spliced around it.
        """
        targets = list(self.node_ids if receivers is None else receivers)
        try:
            message = encode_message(payload)
        except CodecError as exc:
            self.delivery_errors.append(exc)
            self.stats.messages_dropped += sum(
                1 for receiver in targets if include_self or receiver != sender
            )
            return 0
        count = 0
        for receiver in targets:
            if not include_self and receiver == sender:
                continue
            self._send_encoded(sender, receiver, payload, message, size_bytes)
            count += 1
        return count

    # -------------------------------------------------------------- internal
    def _connection_for(self, receiver: int) -> Optional[_PeerConnection]:
        connection = self._connections.get(receiver)
        if connection is not None:
            return connection
        address = self._peers.get(receiver)
        if address is None:
            return None
        connection = _PeerConnection(self, receiver, address[0], address[1])
        self._connections[receiver] = connection
        return connection

    def _deliver_local(self, envelope: Envelope) -> None:
        envelope.deliver_at = self.clock.now  # delivery happens a loop-turn after send
        self._dispatch(envelope)

    async def _handle_inbound(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.add(task)
        try:
            while not self._closed:
                body = await read_frame(reader)
                if body is None:
                    break
                try:
                    sender, receiver, sent_at, seq, payload = decode_envelope(body)
                except CodecError as exc:
                    self.delivery_errors.append(exc)
                    break
                envelope = Envelope(
                    sender=sender,
                    receiver=receiver,
                    payload=payload,
                    sent_at=sent_at,
                    deliver_at=self.clock.now,
                    size_bytes=len(body) + 4,
                )
                if self._tracer is not None and seq is not None:
                    self._tracer.wire_recv(
                        sender, receiver, seq, sent_at, type(payload).__name__
                    )
                self._dispatch(envelope)
        except (ConnectionError, OSError, CodecError):
            pass  # peer went away or sent garbage; reconnects are its problem
        except asyncio.CancelledError:
            if not self._closed:  # mid-run cancellation is not ours to swallow
                raise
        finally:
            if task is not None:
                self._reader_tasks.discard(task)
            writer.close()

    def _dispatch(self, envelope: Envelope) -> None:
        """Hand a received envelope to the local node (drops after close)."""
        node = self._local_node
        if node is None or self._closed:
            self.stats.messages_dropped += 1
            return
        self.stats.record_delivered(envelope.payload)
        if self._trace_hook is not None:
            self._trace_hook(envelope)
        try:
            node.deliver(envelope)
        except Exception as exc:  # surface protocol bugs after the run
            self.delivery_errors.append(exc)
