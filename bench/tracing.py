"""Outside-in span tracer: layer boundaries are wrapped from here, never in ``src/``.

Each layer's public entry points are replaced, at the name where callers look
them up, by a wrapper that records one span (layer, start, end, parent) with
``perf_counter_ns``.  Everything runs on one thread, so spans nest as a stack
and a span's parent is whatever was open when it started.  Spans stay in
memory (four typed arrays) until the run ends; a layer's *self time* is its
spans' duration minus the part covered by their direct children.

Work that does not enter through a layer's own methods is attributed where it
is dispatched:

* callbacks handed to ``Simulator.schedule_at`` / ``WallClock.schedule_at``
  get the layer of the object that owns them (a replica or pacemaker timer is
  ``consensus``, the simulated network's delivery is ``net``, the client
  pool's retry and injector ticks are ``client``);
* on the asyncio loop, ``Handle._run`` is wrapped so the transport's own
  tasks and socket callbacks (peer writer, inbound reader, selector
  read/write) count as ``transport``, and ``selector.select`` is ``idle``.

Whatever the loop does outside any span is ``loop.other_frac``.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

LAYERS = (
    "codec",
    "crypto",
    "mempool",
    "consensus",
    "ledger",
    "storage",
    "transport",
    "net",
    "client",
    "workloads",
    "sim",
    "idle",
)
_ID = {name: index for index, name in enumerate(LAYERS)}
_now = time.perf_counter_ns


class SpanTracer:
    """Records spans while :attr:`enabled`; aggregates them when asked."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.current = -1
        self.enabled = False
        self.t_on = 0
        self.t_off = 0
        #: Clock of the run (wall seconds live, simulated seconds in sim);
        #: used for the mempool queue wait, which is a property of the run.
        self.run_clock: Callable[[], float] = time.perf_counter
        self._added_at: Dict[int, float] = {}
        self.mempool_waits: List[float] = []
        self._owner_layer: Dict[type, Optional[int]] = {}
        self._coro_layer: Dict[Any, Optional[int]] = {}

    # ---------------------------------------------------------------- spans
    def on(self) -> None:
        self.enabled = True
        self.t_on = _now()

    def off(self) -> None:
        if self.enabled:
            self.enabled = False
            self.t_off = _now()

    def run_in_span(self, layer_id: int, fn: Callable, *args, **kwargs):
        """Run *fn* inside a span of *layer_id* (a plain call while disabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.start)
        parent = self.current
        self.layer.append(layer_id)
        self.parent.append(parent)
        self.end.append(0)
        self.current = index
        self.start.append(_now())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = _now()
            self.current = parent

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """Return *fn* wrapped in a span of *layer*."""
        layer_id = _ID[layer]
        run_in_span = self.run_in_span

        def traced(*args, **kwargs):
            return run_in_span(layer_id, fn, *args, **kwargs)

        return traced

    # ------------------------------------------------------------- patching
    def _patch_methods(self, layer: str, cls: type, names) -> None:
        for name in names:
            setattr(cls, name, self.wrap(layer, cls.__dict__[name]))

    def install(self) -> None:
        """Wrap every layer boundary, for the rest of this (child) process."""
        from repro.consensus.certificates import CertificateAuthority
        from repro.consensus.client import ClientPool
        from repro.consensus.mempool import Mempool
        from repro.consensus.replica import BaseReplica
        from repro.crypto.threshold import ThresholdScheme
        from repro.ledger.block import Block
        from repro.ledger.speculative import SpeculativeLedger
        from repro.live import codec, transport
        from repro.live.deploy import LiveLoadGenerator
        from repro.live.runtime import WallClock
        from repro.net import network
        from repro.sim.scheduler import Simulator
        from repro.storage.recovery import RecoveryManager
        from repro.storage.store import ReplicaStore
        from repro.storage.wal import WriteAheadLog
        from repro.workloads.base import Workload

        # codec: the names the transport and the simulated network look up.
        for name in ("encode_message", "frame_from_message", "decode_envelope"):
            setattr(transport, name, self.wrap("codec", getattr(transport, name)))
        network._encoded_size = self.wrap("codec", codec.encoded_size)

        self._patch_methods(
            "crypto",
            CertificateAuthority,
            ("create_vote", "verify_vote", "form_certificate", "verify_certificate"),
        )
        self._patch_methods(
            "crypto",
            ThresholdScheme,
            ("create_share", "verify_share", "aggregate", "verify_aggregate"),
        )

        self._patch_methods("mempool", Mempool, ("note_proposed", "mark_committed"))
        Mempool.add = self.wrap("mempool", self._timed_add(Mempool.add))
        Mempool.next_batch = self.wrap("mempool", self._timed_take(Mempool.next_batch))

        self._patch_methods("consensus", BaseReplica, ("deliver",))
        self._patch_methods(
            "ledger",
            SpeculativeLedger,
            ("speculate", "commit", "rollback_to_committed_head", "rollback_if_conflicting"),
        )
        Block.build = staticmethod(self.wrap("ledger", Block.build))

        self._patch_methods(
            "storage",
            ReplicaStore,
            [name for name in vars(ReplicaStore) if name.startswith("record_")],
        )
        self._patch_methods(
            "storage",
            WriteAheadLog,
            [name for name in vars(WriteAheadLog) if name.startswith("append_")],
        )
        self._patch_methods("storage", RecoveryManager, ("restore",))

        self._patch_methods(
            "transport", transport.AsyncTcpTransport, ("send", "broadcast", "_dispatch")
        )
        self._patch_methods("net", network.SimNetwork, ("send", "broadcast"))
        self._patch_methods("client", ClientPool, ("deliver", "_submit_new"))
        self._patch_methods("client", LiveLoadGenerator, ("_inject",))
        for cls in Workload.__subclasses__():
            if "next_transaction" in vars(cls):
                self._patch_methods("workloads", cls, ("next_transaction",))

        self._patch_methods("sim", Simulator, ("step",))
        for clock in (Simulator, WallClock):
            clock.schedule_at = self._attributing_schedule_at(clock.schedule_at)
        asyncio.events.Handle._run = self._attributing_handle_run()

    def trace_selector(self, loop: asyncio.AbstractEventLoop) -> None:
        """Count time blocked in *loop*'s selector as ``idle`` (per-loop patch)."""
        selector = loop._selector
        selector.select = self.wrap("idle", selector.select)

    # --------------------------------------------------- mempool queue wait
    def _timed_add(self, add: Callable) -> Callable:
        added_at, tracer = self._added_at, self

        def timed_add(pool, txn):
            admitted = add(pool, txn)
            if admitted and tracer.enabled:
                added_at[txn.txn_id] = tracer.run_clock()
            return admitted

        return timed_add

    def _timed_take(self, next_batch: Callable) -> Callable:
        added_at, waits, tracer = self._added_at, self.mempool_waits, self

        def timed_take(pool, batch_size):
            batch = next_batch(pool, batch_size)
            if batch and tracer.enabled:
                now = tracer.run_clock()
                for txn in batch:
                    since = added_at.pop(txn.txn_id, None)
                    if since is not None:
                        waits.append(now - since)
            return batch

        return timed_take

    # ------------------------------------------- attribution at dispatch time
    def _layer_of_owner(self, callback: Callable) -> Optional[int]:
        """Layer of the object a scheduled *callback* is bound to, if any."""
        from repro.sim.process import PeriodicTimer, Timer

        owner = getattr(callback, "__self__", None)
        if owner is None:
            return None
        if isinstance(owner, (Timer, PeriodicTimer)):
            return self._layer_of_owner(owner._callback)  # whoever armed the timer
        kind = type(owner)
        try:
            return self._owner_layer[kind]
        except KeyError:
            pass
        from repro.consensus.client import ClientPool
        from repro.consensus.pacemaker import Pacemaker
        from repro.consensus.replica import BaseReplica
        from repro.live.transport import AsyncTcpTransport
        from repro.net.network import SimNetwork

        layer: Optional[int] = None
        for base, name in (
            (BaseReplica, "consensus"),
            (Pacemaker, "consensus"),
            (ClientPool, "client"),
            (SimNetwork, "net"),
            (AsyncTcpTransport, "transport"),
        ):
            if issubclass(kind, base):
                layer = _ID[name]
                break
        self._owner_layer[kind] = layer
        return layer

    def _attributing_schedule_at(self, schedule_at: Callable) -> Callable:
        tracer = self

        def traced_schedule_at(clock, when, callback, *args, **kwargs):
            layer_id = tracer._layer_of_owner(callback)
            if layer_id is None:
                return schedule_at(clock, when, callback, *args, **kwargs)
            return schedule_at(
                clock, when, tracer.run_in_span, layer_id, callback, *args, **kwargs
            )

        return traced_schedule_at

    def _layer_of_handle(self, callback: Any) -> Optional[int]:
        """``transport`` for the transport's tasks and socket callbacks."""
        owner = getattr(callback, "__self__", None)
        if owner is None:
            return None
        if isinstance(owner, asyncio.Task):
            coro = owner.get_coro()
            code = getattr(coro, "cr_code", None)
            try:
                return self._coro_layer[code]
            except KeyError:
                pass
            qualname = getattr(coro, "__qualname__", "")
            mine = qualname.startswith(("_PeerConnection.", "AsyncTcpTransport."))
            layer = _ID["transport"] if mine else None
            self._coro_layer[code] = layer
            return layer
        kind = type(owner)
        try:
            return self._owner_layer[kind]
        except KeyError:
            pass
        if kind.__module__ in ("asyncio.selector_events", "asyncio.streams"):
            self._owner_layer[kind] = _ID["transport"]
            return _ID["transport"]
        return self._layer_of_owner(callback)

    def _attributing_handle_run(self) -> Callable:
        tracer = self
        run = asyncio.events.Handle._run

        def traced_run(handle):
            if not tracer.enabled:
                return run(handle)
            layer_id = tracer._layer_of_handle(handle._callback)
            if layer_id is None:
                return run(handle)
            return tracer.run_in_span(layer_id, run, handle)

        return traced_run

    # ------------------------------------------------------------ aggregation
    def summary(self) -> Dict[str, Any]:
        """Per-layer self time and call counts over the traced interval."""
        count = len(self.start)
        end_of_trace = self.t_off or _now()
        child_ns = [0] * count
        self_ns = [0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        durations = [0] * count
        for index in range(count):
            end = self.end[index] or end_of_trace  # still open when tracing stopped
            durations[index] = duration = end - self.start[index]
            parent = self.parent[index]
            if parent >= 0:
                child_ns[parent] += duration
        for index in range(count):
            layer_id = self.layer[index]
            self_ns[layer_id] += durations[index] - child_ns[index]
            calls[layer_id] += 1
        return {
            "wall_ns": end_of_trace - self.t_on,
            "spans": count,
            "self_ns": dict(zip(LAYERS, self_ns)),
            "calls": dict(zip(LAYERS, calls)),
            "mempool_wait_p50_s": statistics.median(self.mempool_waits or [0.0]),
        }

    def dump(self, path) -> None:
        """Write the raw spans (one JSON array per column) to *path*."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "layers": list(LAYERS),
                    "t_on_ns": self.t_on,
                    "t_off_ns": self.t_off,
                    "layer": self.layer.tolist(),
                    "start_ns": self.start.tolist(),
                    "end_ns": self.end.tolist(),
                    "parent": self.parent.tolist(),
                },
                handle,
            )

