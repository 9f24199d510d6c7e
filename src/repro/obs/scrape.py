"""Per-replica HTTP scrape endpoints for the live runtime.

A dependency-free asyncio HTTP/1.1 server exposing, per replica process:

* ``GET /metrics`` — Prometheus text exposition: per-replica liveness
  gauges (current view, committed height, seconds since the last commit,
  mempool depth, transport counters and outbound queue depth) followed by
  the shared trace exposition from :func:`repro.obs.export.prometheus_text`
  when a tracer is attached.
* ``GET /healthz`` — liveness probe: 200 while the replica object exists
  and is not halted; 503 otherwise.  Body is a small JSON document with the
  view/height/age numbers behind the verdict.
* ``GET /readyz`` — readiness probe: healthy *and* making commit progress
  (last commit no older than ``ready_max_age`` seconds, or no commit
  expected yet because none has happened).

The server shares the cluster's event loop; handlers only read counters, so
a scrape cannot perturb consensus.  Probes resolve the replica object
through a callable on every request — chaos restarts swap the replica
instance, and the endpoint must track the new one.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, Dict, Optional, Tuple

from repro.obs.export import prometheus_exposition, prometheus_text

#: (status, content_type, body) returned by a route callable.
Response = Tuple[int, str, str]

_REASONS = {200: "OK", 404: "Not Found", 500: "Internal Server Error", 503: "Service Unavailable"}
_PROM_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ScrapeServer:
    """Minimal asyncio HTTP server mapping GET paths to route callables."""

    def __init__(self, routes: Dict[str, Callable[[], Response]],
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.routes = dict(routes)
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            parts = request_line.decode("latin-1").split()
            # Drain the headers; scrapes carry no body.
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            if len(parts) < 2 or parts[0] != "GET":
                status, ctype, body = 404, "text/plain", "only GET is served\n"
            else:
                route = self.routes.get(parts[1].split("?", 1)[0])
                if route is None:
                    status, ctype, body = 404, "text/plain", "unknown path\n"
                else:
                    try:
                        status, ctype, body = route()
                    except Exception as exc:  # a probe must answer, not raise
                        status, ctype, body = 500, "text/plain", f"probe error: {exc}\n"
            payload = body.encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class ReplicaTelemetry:
    """Builds the /metrics, /healthz and /readyz routes for one replica.

    ``replica_provider`` returns the *current* replica object for this id
    (or ``None`` while crashed) — chaos restarts replace the instance, so
    the probe must re-resolve on every request.  Commit and view progress
    are sampled: the telemetry caches the last observed committed height /
    view with the wall time it changed, giving "age" without touching the
    replica's hot path.
    """

    def __init__(
        self,
        replica_id: int,
        replica_provider: Callable[[], Optional[object]],
        clock,
        tracer=None,
        transport=None,
        mempool=None,
        ready_max_age: float = 5.0,
    ) -> None:
        self.replica_id = replica_id
        self.replica_provider = replica_provider
        self.clock = clock
        self.tracer = tracer
        self.transport = transport
        self.mempool = mempool
        self.ready_max_age = float(ready_max_age)
        self._last_height = -1
        self._last_height_t = 0.0
        self._last_view = -1
        self._last_view_t = 0.0

    # ---------------------------------------------------------------- state
    def probe(self) -> Dict:
        """Sample the replica's liveness state (shared by all three routes)."""
        now = self.clock.now
        replica = self.replica_provider()
        state: Dict = {
            "replica": self.replica_id,
            "up": replica is not None and not getattr(replica, "halted", False),
            "t": round(now, 6),
        }
        if replica is None:
            state.update({"view": self._last_view, "height": self._last_height})
        else:
            height = len(replica.ledger.committed)
            view = replica.current_view
            if height != self._last_height:
                self._last_height, self._last_height_t = height, now
            if view != self._last_view:
                self._last_view, self._last_view_t = view, now
            state.update({"view": view, "height": height})
        state["last_commit_age_s"] = (
            round(now - self._last_height_t, 6) if self._last_height > 0 else None
        )
        state["last_view_change_age_s"] = (
            round(now - self._last_view_t, 6) if self._last_view >= 0 else None
        )
        if self.mempool is not None:
            # Any object with peek_count() qualifies as a pool here; the
            # in-flight/admission counters are optional extras.
            state["mempool_depth"] = self.mempool.peek_count()
            inflight = getattr(self.mempool, "inflight_count", None)
            if inflight is not None:
                state["mempool_inflight"] = inflight()
            rejected = getattr(self.mempool, "admission_rejected", None)
            if rejected is not None:
                state["mempool_admission_rejected"] = rejected
        return state

    # --------------------------------------------------------------- routes
    def metrics(self) -> Response:
        state = self.probe()
        labels = {"replica": str(self.replica_id)}
        values = [
            ("repro_replica_up", "Replica process is alive and not halted.", "gauge",
             1 if state["up"] else 0),
            ("repro_replica_view", "Current pacemaker view.", "gauge", state["view"]),
            ("repro_replica_committed_height", "Committed ledger height.", "gauge",
             state["height"]),
            ("repro_replica_last_commit_age_seconds",
             "Seconds since the committed height last advanced.", "gauge",
             state["last_commit_age_s"]),
            ("repro_replica_mempool_depth", "Transactions waiting in the mempool.", "gauge",
             state.get("mempool_depth")),
            ("repro_replica_mempool_inflight",
             "Transactions riding in proposed-but-uncommitted blocks.", "gauge",
             state.get("mempool_inflight")),
            ("repro_replica_mempool_admission_rejected_total",
             "Adds rejected by the pool's admission limit.", "counter",
             state.get("mempool_admission_rejected")),
        ]
        if self.transport is not None:
            stats = self.transport.stats.as_dict()
            depth = getattr(self.transport, "outbound_queue_depth", None)
            values += [
                ("repro_transport_messages_sent_total", "Messages handed to the transport.",
                 "counter", stats.get("messages_sent", 0)),
                ("repro_transport_bytes_sent_total", "Wire bytes sent.", "counter",
                 stats.get("bytes_sent", 0)),
                ("repro_transport_outbound_queue_depth",
                 "Frames queued to peers, all connections.", "gauge",
                 depth() if depth is not None else None),
            ]
        body = prometheus_exposition([
            (name, help_text, metric_type, [(labels, value)] if value is not None else [])
            for name, help_text, metric_type, value in values
        ])
        if self.tracer is not None:
            body += prometheus_text(self.tracer)
        return 200, _PROM_TYPE, body

    def healthz(self) -> Response:
        state = self.probe()
        status = 200 if state["up"] else 503
        return status, "application/json", json.dumps(state, sort_keys=True) + "\n"

    def readyz(self) -> Response:
        state = self.probe()
        age = state["last_commit_age_s"]
        stalled = age is not None and age > self.ready_max_age
        ready = bool(state["up"]) and not stalled
        state["ready"] = ready
        state["stalled"] = stalled
        return (200 if ready else 503), "application/json", json.dumps(state, sort_keys=True) + "\n"

    def routes(self) -> Dict[str, Callable[[], Response]]:
        return {"/metrics": self.metrics, "/healthz": self.healthz, "/readyz": self.readyz}
