"""Live deployment harness: the wall-clock run phases plus the in-process driver.

:func:`run_live_experiment` is the wall-clock twin of
:func:`repro.experiments.runner.run_experiment`: it takes the same
:class:`ExperimentSpec`, builds the same replica classes against
:class:`~repro.live.transport.AsyncTcpTransport` endpoints and a shared
:class:`~repro.live.runtime.WallClock`, drives real traffic for
``spec.duration`` wall-clock seconds (or until ``target_ops`` client
operations complete), and funnels the measurements through the identical
:class:`~repro.experiments.runner.RunResult` → report pipeline.  No protocol
rule is forked: speculation, slotting and commit logic run byte-for-byte the
same code as in simulation.

The phases that need sockets are written once here — :func:`serve`,
:func:`poll`, :func:`close` — for every live placement: all nodes in this
process (:func:`run_live_experiment`), or one replica / the client pool per
process (:mod:`repro.live.procs`).  What a
process does beyond its hosted nodes (trace-shard identity, wire events, the
readiness barrier) follows from the address book naming endpoints it does
not host, never from which driver called.

Request dissemination follows the spec (see :mod:`repro.consensus.mempool`):
the default is one shared in-process pool (perfect dissemination), while
``spec.distributed_mempool`` gives every replica its own pool fed by clients
broadcasting each request to all replicas.  ``spec.regions`` shapes per-link
delays on every transport from the same
:class:`~repro.net.latency.GeoLatencyModel` tables the simulator uses, so the
cross-region figures (8 e–h) reproduce over real sockets.  Consensus traffic —
proposals, votes, certificates, client responses — always travels over real
TCP.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.consensus.client import CLIENT_POOL_NODE_ID, ClientPool
from repro.consensus.messages import ClientRequest, ClientRequestBatch
from repro.consensus.replica import honest_committed_chains
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    Deployment,
    ExperimentSpec,
    RunResult,
    latency_model_for,
    prepare,
    report,
    start,
    verify,
)
from repro.live.codec import wire_codec_scope
from repro.live.runtime import LiveCluster, LiveNode, WallClock
from repro.live.transport import AsyncTcpTransport
from repro.net.latency import GeoLatencyModel
from repro.net.network import NetworkStats
from repro.sim.process import PeriodicTimer

#: ``node id -> (host, port)`` for every node of a deployment.
AddressBook = Dict[int, Tuple[str, int]]

#: How often the measurement loop checks the stop conditions (seconds).  At
#: live throughputs past ~10k tps a 20 ms poll overshoots a 1000-op target by
#: hundreds of ops; 5 ms keeps the overshoot in the noise while still letting
#: the consensus tasks dominate the loop.
POLL_INTERVAL = 0.005

#: Open-loop injection ticks are capped at this period; each tick submits
#: however many transactions the target rate is behind by.
MIN_INJECT_PERIOD = 0.005

#: How long the readiness barrier waits for every endpoint hosted elsewhere
#: to accept (seconds).
READY_TIMEOUT = 20.0


class LiveLoadGenerator(ClientPool):
    """Client load for live runs: closed-loop by default, open-loop at a rate.

    With ``rate=None`` this is exactly the simulator's closed-loop
    :class:`ClientPool` (each logical client keeps one request outstanding).
    With a positive ``rate`` the generator runs open-loop: transactions are
    injected at ``rate`` per second regardless of completions, which is how
    the paper's real deployments measure saturation throughput.
    """

    def __init__(
        self,
        *args,
        rate: Optional[float] = None,
        max_outstanding: Optional[int] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if rate is not None and rate <= 0:
            raise ConfigurationError(f"open-loop rate must be positive, got {rate}")
        if max_outstanding is not None and max_outstanding < 1:
            raise ConfigurationError(
                f"max_outstanding must be >= 1, got {max_outstanding}"
            )
        #: Open-loop admission control on the client side: injection ticks
        #: never push the outstanding set past this (closed-loop runs are
        #: capped by ``num_clients`` already).  Pairs with the replicas'
        #: ``mempool_limit`` backpressure so a saturated cluster sheds load at
        #: the edge instead of growing unbounded pools.
        self.max_outstanding = max_outstanding
        self.rate = rate
        self.injected_count = 0
        self._inject_started_at = 0.0
        self._next_logical = 0
        self._request_buffer: Optional[Dict[int, list]] = None
        self._injector: Optional[PeriodicTimer] = None
        if rate is not None:
            period = max(1.0 / rate, MIN_INJECT_PERIOD)
            # After a stall the injector catches up gradually: at most a few
            # ticks' worth per callback, so one tick never floods the loop
            # (and the transport queues) with the whole backlog at once.
            self._burst_limit = max(1, int(rate * period * 4))
            self._injector = PeriodicTimer(self.sim, period, self._inject)

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Arm the retry timer and either the closed-loop seeds or the injector."""
        if self.rate is None:
            self._request_buffer = {}
            try:
                super().start()
            finally:
                self._flush_requests()
            return
        self._inject_started_at = self.sim.now
        self._retry_timer.start()
        self._injector.start(initial_delay=0.0)

    def stop(self) -> None:
        """Stop issuing new requests."""
        super().stop()
        if self._injector is not None:
            self._injector.stop()

    # -------------------------------------------------------------- open loop
    def _inject(self) -> None:
        """Catch the injected count up to ``rate * elapsed``, bounded per tick."""
        target = int((self.sim.now - self._inject_started_at) * self.rate)
        burst = min(target - self.injected_count, self._burst_limit)
        if self.max_outstanding is not None:
            burst = min(burst, self.max_outstanding - len(self.outstanding))
        if burst <= 0:
            return
        self._request_buffer = {}
        try:
            for _ in range(burst):
                self._submit_new(self._next_logical)
                self._next_logical += 1
                self.injected_count += 1
        finally:
            self._flush_requests()

    def _after_completion(self, request) -> None:
        if self.rate is None:
            super()._after_completion(request)
        # Open loop: injection is time-driven, completions do not re-issue.

    # ------------------------------------------------------- request batching
    # Submissions arrive in bursts — the closed-loop re-issues that follow a
    # response batch, the seeds at start(), an injector tick — and each would
    # otherwise pay for its own frame.  While a burst is being produced the
    # dispatch below parks transactions per target; the flush sends one
    # ClientRequestBatch per replica instead.

    def _handle_response_batch(self, batch) -> None:
        self._request_buffer = {}
        try:
            super()._handle_response_batch(batch)
        finally:
            self._flush_requests()

    def _dispatch_request(self, target, txn) -> None:
        if self._request_buffer is None:  # e.g. a retry-timer resubmission
            super()._dispatch_request(target, txn)
            return
        self._request_buffer.setdefault(target, []).append(txn)

    def _flush_requests(self) -> None:
        buffer, self._request_buffer = self._request_buffer, None
        for target, txns in buffer.items():
            if len(txns) == 1:
                self.network.send(self.node_id, target, ClientRequest(txn=txns[0]))
            else:
                self.network.send(self.node_id, target, ClientRequestBatch(txns=tuple(txns)))


def open_transports(
    clock: WallClock, hosted: Sequence[int], book: Optional[AddressBook] = None
) -> Dict[int, AsyncTcpTransport]:
    """One unbound transport per hosted node id, at its *book* address.

    Without an address book every node is hosted here, so each binds an
    ephemeral localhost port and :func:`serve` builds the book afterwards.
    """
    return {
        node_id: AsyncTcpTransport(node_id, clock, *(book[node_id] if book else ()))
        for node_id in hosted
    }


async def _wait_for_endpoints(endpoints: Iterable[Tuple[str, int]]) -> None:
    """Poll TCP-connect each endpoint until it accepts (readiness barrier)."""
    deadline = time.monotonic() + READY_TIMEOUT
    for host, port in endpoints:
        while True:
            try:
                _, writer = await asyncio.open_connection(host, port)
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                break
            except (ConnectionError, OSError):
                if time.monotonic() >= deadline:
                    raise ConfigurationError(
                        f"endpoint {host}:{port} did not come up within {READY_TIMEOUT}s"
                    )
                await asyncio.sleep(0.05)


@contextlib.asynccontextmanager
async def serve(
    spec: ExperimentSpec,
    clock: WallClock,
    deployment: Deployment,
    transports: Dict[int, AsyncTcpTransport],
    book: Optional[AddressBook] = None,
    geo: Optional[GeoLatencyModel] = None,
):
    """Phase 2: put the hosted nodes on the network, wait for everyone else's, start.

    Binds the hosted transports, installs the address book (*book*, or the
    ports just bound when every node is hosted here) and the per-link delays
    *geo* derives, and starts one scrape server per hosted replica.  When the
    book names endpoints hosted elsewhere, the trace shard gets this
    process's identity, the transports record wire events for the
    cross-process merge, and a barrier waits until every such endpoint
    accepts — without it the first proposals of the run die in connect-retry
    loops and the cluster opens with view changes.  Then the clock restarts
    and the hosted nodes :func:`~repro.experiments.runner.start`.

    Yields the scrape servers; leaving the context closes them and every
    transport, whatever happened inside.
    """
    cluster = LiveCluster(clock, [LiveNode(node_id, t) for node_id, t in transports.items()])
    scrape_servers: List = []
    tracer = deployment.tracer
    try:
        peers = await cluster.start()
        if book is not None:
            peers = book
            for transport in transports.values():
                transport.set_peers(book)
        if geo is not None:
            for node_id, transport in transports.items():
                transport.set_link_delays(geo.link_delays(node_id, peers))
        if spec.scrape_port is not None:
            from repro.obs.scrape import ReplicaTelemetry, ScrapeServer

            for replica_id in sorted(set(transports) - {CLIENT_POOL_NODE_ID}):
                telemetry = ReplicaTelemetry(
                    replica_id,
                    # Chaos restarts swap the instance in place; resolve on
                    # every probe so the endpoint tracks the current one.
                    lambda replica_id=replica_id: next(
                        (r for r in deployment.replicas if r.replica_id == replica_id), None
                    ),
                    clock,
                    tracer=tracer,
                    transport=transports[replica_id],
                    mempool=deployment.mempool_for(replica_id),
                )
                port = 0 if spec.scrape_port == 0 else spec.scrape_port + replica_id
                scrape_servers.append(ScrapeServer(telemetry.routes(), port=port))
                await scrape_servers[-1].start()
        remote = [address for node_id, address in peers.items() if node_id not in transports]
        if remote and tracer is not None:
            # This shard's timestamps are on this process's clock; the merge
            # needs to know whose (the client pool's when it is hosted here:
            # its shard is the reference timeline).  With no client pool to
            # open spans at submission they open at mempool admission.
            tracer.node_id = min(transports)
            if CLIENT_POOL_NODE_ID not in transports:
                tracer.span_origin = "mempool"
            for transport in transports.values():
                transport.set_tracer(tracer)
        await _wait_for_endpoints(remote)
        # Building the deployment (workload zeta tables, threshold keys,
        # replica stacks) and waiting at the barrier cost real time on the
        # clock that also times the run; restart it so the measured window —
        # and every fault-plan timestamp — begins when the protocol starts.
        clock.reset_origin()
        start(deployment)
        yield scrape_servers
    finally:
        for server in scrape_servers:
            await server.close()
        await cluster.close()


async def poll(
    clock: WallClock,
    deployment: Deployment,
    until: float,
    target_ops: Optional[int] = None,
    alive: Optional[Callable[[], bool]] = None,
) -> float:
    """Phase 3: tick until *until*, *target_ops* completions or ``alive()`` turning false.

    Returns the elapsed clock time.  The collector keeps an exact post-warmup
    completion counter, so a tick reads one int instead of scanning the
    sample list on the loop that is also running consensus.
    """
    tracer, metrics = deployment.tracer, deployment.metrics
    while clock.now < until and (alive is None or alive()):
        await asyncio.sleep(POLL_INTERVAL)
        if tracer is not None:
            # Close timeline buckets on wall time so the SLO detector fires
            # during a stall and the streaming sink keeps flushing even when
            # no event would advance the bucket cursor.
            tracer.advance(clock.now)
        if target_ops is not None and metrics.completed_count >= target_ops:
            break
    return clock.now


def close(
    deployment: Deployment, transports: Dict[int, AsyncTcpTransport], elapsed: float
) -> Dict:
    """Phase 4: end the measured window and snapshot the traffic counters.

    The window closes first — completions recorded while the teardown drains
    would otherwise inflate throughput past the window that was timed — and
    the counters are read before any transport closes: teardown traffic does
    not belong in the report (replica timers keep firing, post-close sends
    count as drops) and closing destroys the per-peer connection state the
    reconnect counts live on.
    """
    deployment.metrics.close_window(elapsed)
    if deployment.client_pool is not None:
        deployment.client_pool.stop()
    stats = NetworkStats()
    wire: Dict = {"batch_writes": 0, "batched_frames": 0, "reconnects": {}}
    for transport in transports.values():
        stats.merge(transport.stats)
        counters = transport.wire_counters()
        wire["batch_writes"] += counters["batch_writes"]
        wire["batched_frames"] += counters["batched_frames"]
        for peer_id, count in counters["reconnects"].items():
            if count:
                wire["reconnects"][peer_id] = wire["reconnects"].get(peer_id, 0) + count
    return {**stats.as_dict(), **wire}


def delivery_errors(transports: Dict[int, AsyncTcpTransport]) -> Dict[int, List[BaseException]]:
    """What each hosted node's handlers raised, keyed by node id (for ``verify``)."""
    return {node_id: transport.delivery_errors for node_id, transport in transports.items()}


def run_live_experiment(
    spec: ExperimentSpec,
    target_ops: Optional[int] = None,
    rate: Optional[float] = None,
    on_started: Optional[Callable[[Dict], None]] = None,
    max_outstanding: Optional[int] = None,
) -> RunResult:
    """Run one live experiment over localhost TCP and return its result.

    Parameters
    ----------
    spec:
        The same declarative spec the simulator takes.  ``spec.duration`` is
        the wall-clock measurement cap in seconds.
    target_ops:
        Stop early once this many client operations have completed (after the
        warmup has elapsed); ``None`` runs the full duration.
    rate:
        Open-loop injection rate in transactions per second; ``None`` uses
        the closed-loop client population sized exactly as in simulation.
    on_started:
        Called once the cluster is serving, with ``{"scrape_ports": [...]}``
        (bound ports per replica when ``spec.scrape_port`` is set).  This is
        how the CLI prints the endpoints and how tests learn ephemeral ports
        while the run is still in flight.
    max_outstanding:
        Open-loop client-side admission cap: injection ticks never push the
        outstanding request set past this.  ``None`` leaves injection
        unbounded (rate-limited only).
    """
    spec.validate()
    # The codec is process-global (the transports call it from timer
    # callbacks); scope it to the run so back-to-back experiments with
    # different codecs in one process never leak into each other.
    with wire_codec_scope(spec.codec):
        return asyncio.run(_run_live(spec, target_ops, rate, on_started, max_outstanding))


async def _run_live(spec, target_ops, rate, on_started, max_outstanding) -> RunResult:
    """Full placement in one process: every replica plus the client pool."""
    from repro.faults.live import LiveChaosAdapter  # local import: avoids cycle

    clock = WallClock(seed=spec.seed)
    hosted = [*range(spec.n), CLIENT_POOL_NODE_ID]
    transports = open_transports(clock, hosted)
    deployment = prepare(
        spec,
        clock,
        transports.__getitem__,
        hosted,
        chaos_adapter=functools.partial(LiveChaosAdapter, clock, transports),
        client_class=LiveLoadGenerator,
        rate=rate,
        max_outstanding=max_outstanding,
    )
    geo = latency_model_for(spec) if spec.regions else None
    async with serve(spec, clock, deployment, transports, geo=geo) as scrape_servers:
        if on_started is not None:
            on_started({"scrape_ports": [server.port for server in scrape_servers]})
        elapsed = await poll(clock, deployment, spec.duration, target_ops)
        network_stats = close(deployment, transports, elapsed)
    verify(spec, delivery_errors(transports), honest_committed_chains(deployment.replicas))
    return report(spec, deployment, network_stats, elapsed)
