"""Multi-process live deployments: replica processes plus a coordinator.

One live cluster, many OS processes.  Each replica runs in its own process
(``repro replica``), owning one :class:`~repro.live.transport.AsyncTcpTransport`
bound at the endpoint a shared :class:`~repro.live.config.DeploymentConfig`
assigns it; the coordinator (:func:`run_multiprocess_experiment`) launches the
replica processes, hosts the client pool at the config's client endpoint, and
collects per-process results when the run ends.

Two design points keep the processes consistent without any shared memory:

* **Deterministic construction.**  Every process builds the *full* deployment
  from the same validated spec — the seeded threshold scheme, workload tables
  and protocol config come out identical everywhere — then starts only its
  own replica.  Foreign replica objects are built against a
  :class:`_NullTransport` stub and never started; they exist purely so
  construction consumes the seeded RNG streams identically in every process.
* **One client process.**  The coordinator owns all clients, so transaction
  ids (one global counter per process) stay globally unique — the invariant
  the distributed mempool's dedup machinery rests on.  A multi-process spec
  therefore *requires* ``distributed_mempool``: there is no address space for
  a shared pool to live in.

Fault plans and crash points are rejected: the in-process chaos adapters
reach into replica objects the coordinator does not host.  (Killing the OS
processes themselves is the multi-process fault story — a follow-on.)
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.consensus.client import CLIENT_POOL_NODE_ID
from repro.consensus.replica import chains_prefix_consistent
from repro.core.registry import client_quorum_for
from repro.errors import ConfigurationError, ConsensusError
from repro.experiments.runner import (
    ExperimentSpec,
    RunResult,
    build_deployment,
    build_replica_stores,
    default_num_clients,
)
from repro.live.codec import wire_codec_scope
from repro.live.config import DeploymentConfig
from repro.live.deploy import LiveLoadGenerator
from repro.live.runtime import WallClock
from repro.live.transport import AsyncTcpTransport
from repro.net.network import NetworkStats

#: How long process startup waits for every peer endpoint to accept (seconds).
READY_TIMEOUT = 20.0
#: Safety margin a replica process keeps running past ``spec.duration`` while
#: waiting for the coordinator's SIGTERM before shutting itself down.
WATCHDOG_MARGIN = 30.0


# --------------------------------------------------------------------- specs
def validate_multiprocess_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """Reject spec knobs that cannot work across process boundaries."""
    spec.validate()
    if spec.mode != "live":
        raise ConfigurationError("multi-process deployments require mode='live'")
    if not spec.distributed_mempool:
        raise ConfigurationError(
            "multi-process deployments require distributed_mempool=True: "
            "separate address spaces cannot share one in-process pool"
        )
    if spec.faults is not None or spec.crash_points is not None:
        raise ConfigurationError(
            "fault plans and crash points are single-process (the chaos "
            "adapters reach into replica objects the coordinator does not "
            "host); run chaos in-process or kill the OS processes directly"
        )
    if spec.scrape_port == 0:
        raise ConfigurationError(
            "multi-process runs need a concrete scrape_port (the coordinator "
            "cannot discover ephemeral ports bound in other processes)"
        )
    return spec


# ------------------------------------------------------------- null endpoint
class _NullTransport:
    """Endpoint stub for replica objects that live in *other* processes.

    Construction-only: the foreign replicas register here and are never
    started, so nothing should ever be sent.  Sends that do happen (a bug)
    are counted as drops rather than crossing process boundaries twice.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = int(node_id)
        self.stats = NetworkStats()
        self.delivery_errors: List[BaseException] = []

    def register(self, node) -> None:
        pass

    def unregister(self, node_id: int) -> None:
        pass

    def send(self, sender, receiver, payload, size_bytes=None):
        self.stats.messages_dropped += 1
        return None

    def broadcast(self, sender, payload, receivers=None, include_self=True, size_bytes=None):
        self.stats.messages_dropped += 1
        return 0


async def _wait_for_endpoints(
    endpoints: List[Tuple[str, int]], timeout: float = READY_TIMEOUT
) -> None:
    """Poll TCP-connect each endpoint until it accepts (readiness barrier)."""
    deadline = time.monotonic() + timeout
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
                        f"endpoint {host}:{port} did not come up within {timeout}s"
                    )
                await asyncio.sleep(0.05)


# ----------------------------------------------------------- replica process
def run_replica_process(
    spec_path: str, deployment_path: str, replica_id: int, result_path: str
) -> int:
    """Entry point for ``repro replica``: serve one replica until SIGTERM.

    Loads the shared spec + deployment documents, binds this replica's
    endpoint, waits for every peer to accept, runs the replica until the
    coordinator's SIGTERM (or a duration watchdog), and writes a result JSON
    the coordinator folds into the cross-process consistency check.
    """
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = ExperimentSpec.from_dict(json.load(handle))
    validate_multiprocess_spec(spec)
    config = DeploymentConfig.load(deployment_path).validate(n=spec.n)
    if spec.storage_dir:
        # Private per-child subtree: build_replica_stores clears the
        # directory it is handed, so sharing one root across processes would
        # clobber the peers' WALs.
        spec.storage_dir = os.path.join(spec.storage_dir, f"r{replica_id}")
    # Each child streams its own trace shard into the coordinator's scratch
    # dir (next to the result file it was told to write); the coordinator
    # collects the shards at shutdown and `repro trace merge` rebases them
    # onto one timeline.
    if spec.trace:
        spec.trace_stream = os.path.join(
            os.path.dirname(os.path.abspath(result_path)), f"trace-r{replica_id}.jsonl"
        )
    else:
        spec.trace_stream = None
    with wire_codec_scope(spec.codec):
        asyncio.run(_run_replica(spec, config, replica_id, result_path))
    return 0


async def _run_replica(
    spec: ExperimentSpec, config: DeploymentConfig, replica_id: int, result_path: str
) -> None:
    endpoint = config.endpoint_for(replica_id)
    clock = WallClock(seed=spec.seed)
    transport = AsyncTcpTransport(
        replica_id, clock, host=endpoint.host, port=endpoint.port
    )
    await transport.start()
    transport.set_peers(config.address_book())
    delays = config.link_delays_for(replica_id)
    if delays is not None:
        transport.set_link_delays(delays)

    def network_for(other_id: int):
        return transport if other_id == replica_id else _NullTransport(other_id)

    durable = bool(spec.storage_dir) or spec.checkpoint_interval is not None
    stores = build_replica_stores(spec) if durable else None
    deployment = build_deployment(
        spec,
        clock,
        network_for,
        store_for=stores.__getitem__ if stores is not None else None,
    )
    replica = deployment.replicas[replica_id]
    # Counters are per-process here; this replica is the only live one.
    for other in deployment.replicas:
        other.report_metrics = other is replica

    tracer = deployment.tracer
    if tracer is not None:
        # This shard's timestamps are on this process's clock; the merge
        # needs to know whose.  Spans open at mempool admission because no
        # client pool lives here to open them at submission.
        tracer.node_id = replica_id
        tracer.span_origin = "mempool"
        transport.set_tracer(tracer)

    scrape_server = None
    if spec.scrape_port is not None:
        from repro.obs.scrape import ReplicaTelemetry, ScrapeServer

        telemetry = ReplicaTelemetry(
            replica_id,
            lambda: replica,
            clock,
            transport=transport,
            mempool=deployment.mempool_for(replica_id),
        )
        scrape_server = ScrapeServer(
            telemetry.routes(), port=spec.scrape_port + replica_id
        )
        await scrape_server.start()

    # Barrier: every peer (and the coordinator's client endpoint) must be
    # accepting before consensus starts, or the first proposals of the run
    # die in connect-retry loops and the cluster opens with view changes.
    peers = [
        (host, port)
        for node_id, (host, port) in config.address_book().items()
        if node_id != replica_id
    ]
    await _wait_for_endpoints(peers)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)

    clock.reset_origin()
    replica.start()
    try:
        # Poll instead of a single wait: the tracer's bucket cursor (and the
        # streaming sink behind it) must advance in real time, exactly like
        # the single-process live loop.
        deadline = spec.duration + WATCHDOG_MARGIN
        while not stop.is_set() and clock.now < deadline:
            try:
                await asyncio.wait_for(stop.wait(), timeout=0.1)
            except asyncio.TimeoutError:
                pass  # tick; coordinator death is covered by the deadline
            if tracer is not None:
                tracer.advance(clock.now)
    finally:
        # Finalize (and flush) the trace shard before the result file lands:
        # the coordinator treats an existing result as "this child's shard is
        # complete".
        if tracer is not None:
            tracer.finalize(clock.now)
        pool = deployment.mempool_for(replica_id)
        committed_blocks = list(replica.ledger.committed.blocks())
        result = {
            "replica_id": replica_id,
            "trace_shard": spec.trace_stream,
            "committed_hashes": replica.ledger.committed.hashes(),
            "committed_txn_ids": [
                txn.txn_id for block in committed_blocks for txn in block.transactions
            ],
            "counters": {
                "view": replica.current_view,
                "height": len(replica.ledger.committed),
                "mempool_depth": pool.peek_count(),
                "mempool_inflight": pool.inflight_count(),
                "admission_rejected": pool.admission_rejected,
                "snapshots_declined_oversize": replica.snapshots_declined_oversize,
                "messages_sent": transport.stats.messages_sent,
                "delivery_errors": len(transport.delivery_errors),
            },
            # A handler exception in this process would otherwise pass
            # silently: the coordinator fails the run on it, like the
            # in-process path does.
            "first_delivery_error": (
                repr(transport.delivery_errors[0]) if transport.delivery_errors else None
            ),
        }
        tmp_path = result_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        os.replace(tmp_path, result_path)  # atomic: coordinator never reads a torn file
        if scrape_server is not None:
            await scrape_server.close()
        await transport.close()
        await transport.drain_readers()


# ------------------------------------------------------------- coordinator
def run_multiprocess_experiment(
    spec: ExperimentSpec,
    config: Optional[DeploymentConfig] = None,
    target_ops: Optional[int] = None,
    rate: Optional[float] = None,
    max_outstanding: Optional[int] = None,
) -> RunResult:
    """Run one experiment as a multi-process cluster and return its result.

    Spawns ``spec.n`` replica processes per *config* (a localhost config with
    free ports is generated when ``None``), hosts the client pool in this
    process, stops the children with SIGTERM when the measurement window
    closes, and verifies the children committed prefix-consistent chains with
    no transaction committed twice.  The returned :class:`RunResult` carries
    client-observed metrics plus a ``multiproc`` section with the
    per-process chains and counters.
    """
    validate_multiprocess_spec(spec)
    if config is None:
        config = DeploymentConfig.local(
            spec.n, regions=spec.regions, client_region=spec.client_region
        )
    config.validate(n=spec.n)
    with wire_codec_scope(spec.codec):
        return asyncio.run(
            _run_coordinator(
                spec,
                config,
                target_ops=target_ops,
                rate=rate,
                max_outstanding=max_outstanding,
            )
        )


async def _run_coordinator(
    spec: ExperimentSpec,
    config: DeploymentConfig,
    target_ops: Optional[int],
    rate: Optional[float],
    max_outstanding: Optional[int],
) -> RunResult:
    from repro.live.deploy import POLL_INTERVAL

    workdir = tempfile.mkdtemp(prefix="repro-multiproc-")
    spec_path = os.path.join(workdir, "spec.json")
    deployment_path = os.path.join(workdir, "deployment.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec.to_dict(), handle)
    if spec.scrape_port is not None:
        # Carried in the deployment document so `repro watch --deployment`
        # can derive every replica's scrape endpoint from the file alone.
        config.notes.setdefault("scrape_port", spec.scrape_port)
    config.dump(deployment_path)

    clock = WallClock(seed=spec.seed)
    client_transport = AsyncTcpTransport(
        CLIENT_POOL_NODE_ID, clock, host=config.client_host, port=config.client_port
    )
    await client_transport.start()
    client_transport.set_peers(config.address_book())
    delays = config.link_delays_for(CLIENT_POOL_NODE_ID)
    if delays is not None:
        client_transport.set_link_delays(delays)

    # The coordinator builds the same deterministic deployment the children
    # do — not to run replicas, but for the config / workload / quorum rules
    # the client pool needs.
    deployment = build_deployment(
        spec, clock, lambda replica_id: _NullTransport(replica_id)
    )
    metrics = deployment.metrics
    tracer = deployment.tracer
    client_shard_path: Optional[str] = None
    if tracer is not None:
        # The coordinator's shard holds the client vantage point (submitted /
        # responded spans plus the client side of every wire edge); it is the
        # merge's reference timeline, so its clock needs no correction.
        tracer.node_id = CLIENT_POOL_NODE_ID
        client_transport.set_tracer(tracer)
        client_shard_path = spec.trace_stream or os.path.join(
            workdir, "trace-client.jsonl"
        )
        if tracer.sink is None:
            from repro.obs.stream import StreamingTraceSink

            StreamingTraceSink(tracer, client_shard_path)

    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(package_root)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    children: List[subprocess.Popen] = []
    result_paths: Dict[int, str] = {}
    replica_deaths: Dict[int, int] = {}
    try:
        for endpoint in config.replicas:
            result_paths[endpoint.replica_id] = os.path.join(
                workdir, f"replica-{endpoint.replica_id}.json"
            )
            children.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "replica",
                        "--spec",
                        spec_path,
                        "--deployment",
                        deployment_path,
                        "--replica-id",
                        str(endpoint.replica_id),
                        "--result",
                        result_paths[endpoint.replica_id],
                    ],
                    env=env,
                )
            )
        await _wait_for_endpoints(
            [(e.host, e.port) for e in config.replicas]
        )

        client_pool = LiveLoadGenerator(
            sim=clock,
            network=client_transport,
            workload=deployment.workload,
            config=deployment.config,
            metrics=metrics,
            num_clients=spec.num_clients
            or default_num_clients(spec, deployment.replica_class),
            required_quorum=client_quorum_for(spec.protocol, deployment.config),
            rate=rate,
            max_outstanding=max_outstanding,
            broadcast_requests=True,
        )
        client_pool.tracer = tracer
        clock.reset_origin()
        client_pool.start()
        while clock.now < spec.duration:
            await asyncio.sleep(POLL_INTERVAL)
            if tracer is not None:
                tracer.advance(clock.now)
            if target_ops is not None and metrics.completed_count >= target_ops:
                break
            dead = [
                (endpoint.replica_id, child)
                for endpoint, child in zip(config.replicas, children)
                if child.poll() not in (None, 0)
            ]
            if dead:
                for rid, child in dead:
                    replica_deaths[rid] = child.returncode
                    if tracer is not None:
                        tracer.instant(
                            "replica-died",
                            label=f"replica {rid} exited with code {child.returncode}",
                            replica=rid,
                            data={"exit_code": child.returncode},
                        )
                raise ConsensusError(
                    f"replica process exited with code {dead[0][1].returncode} mid-run"
                )
        elapsed = clock.now
        metrics.close_window(elapsed)
        client_pool.stop()
        stats = client_transport.stats
    finally:
        for child in children:
            if child.poll() is None:
                child.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 15.0
        for child in children:
            try:
                child.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        # Finalize after the children exited so the client shard's closing
        # records (including any replica-died instants) reach disk even when
        # the run is aborting on an error.
        if tracer is not None:
            tracer.finalize(clock.now)
        await client_transport.close()
        await client_transport.drain_readers()

    failed = [child.returncode for child in children if child.returncode != 0]
    if failed:
        raise ConsensusError(f"replica process exit codes: {failed}")

    results: Dict[int, Dict[str, Any]] = {}
    for replica_id, path in result_paths.items():
        try:
            with open(path, "r", encoding="utf-8") as handle:
                results[replica_id] = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConsensusError(
                f"replica {replica_id} wrote no readable result: {exc}"
            ) from exc

    for rid in sorted(results):
        error = results[rid].get("first_delivery_error")
        if error is not None:
            count = results[rid]["counters"]["delivery_errors"]
            raise ConsensusError(
                f"replica {rid} hit {count} delivery error(s) in its process; first: {error}"
            )

    chains = [results[rid]["committed_hashes"] for rid in sorted(results)]
    prefix_ok = chains_prefix_consistent(chains)
    duplicate_commits: Dict[int, int] = {}
    for rid in sorted(results):
        ids = results[rid]["committed_txn_ids"]
        if len(ids) != len(set(ids)):
            seen: set = set()
            duplicate_commits[rid] = sum(
                1 for txn_id in ids if txn_id in seen or seen.add(txn_id)
            )
    if spec.check_safety and not prefix_ok:
        raise ConsensusError(
            "multi-process replicas committed divergent prefixes"
        )
    if spec.check_safety and duplicate_commits:
        raise ConsensusError(
            f"transactions committed more than once: {duplicate_commits}"
        )

    trace_shards: Optional[Dict[str, str]] = None
    if tracer is not None:
        trace_shards = {"client": client_shard_path}
        for rid in sorted(results):
            shard = results[rid].get("trace_shard") or os.path.join(
                workdir, f"trace-r{rid}.jsonl"
            )
            if os.path.exists(shard):
                trace_shards[f"r{rid}"] = shard

    summary = metrics.summarize(spec.protocol, elapsed)
    return RunResult(
        spec=spec,
        summary=summary,
        replicas=[],
        client_pool=client_pool,
        network_stats=stats.as_dict(),
        trace=tracer,
        multiproc={
            "deployment": config.to_dict(),
            "prefix_consistent": prefix_ok,
            "duplicate_commits": duplicate_commits,
            "replica_deaths": replica_deaths,
            "trace_shards": trace_shards,
            "workdir": workdir,
            "committed_heights": {
                rid: len(results[rid]["committed_hashes"]) for rid in sorted(results)
            },
            "counters": {rid: results[rid]["counters"] for rid in sorted(results)},
        },
    )
