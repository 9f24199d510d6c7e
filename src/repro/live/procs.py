"""Multi-process live deployments: replica processes plus a coordinator.

One live cluster, many OS processes.  Each replica runs in its own process
(``repro replica``), owning one :class:`~repro.live.transport.AsyncTcpTransport`
bound at the endpoint a shared :class:`~repro.live.config.DeploymentConfig`
assigns it; the coordinator (:func:`run_multiprocess_experiment`) launches the
replica processes, hosts the client pool at the config's client endpoint, and
collects per-process results when the run ends.

Both drivers run the same phases as an in-process cluster
(:mod:`repro.live.deploy`) with a smaller placement: a child hosts ``{r}``,
the coordinator ``{client}``.  Two design points keep the processes
consistent without any shared memory:

* **Derived, not shared, configuration.**  Every process builds protocol
  config, threshold keys and workload tables from the same validated spec and
  seed, and only the replica stacks (and stores) of the node ids it hosts.
* **One client process.**  The coordinator owns all clients, so transaction
  ids (one global counter per process) stay globally unique — the invariant
  the distributed mempool's dedup machinery rests on.  A multi-process spec
  therefore *requires* ``distributed_mempool``: there is no address space for
  a shared pool to live in.

Fault plans — time-keyed events and crash points alike — are rejected: the
chaos controller reaches into replica objects the coordinator does not host.
(Killing the OS processes themselves is the multi-process fault story — a
follow-on.)
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro.consensus.client import CLIENT_POOL_NODE_ID
from repro.errors import ConfigurationError, ConsensusError
from repro.experiments.runner import (
    ExperimentSpec,
    RunResult,
    prepare,
    report,
    run_scope,
    verify,
)
from repro.live.config import DeploymentConfig
from repro.live.deploy import (
    LiveLoadGenerator,
    close,
    delivery_errors,
    open_transports,
    poll,
    serve,
)
from repro.live.runtime import WallClock

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
    if spec.faults is not None:
        raise ConfigurationError(
            "fault plans are single-process (the chaos controller reaches "
            "into replica objects the coordinator does not host); run chaos "
            "in-process or kill the OS processes directly"
        )
    if spec.scrape_port == 0:
        raise ConfigurationError(
            "multi-process runs need a concrete scrape_port (the coordinator "
            "cannot discover ephemeral ports bound in other processes)"
        )
    return spec


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
        # Private per-child subtree: a replica's store clears the directory
        # it is handed, so the children of one run never share a root.
        spec.storage_dir = os.path.join(spec.storage_dir, f"r{replica_id}")
    # Each child streams its own trace shard into the coordinator's scratch
    # dir (next to the result file it was told to write); the coordinator
    # collects the shards at shutdown and `repro trace merge` rebases them
    # onto one timeline.
    spec.trace_stream = None
    if spec.trace:
        spec.trace_stream = os.path.join(
            os.path.dirname(os.path.abspath(result_path)), f"trace-r{replica_id}.jsonl"
        )
    with run_scope(spec):
        asyncio.run(_run_replica(spec, config, replica_id, result_path))
    return 0


async def _run_replica(
    spec: ExperimentSpec, config: DeploymentConfig, replica_id: int, result_path: str
) -> None:
    """Placement ``{replica_id}``: run until the stop signal, then write the result file."""
    clock = WallClock(seed=spec.seed)
    book = config.address_book()
    transports = open_transports(clock, [replica_id], book)
    deployment = prepare(spec, clock, transports.__getitem__, [replica_id])
    stop = asyncio.Event()
    async with serve(spec, clock, deployment, transports, book, config.geo_model()):
        # From here on a signal stops the run cleanly; one that arrives while
        # still waiting at the barrier kills the process outright.
        for signum in (signal.SIGTERM, signal.SIGINT):
            asyncio.get_running_loop().add_signal_handler(signum, stop.set)
        # Coordinator death is covered by the deadline.
        deadline = spec.duration + WATCHDOG_MARGIN
        elapsed = await poll(clock, deployment, deadline, alive=lambda: not stop.is_set())
        network_stats = close(deployment, transports, elapsed)
    # report() finalizes (and flushes) the trace shard before the result file
    # lands: the coordinator treats an existing result as "this child's shard
    # is complete".
    replica = report(spec, deployment, network_stats, elapsed).replicas[0]
    pool = deployment.mempool_for(replica_id)
    errors = transports[replica_id].delivery_errors
    result = {
        "replica_id": replica_id,
        "trace_shard": spec.trace_stream,
        "committed_hashes": replica.ledger.committed.hashes(),
        "committed_txn_ids": [
            txn.txn_id
            for block in replica.ledger.committed.blocks()
            for txn in block.transactions
        ],
        "counters": {
            "view": replica.current_view,
            "height": len(replica.ledger.committed),
            "mempool_depth": pool.peek_count(),
            "mempool_inflight": pool.inflight_count(),
            "admission_rejected": pool.admission_rejected,
            "snapshots_declined_oversize": replica.snapshots_declined_oversize,
            "messages_sent": network_stats["messages_sent"],
            "delivery_errors": len(errors),
        },
        # A handler exception in this process would otherwise pass silently:
        # the coordinator's verify step fails the run on it.
        "first_delivery_error": repr(errors[0]) if errors else None,
    }
    tmp_path = result_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(tmp_path, result_path)  # atomic: coordinator never reads a torn file


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
    per-process chains and counters.  The scratch directory holding the
    hand-off documents and result files is removed unless the run was traced
    (its trace shards live there); ``multiproc["workdir"]`` is then ``None``.
    """
    validate_multiprocess_spec(spec)
    if config is None:
        config = DeploymentConfig.local(
            spec.n, regions=spec.regions, client_region=spec.client_region
        )
    config.validate(n=spec.n)
    workdir = tempfile.mkdtemp(prefix="repro-multiproc-")
    try:
        with run_scope(spec):
            return asyncio.run(
                _run_coordinator(spec, config, workdir, target_ops, rate, max_outstanding)
            )
    finally:
        if not spec.trace:
            shutil.rmtree(workdir, ignore_errors=True)


def _launch_replicas(spec: ExperimentSpec, config: DeploymentConfig, workdir: str):
    """Write the hand-off documents and start one ``repro replica`` process per endpoint."""
    spec_path = os.path.join(workdir, "spec.json")
    deployment_path = os.path.join(workdir, "deployment.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec.to_dict(), handle)
    if spec.scrape_port is not None:
        # Carried in the deployment document so `repro watch --deployment`
        # can derive every replica's scrape endpoint from the file alone.
        config.notes.setdefault("scrape_port", spec.scrape_port)
    config.dump(deployment_path)
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(package_root)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    children: Dict[int, subprocess.Popen] = {}
    result_paths: Dict[int, str] = {}
    try:
        for endpoint in config.replicas:
            rid = endpoint.replica_id
            result_paths[rid] = os.path.join(workdir, f"replica-{rid}.json")
            children[rid] = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "replica",
                    "--spec", spec_path,
                    "--deployment", deployment_path,
                    "--replica-id", str(rid),
                    "--result", result_paths[rid],
                ],
                env=env,
            )
    except BaseException:
        _reap(children)
        raise
    return children, result_paths


def _reap(children: Dict[int, subprocess.Popen]) -> None:
    """SIGTERM every child still running and wait (kill after 15 s)."""
    for child in children.values():
        if child.poll() is None:
            child.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + 15.0
    for child in children.values():
        try:
            child.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()


def _read_results(result_paths: Dict[int, str]) -> Dict[int, Dict[str, Any]]:
    results: Dict[int, Dict[str, Any]] = {}
    for replica_id, path in sorted(result_paths.items()):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                results[replica_id] = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConsensusError(
                f"replica {replica_id} wrote no readable result: {exc}"
            ) from exc
    return results


def verify_results(
    spec: ExperimentSpec, results: Dict[int, Dict[str, Any]], own_errors: Dict[int, List]
) -> Dict[str, Any]:
    """The cross-process half of *verify*: child result documents plus this process's errors.

    Feeds :func:`~repro.experiments.runner.verify` the children's reported
    handler errors and committed hash chains alongside *own_errors* (the
    coordinator's hosted transports), then checks what only the result files
    can show — no transaction committed twice on any replica.
    """
    errors = dict(own_errors)
    for rid, result in results.items():
        errors[rid] = [result.get("first_delivery_error")] * result["counters"]["delivery_errors"]
    prefix_ok = verify(spec, errors, [results[rid]["committed_hashes"] for rid in results])
    duplicate_commits: Dict[int, int] = {}
    for rid, result in results.items():
        ids = result["committed_txn_ids"]
        if len(ids) != len(set(ids)):
            duplicate_commits[rid] = len(ids) - len(set(ids))
    if spec.check_safety and duplicate_commits:
        raise ConsensusError(f"transactions committed more than once: {duplicate_commits}")
    return {"prefix_consistent": prefix_ok, "duplicate_commits": duplicate_commits}


async def _run_coordinator(
    spec: ExperimentSpec,
    config: DeploymentConfig,
    workdir: str,
    target_ops: Optional[int],
    rate: Optional[float],
    max_outstanding: Optional[int],
) -> RunResult:
    """Placement ``{client}``: launch the replica processes, drive load, fold their results."""
    clock = WallClock(seed=spec.seed)
    book = config.address_book()
    transports = open_transports(clock, [CLIENT_POOL_NODE_ID], book)
    deployment = prepare(
        spec, clock, transports.__getitem__, [CLIENT_POOL_NODE_ID],
        client_class=LiveLoadGenerator, latency=config.geo_model(),
        rate=rate, max_outstanding=max_outstanding,
    )
    tracer = deployment.tracer
    trace_shards: Optional[Dict[str, str]] = None
    if tracer is not None:
        # The coordinator's shard holds the client vantage point (submitted /
        # responded spans plus the client side of every wire edge); it is the
        # merge's reference timeline, so its clock needs no correction.
        trace_shards = {"client": spec.trace_stream or os.path.join(workdir, "trace-client.jsonl")}
        if tracer.sink is None:
            from repro.obs.stream import StreamingTraceSink

            StreamingTraceSink(tracer, trace_shards["client"])

    replica_deaths: Dict[int, int] = {}

    def children_alive() -> bool:
        for rid, child in children.items():
            if child.poll() not in (None, 0):
                replica_deaths[rid] = child.returncode
                if tracer is not None:
                    tracer.instant(
                        "replica-died",
                        label=f"replica {rid} exited with code {child.returncode}",
                        replica=rid,
                        data={"exit_code": child.returncode},
                    )
        return not replica_deaths

    children, result_paths = _launch_replicas(spec, config, workdir)
    try:
        async with serve(spec, clock, deployment, transports, book, config.geo_model()):
            elapsed = await poll(clock, deployment, spec.duration, target_ops, children_alive)
            network_stats = close(deployment, transports, elapsed)
            # The replicas stop before the endpoint they answer to goes away.
            _reap(children)
    finally:
        _reap(children)  # error paths; a no-op once they exited
        # Finalize after the children exited so the client shard's closing
        # records (including any replica-died instants) reach disk even when
        # the run is aborting on an error.
        if tracer is not None:
            tracer.finalize(clock.now)
    failed = {rid: child.returncode for rid, child in children.items() if child.returncode}
    if failed:
        raise ConsensusError(
            f"replica processes failed, exit codes {failed} (died mid-run: {sorted(replica_deaths)})"
        )

    results = _read_results(result_paths)
    verdict = verify_results(spec, results, delivery_errors(transports))
    if trace_shards is not None:
        for rid, result in results.items():
            shard = result.get("trace_shard") or os.path.join(workdir, f"trace-r{rid}.jsonl")
            if os.path.exists(shard):
                trace_shards[f"r{rid}"] = shard
    return report(
        spec,
        deployment,
        network_stats,
        elapsed,
        multiproc={
            "deployment": config.to_dict(),
            **verdict,
            "replica_deaths": replica_deaths,
            "trace_shards": trace_shards,
            "workdir": workdir if spec.trace else None,
            "committed_heights": {
                rid: len(result["committed_hashes"]) for rid, result in results.items()
            },
            "counters": {rid: result["counters"] for rid, result in results.items()},
        },
    )
