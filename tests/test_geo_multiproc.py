"""Multi-host geo deployment: config, link shaping, distributed mempool, procs.

Covers the deployment layer the multi-process runtime is built from:

* :class:`DeploymentConfig` round-trips, validates endpoints, and derives the
  same per-link one-way delays as the simulator's geo tables;
* transport-level delay shaping actually delays frames (virginia↔hongkong
  p50 one-way ≥ 106 ms, straight from ``REGION_RTT_MS``);
* the distributed mempool never lets a transaction commit twice, even when a
  replica crashes, rejoins, and re-receives broadcast requests;
* a real 4-replica multi-process run commits a consistent prefix with no
  duplicates, matching the in-process runtime's guarantees;
* hotstuff-1's speculation lead stays positive under WAN delays (the geo
  ordering asserted by the CI geo-smoke job).
"""

from __future__ import annotations

import asyncio
import json
import statistics
import tempfile

import pytest

from repro.consensus.client import CLIENT_POOL_NODE_ID
from repro.consensus.messages import FetchRequest
from repro.errors import ConfigurationError, ConsensusError
from repro.experiments.runner import ExperimentSpec, latency_model_for, run_experiment
from repro.live.config import CLIENT_NODE_ID, DeploymentConfig, ReplicaEndpoint
from repro.live.deploy import run_live_experiment
from repro.live.procs import run_multiprocess_experiment, validate_multiprocess_spec
from repro.live.runtime import LiveCluster, LiveNode, WallClock
from repro.live.transport import AsyncTcpTransport
from repro.net.latency import REGION_RTT_MS

#: Geo ordering where consecutive rotating leaders sit far apart while the
#: client stays in central virginia — the placement under which hotstuff-1's
#: speculative responses beat replica-side commits (see TestGeoSpeculationLead).
GEO_ORDER = ["virginia", "london", "hongkong", "saopaulo", "zurich"]


class TestDeploymentConfig:
    def _config(self, regions=None):
        return DeploymentConfig(
            replicas=[
                ReplicaEndpoint(i, "127.0.0.1", 7000 + i,
                                region=regions[i] if regions else None)
                for i in range(4)
            ],
            client_host="127.0.0.1",
            client_port=7100,
            client_region="virginia" if regions else None,
        )

    def test_round_trips_through_json(self, tmp_path):
        config = self._config(regions=["virginia", "london", "hongkong", "saopaulo"])
        path = tmp_path / "deploy.json"
        config.dump(str(path))
        loaded = DeploymentConfig.load(str(path))
        assert loaded == config
        assert json.loads(path.read_text())["client"]["region"] == "virginia"

    def test_address_book_includes_the_client(self):
        book = self._config().address_book()
        assert book[2] == ("127.0.0.1", 7002)
        assert book[CLIENT_NODE_ID] == ("127.0.0.1", 7100)
        assert CLIENT_NODE_ID == CLIENT_POOL_NODE_ID  # one address space

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda c: c.replicas.pop(1), "exactly 0..2"),
            (lambda c: setattr(c.replicas[1], "port", 7000), "share"),
            (lambda c: setattr(c.replicas[0], "port", 0), "concrete port"),
            (lambda c: setattr(c, "client_port", 7003), "collides"),
            (lambda c: setattr(c.replicas[2], "region", "london"), "every replica"),
        ],
    )
    def test_validation_rejects_malformed_configs(self, mutate, message):
        config = self._config()
        mutate(config)
        with pytest.raises(ConfigurationError, match=message):
            config.validate()

    def test_validate_checks_spec_n(self):
        with pytest.raises(ConfigurationError, match="n=7"):
            self._config().validate(n=7)

    def test_link_delays_match_the_region_tables(self):
        config = self._config(regions=["virginia", "london", "hongkong", "saopaulo"])
        delays = config.link_delays_for(0)  # virginia replica
        va_hk = REGION_RTT_MS[frozenset(["virginia", "hongkong"])] / 2 / 1000.0
        assert delays[2] == pytest.approx(va_hk)  # one-way = RTT / 2
        assert delays[CLIENT_NODE_ID] < 0.001  # client co-located in virginia
        assert 0 not in delays  # no self entry
        # An unplaced deployment shapes nothing at all.
        assert self._config().link_delays_for(0) is None

    def test_local_factory_yields_a_valid_runnable_config(self):
        config = DeploymentConfig.local(4, regions=GEO_ORDER, client_region="virginia")
        assert config.n == 4
        assert config.regions() == {0: "virginia", 1: "london",
                                    2: "hongkong", 3: "saopaulo"}
        ports = {e.port for e in config.replicas} | {config.client_port}
        assert len(ports) == 5  # all distinct, concrete


class TestMultiprocessSpecValidation:
    def _spec(self, **overrides):
        base = dict(
            protocol="hotstuff-1", mode="live", n=4, duration=1.0,
            distributed_mempool=True, scrape_port=None,
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_accepts_a_well_formed_spec(self):
        validate_multiprocess_spec(self._spec())

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(mode="sim"), "mode='live'"),
            (dict(distributed_mempool=False), "distributed_mempool"),
            (dict(faults={"events": [{"at": 0.1, "action": "crash", "replica": 1}]}),
             "single-process"),
            (dict(scrape_port=0), "concrete scrape_port"),
        ],
    )
    def test_rejections(self, overrides, message):
        with pytest.raises(ConfigurationError, match=message):
            validate_multiprocess_spec(self._spec(**overrides))

    def test_storage_dir_is_accepted_children_get_private_subdirs(self):
        # Each child derives storage_dir/r<id>/ for itself (see
        # run_replica_process), so a shared storage_dir is no longer a
        # multi-writer hazard and must validate cleanly.
        validate_multiprocess_spec(self._spec(storage_dir="/tmp/cluster-wal"))


class TestLinkDelayShaping:
    def test_geo_link_delays_cover_replicas_and_client(self):
        """The one derivation both placements shape their links with: the
        spec's geo model (in-process) and the deployment document's
        (multi-process) give the same per-sender maps."""
        spec = ExperimentSpec(protocol="hotstuff-1", mode="live", n=4,
                              regions=list(GEO_ORDER))
        model = latency_model_for(spec)
        node_ids = [0, 1, 2, 3, CLIENT_POOL_NODE_ID]
        delays = {src: model.link_delays(src, node_ids) for src in node_ids}
        va_hk = REGION_RTT_MS[frozenset(["virginia", "hongkong"])] / 2 / 1000.0
        assert delays[0][2] == pytest.approx(va_hk)
        assert delays[2][CLIENT_POOL_NODE_ID] == pytest.approx(va_hk)
        assert all(src not in delays[src] for src in node_ids)  # no self entry
        config = DeploymentConfig.local(4, regions=spec.regions,
                                        client_region=spec.client_region)
        assert {src: config.link_delays_for(src) for src in node_ids} == delays

    def test_virginia_hongkong_p50_is_at_least_the_table_one_way(self):
        """Figures 8 e–h sanity: a shaped link really delays by RTT/2."""
        one_way = REGION_RTT_MS[frozenset(["virginia", "hongkong"])] / 2 / 1000.0

        class _Sink:
            def __init__(self, node_id):
                self.node_id = node_id
                self.received = []

            def deliver(self, envelope):
                self.received.append(envelope)

        async def scenario():
            clock = WallClock()
            left, right = AsyncTcpTransport(0, clock), AsyncTcpTransport(1, clock)
            left.register(_Sink(0))
            sink = _Sink(1)
            right.register(sink)
            left.set_link_delays({1: one_way})
            cluster = LiveCluster(clock, [LiveNode(0, left), LiveNode(1, right)])
            await cluster.start()
            try:
                message = FetchRequest(block_hash="d" * 64, requester=0)
                for _ in range(9):
                    left.send(0, 1, message)
                    await asyncio.sleep(0.005)
                for _ in range(400):
                    await asyncio.sleep(0.01)
                    if len(sink.received) >= 9:
                        break
            finally:
                await cluster.close()
            return [env.deliver_at - env.sent_at for env in sink.received]

        one_way_times = asyncio.run(scenario())
        assert len(one_way_times) == 9
        assert statistics.median(one_way_times) >= one_way


class TestDistributedMempoolDedup:
    def test_no_txn_commits_twice_under_rejoin_and_broadcast(self):
        """A crashed replica rejoins with a fresh pool, re-fed by client
        broadcast; per-pool in-flight/committed tracking must keep every
        transaction to exactly one committed slot per replica."""
        spec = ExperimentSpec(
            protocol="hotstuff-1", n=4, duration=3.0, warmup=0.2, seed=5,
            batch_size=20, distributed_mempool=True,
            faults={"events": [
                {"at": 0.8, "action": "crash", "replica": 1},
                {"at": 1.4, "action": "restart", "replica": 1},
            ]},
        )
        result = run_experiment(spec)
        assert result.summary.committed_txns > 0
        for replica in result.replicas:
            committed = [txn.txn_id
                         for block in replica.ledger.committed.blocks()
                         for txn in block.transactions]
            assert len(committed) == len(set(committed)), (
                f"replica {replica.replica_id} committed a txn twice"
            )

    def test_distributed_pools_are_per_replica_objects(self):
        spec = ExperimentSpec(protocol="hotstuff-1", n=4, duration=0.3,
                              seed=5, distributed_mempool=True)
        result = run_experiment(spec)
        pools = {id(replica.mempool) for replica in result.replicas}
        assert len(pools) == 4
        for replica in result.replicas:
            assert not replica.mempool.shared


class TestMultiprocessRun:
    def test_four_process_cluster_commits_a_consistent_prefix(self):
        """One OS process per replica; the committed prefixes must agree and
        no replica may commit any transaction twice — the same guarantees
        the in-process runtime gives, across real process boundaries."""
        spec = ExperimentSpec(
            protocol="hotstuff-1", mode="live", n=4, batch_size=8,
            duration=4.0, warmup=0.5, seed=7, view_timeout=1.0,
            distributed_mempool=True, scrape_port=None,
        )
        result = run_multiprocess_experiment(spec, rate=150.0, max_outstanding=300)
        info = result.multiproc
        assert info["prefix_consistent"] is True
        assert info["duplicate_commits"] == {}
        heights = info["committed_heights"]
        assert set(heights) == {0, 1, 2, 3}
        assert min(heights.values()) > 0
        assert result.summary.committed_txns > 0

        # The in-process runtime under the same spec upholds the same
        # guarantees — the cross-substrate equivalence the deployment
        # layer promises (wall-clock runs are not bytewise reproducible,
        # so equivalence is the safety surface, not the exact chain).
        live = run_live_experiment(spec, rate=150.0, max_outstanding=300)
        chains = [replica.ledger.committed.hashes() for replica in live.replicas]
        longest = max(chains, key=len)
        assert all(chain == longest[: len(chain)] for chain in chains)
        assert live.summary.committed_txns > 0

    def test_four_process_tpcc_cluster_agrees_on_operation_codes(self):
        """The binary codec names an operation by a one-byte code and drops
        its payload's key names; every `repro replica` child compiles those
        layouts from its own imports.  A TPC-C run (five operations, nested
        order lines) that commits and verifies across four of them proves
        they agree — a child that disagreed would fail to decode a frame
        (`delivery_errors` fails the run) or execute a different payload
        (the committed prefixes' state would diverge)."""
        spec = ExperimentSpec(
            protocol="hotstuff-1", mode="live", n=4, batch_size=8, workload="tpcc", codec="binary",
            duration=3.0, warmup=0.5, seed=11, view_timeout=1.0,
            distributed_mempool=True, scrape_port=None,
        )
        result = run_multiprocess_experiment(spec, rate=150.0, max_outstanding=300)
        info = result.multiproc
        assert info["prefix_consistent"] is True
        assert info["duplicate_commits"] == {}
        assert min(info["committed_heights"].values()) > 0
        assert result.summary.committed_txns > 100


#: Dropped into a scratch directory that rides ``PYTHONPATH`` into the replica
#: processes: replica 2's first delivery is handled normally and then raises,
#: exactly what a buggy message handler would do.
_RAISING_HANDLER_SITECUSTOMIZE = """
import sys

if sys.argv[1:2] == ["replica"] and sys.argv[sys.argv.index("--replica-id") + 1] == "2":
    from repro.consensus.replica import BaseReplica

    original, fired = BaseReplica.deliver, []

    def deliver(self, envelope):
        original(self, envelope)
        if not fired:
            fired.append(True)
            raise RuntimeError("injected handler failure")

    BaseReplica.deliver = deliver
"""


class TestMultiprocessFailureVisibility:
    def test_child_handler_exception_fails_the_run_naming_the_replica(
        self, tmp_path, monkeypatch
    ):
        """A handler exception inside a replica *process* must not pass
        silently: the child reports it in its result file and the coordinator
        raises, like the in-process path does."""
        (tmp_path / "sitecustomize.py").write_text(_RAISING_HANDLER_SITECUSTOMIZE)
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        spec = ExperimentSpec(
            protocol="hotstuff-1", mode="live", n=4, batch_size=8,
            duration=3.0, warmup=0.2, seed=7, view_timeout=1.0,
            distributed_mempool=True,
        )
        with pytest.raises(ConsensusError, match=r"replica 2 .*injected handler failure"):
            run_multiprocess_experiment(spec, rate=100.0, max_outstanding=200)


    def test_client_handler_exception_fails_the_run_naming_the_client(
        self, tmp_path, monkeypatch
    ):
        """The coordinator's own transport is held to the same rule: an
        exception in the client pool's response handling is a delivery error
        of the client node, and verify fails the run on it."""
        from repro.live.deploy import LiveLoadGenerator

        original, fired = LiveLoadGenerator.deliver, []

        def deliver(self, envelope):
            original(self, envelope)
            if not fired:
                fired.append(True)
                raise RuntimeError("injected client failure")

        monkeypatch.setattr(LiveLoadGenerator, "deliver", deliver)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        spec = ExperimentSpec(
            protocol="hotstuff-1", mode="live", n=4, batch_size=8,
            duration=2.0, warmup=0.2, seed=7, view_timeout=1.0,
            distributed_mempool=True,
        )
        with pytest.raises(
            ConsensusError, match=rf"client pool \(node {CLIENT_POOL_NODE_ID}\) .*injected client failure"
        ):
            run_multiprocess_experiment(spec, rate=100.0, max_outstanding=200)
        assert fired
        assert list(tmp_path.iterdir()) == []  # the failed run's scratch dir is gone too


class TestMultiprocessScratchDirectory:
    def test_untraced_run_leaves_no_scratch_directory(self, tmp_path, monkeypatch):
        """Hand-off documents and result files are consumed by the run; only a
        traced run keeps its directory (the trace shards live there — asserted
        by test_distributed_tracing's 4-process geo run)."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        spec = ExperimentSpec(
            protocol="hotstuff-1", mode="live", n=4, batch_size=8,
            duration=2.0, warmup=0.2, seed=7, view_timeout=1.0,
            distributed_mempool=True,
        )
        result = run_multiprocess_experiment(spec, rate=100.0, max_outstanding=200)
        assert result.multiproc["prefix_consistent"] is True
        assert result.multiproc["workdir"] is None
        assert result.multiproc["trace_shards"] is None
        assert [entry.name for entry in tmp_path.iterdir()
                if entry.name.startswith("repro-multiproc-")] == []


class TestGeoSpeculationLead:
    def test_spec_lead_is_positive_under_wan_delays(self):
        """The paper's §7 claim, measured: under cross-region delays the
        n − f speculative response quorum reaches the client before any
        replica commits the block (positive responded→committed lead)."""
        spec = ExperimentSpec(
            protocol="hotstuff-1", mode="live", n=4, batch_size=8,
            duration=8.0, warmup=1.0, seed=3, view_timeout=1.5,
            regions=list(GEO_ORDER), distributed_mempool=True, trace=True,
        )
        result = run_live_experiment(spec, rate=60.0, max_outstanding=200)
        breakdown = result.trace.phase_breakdown()
        assert breakdown.spans_used > 50
        assert breakdown.speculation_lead_s > 0
        # WAN delays dominate the client-visible latency: at least one
        # virginia→hongkong round trip end to end.
        assert result.summary.committed_txns > 0
        assert breakdown.response_s >= 0.212
