"""Live runtime: wall clock, TCP transport, and end-to-end cluster smoke.

The smoke tests run real localhost TCP clusters, so they are kept short
(small batches, low operation targets, tight wall-clock caps).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.consensus.messages import FetchRequest
from repro.errors import ConfigurationError, NetworkError, SimulationError
from repro.experiments.executor import execute_scenario
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.experiments.spec import ScenarioSpec
from repro.live.deploy import LiveLoadGenerator, run_live_experiment
from repro.live.runtime import LiveCluster, LiveNode, WallClock
from repro.live.transport import AsyncTcpTransport
from repro.sim.process import PeriodicTimer, Timer


class TestWallClock:
    def test_schedule_orders_and_cancels_like_the_simulator(self):
        async def scenario():
            clock = WallClock(seed=3)
            fired = []
            clock.schedule(0.02, fired.append, "late")
            clock.schedule(0.0, fired.append, "early")
            cancelled = clock.schedule(0.01, fired.append, "never")
            cancelled.cancel()
            assert cancelled.pending is False
            await asyncio.sleep(0.05)
            return fired, clock.now

        fired, now = asyncio.run(scenario())
        assert fired == ["early", "late"]
        assert now >= 0.05

    def test_sim_timer_helpers_run_on_the_wall_clock(self):
        async def scenario():
            clock = WallClock()
            ticks = []
            one_shot = Timer(clock, lambda tag: ticks.append(tag))
            one_shot.start(0.005, "view-timer")
            periodic = PeriodicTimer(clock, 0.004, lambda: ticks.append("tick"))
            periodic.start()
            await asyncio.sleep(0.03)
            periodic.stop()
            return ticks

        ticks = asyncio.run(scenario())
        assert "view-timer" in ticks
        assert ticks.count("tick") >= 3

    def test_negative_delay_rejected(self):
        async def scenario():
            clock = WallClock()
            with pytest.raises(SimulationError):
                clock.schedule(-0.5, lambda: None)

        asyncio.run(scenario())


class _Sink:
    """Minimal NetworkNode collecting delivered envelopes."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.received = []

    def deliver(self, envelope) -> None:
        self.received.append(envelope)


class TestAsyncTcpTransport:
    def test_frames_flow_between_two_nodes_and_stats_count(self):
        async def scenario():
            clock = WallClock()
            left, right = AsyncTcpTransport(0, clock), AsyncTcpTransport(1, clock)
            sinks = [_Sink(0), _Sink(1)]
            left.register(sinks[0])
            right.register(sinks[1])
            cluster = LiveCluster(clock, [LiveNode(0, left), LiveNode(1, right)])
            await cluster.start()
            try:
                message = FetchRequest(block_hash="a" * 64, requester=0)
                left.send(0, 1, message)  # over TCP
                left.send(0, 0, message)  # local fast path
                left.broadcast(0, message, receivers=[1])
                for _ in range(100):
                    await asyncio.sleep(0.01)
                    if len(sinks[1].received) >= 2 and len(sinks[0].received) >= 1:
                        break
            finally:
                await cluster.close()
            return left, right, sinks

        left, right, sinks = asyncio.run(scenario())
        assert [envelope.payload.block_hash for envelope in sinks[0].received] == ["a" * 64]
        assert len(sinks[1].received) == 2
        assert sinks[1].received[0].sender == 0
        assert left.stats.messages_sent == 3
        assert left.stats.sent_by_type == {"FetchRequest": 3}
        assert right.stats.delivered_by_type == {"FetchRequest": 2}
        assert left.stats.bytes_sent > 0
        assert not left.delivery_errors and not right.delivery_errors

    def test_self_send_counts_the_frame_it_does_not_build(self, monkeypatch):
        """A self-send is delivered in-process: it must charge exactly the
        bytes its frame would have had without building it, and read the
        clock once."""
        from repro.live import codec, transport as transport_module

        class CountingClock:
            reads = 0

            @property
            def now(self):
                self.reads += 1
                return 12.345678

        built = []
        real_frame = codec.frame_from_message
        monkeypatch.setattr(
            transport_module, "frame_from_message",
            lambda *args: built.append(args[1]) or real_frame(*args),
        )
        message = FetchRequest(block_hash="a" * 64, requester=0)

        async def scenario():
            clock = CountingClock()
            transport = AsyncTcpTransport(0, clock)
            sink = _Sink(0)
            transport.register(sink)
            envelope = transport.send(0, 0, message)
            transport.broadcast(0, message, receivers=[0])
            reads = clock.reads
            await asyncio.sleep(0)  # let the scheduled local deliveries run
            return transport.stats, envelope, reads, sink

        stats, envelope, reads, sink = asyncio.run(scenario())
        frame = codec.frame_from_message(0, 0, codec.encode_message(message), 12.345678)
        assert built == []
        assert reads == 2  # one per send
        assert envelope.size_bytes == len(frame)
        assert stats.bytes_sent == 2 * len(frame)
        assert stats.bytes_by_type == {"FetchRequest": 2 * len(frame)}
        assert [received.payload for received in sink.received] == [message, message]

    def test_unknown_receiver_counts_as_drop(self):
        async def scenario():
            clock = WallClock()
            transport = AsyncTcpTransport(0, clock)
            transport.register(_Sink(0))
            await transport.start()
            try:
                result = transport.send(0, 99, FetchRequest(block_hash="b" * 64, requester=0))
            finally:
                await transport.close()
                await transport.drain_readers()
            return result, transport.stats.messages_dropped

        result, dropped = asyncio.run(scenario())
        assert result is None
        assert dropped == 1

    def test_burst_of_frames_coalesces_into_few_writes(self):
        """Frames queued while the writer is busy (here: still connecting
        lazily) are drained into one batched write + drain, not one syscall
        round-trip each."""
        async def scenario():
            clock = WallClock()
            left, right = AsyncTcpTransport(0, clock), AsyncTcpTransport(1, clock)
            sinks = [_Sink(0), _Sink(1)]
            left.register(sinks[0])
            right.register(sinks[1])
            cluster = LiveCluster(clock, [LiveNode(0, left), LiveNode(1, right)])
            await cluster.start()
            try:
                message = FetchRequest(block_hash="c" * 64, requester=0)
                for _ in range(50):  # no awaits: all 50 queue before the writer runs
                    left.send(0, 1, message)
                for _ in range(200):
                    await asyncio.sleep(0.01)
                    if len(sinks[1].received) >= 50:
                        break
            finally:
                await cluster.close()
            return left, sinks

        left, sinks = asyncio.run(scenario())
        assert len(sinks[1].received) == 50
        assert left.batched_frames == 50
        # The whole burst fits well under batch_bytes (64 KiB), so the writer
        # needed far fewer writes than frames — typically one or two.
        assert left.batch_writes <= 5

    def test_batch_bytes_threshold_bounds_coalescing(self):
        """With batch_bytes below one frame, every frame pays its own write:
        the threshold really is what stops the greedy drain."""
        async def scenario():
            clock = WallClock()
            left = AsyncTcpTransport(0, clock, batch_bytes=1)
            right = AsyncTcpTransport(1, clock)
            sinks = [_Sink(0), _Sink(1)]
            left.register(sinks[0])
            right.register(sinks[1])
            cluster = LiveCluster(clock, [LiveNode(0, left), LiveNode(1, right)])
            await cluster.start()
            try:
                message = FetchRequest(block_hash="d" * 64, requester=0)
                for _ in range(10):
                    left.send(0, 1, message)
                for _ in range(200):
                    await asyncio.sleep(0.01)
                    if len(sinks[1].received) >= 10:
                        break
            finally:
                await cluster.close()
            return left, sinks

        left, sinks = asyncio.run(scenario())
        assert len(sinks[1].received) == 10
        assert left.batch_writes == 10
        assert left.batched_frames == 10

    def test_flush_delay_lingers_then_delivers(self):
        """A small flush_delay coalesces trickling frames without losing any."""
        async def scenario():
            clock = WallClock()
            left = AsyncTcpTransport(0, clock, flush_delay=0.005)
            right = AsyncTcpTransport(1, clock)
            sinks = [_Sink(0), _Sink(1)]
            left.register(sinks[0])
            right.register(sinks[1])
            cluster = LiveCluster(clock, [LiveNode(0, left), LiveNode(1, right)])
            await cluster.start()
            try:
                message = FetchRequest(block_hash="e" * 64, requester=0)
                for _ in range(4):
                    left.send(0, 1, message)
                    await asyncio.sleep(0.001)  # trickle inside the linger window
                for _ in range(200):
                    await asyncio.sleep(0.01)
                    if len(sinks[1].received) >= 4:
                        break
            finally:
                await cluster.close()
            return left, sinks

        left, sinks = asyncio.run(scenario())
        assert len(sinks[1].received) == 4
        assert left.batched_frames == 4
        assert left.batch_writes <= 3  # the linger coalesced at least one pair

    def test_one_transport_serves_one_node(self):
        async def scenario():
            transport = AsyncTcpTransport(0, WallClock())
            transport.register(_Sink(0))
            with pytest.raises(NetworkError):
                transport.register(_Sink(0))
            with pytest.raises(NetworkError):
                AsyncTcpTransport(1, WallClock()).register(_Sink(2))

        asyncio.run(scenario())


def _committed_chains(replicas):
    return [[block.block_hash for block in replica.ledger.committed.blocks()] for replica in replicas]


def _assert_prefix_consistent(chains):
    reference = max(chains, key=len)
    for chain in chains:
        assert chain == reference[: len(chain)]
    return reference


class TestLiveClusterSmoke:
    BASE = dict(protocol="hotstuff-1", n=4, batch_size=20, warmup=0.05, seed=11, view_timeout=0.05)

    def test_serial_vs_live_equivalence_on_committed_block_prefixes(self):
        """The same spec, simulated and live: both modes commit speculatively
        and every replica's committed chain is a prefix of the longest."""
        sim_result = run_experiment(ExperimentSpec(duration=0.25, **self.BASE))
        live_result = run_live_experiment(
            ExperimentSpec(duration=8.0, mode="live", **self.BASE), target_ops=150
        )
        for result in (sim_result, live_result):
            reference = _assert_prefix_consistent(_committed_chains(result.replicas))
            assert len(reference) > 0
            assert result.summary.committed_txns >= 150
            assert result.summary.speculative_executions > 0  # HotStuff-1 rule active
        # Replicas were built from the same registry class in both modes —
        # the protocol logic is shared, not forked.
        assert {type(replica) for replica in sim_result.replicas} == {
            type(replica) for replica in live_result.replicas
        }

    def test_open_loop_generator_injects_at_rate_and_completes(self):
        result = run_live_experiment(
            ExperimentSpec(duration=6.0, mode="live", **self.BASE),
            target_ops=100,
            rate=800.0,
        )
        generator = result.client_pool
        assert isinstance(generator, LiveLoadGenerator)
        assert generator.rate == 800.0
        assert generator.injected_count >= 100
        assert result.summary.committed_txns >= 100
        assert result.latency_ms > 0

    def test_scenario_engine_runs_points_live_via_mode_param(self):
        scenario = ScenarioSpec(
            name="live-smoke",
            kind="scalability",
            protocols=("hotstuff-1",),
            axes={"n": [4]},
            params={"mode": "live", "duration": 1.0, "warmup": 0.1, "batch_size": 10},
        )
        rows = execute_scenario(scenario)
        assert len(rows) == 1
        assert rows[0]["protocol"] == "hotstuff-1"
        assert rows[0]["committed_txns"] > 0

    def test_live_network_stats_cover_consensus_message_types(self):
        result = run_live_experiment(
            ExperimentSpec(duration=6.0, mode="live", **self.BASE), target_ops=100
        )
        sent = result.network_stats["sent_by_type"]
        assert sent.get("Propose", 0) > 0
        assert sent.get("NewView", 0) > 0
        # The live load generator coalesces request bursts into batch frames;
        # stragglers (retries, single-completion bursts) still go individually.
        requests = sent.get("ClientRequest", 0) + sent.get("ClientRequestBatch", 0)
        assert requests > 0
        assert sent.get("ClientRequestBatch", 0) > 0
        assert result.network_stats["bytes_sent"] > 0


class TestLiveViewResync:
    def test_live_blackout_crash_rejoin_catches_up_views_over_sockets(self):
        """> f simultaneous crashes over real TCP: both victims must rejoin,
        catch up to the survivors' views through the ViewSync/Wish-retry
        machinery, and commit new operations."""
        from repro.faults.plan import FaultPlan, FaultEvent

        plan = FaultPlan(
            events=[
                FaultEvent(at=0.5, action="crash", replica=0),
                FaultEvent(at=0.5, action="crash", replica=1),
                FaultEvent(at=1.3, action="restart", replica=0),
                FaultEvent(at=1.3, action="restart", replica=1),
            ]
        )
        spec = ExperimentSpec(
            protocol="hotstuff-1", mode="live", n=4, batch_size=10,
            duration=15.0, warmup=0.2, view_timeout=0.05, seed=17,
            faults=plan.to_dict(),
        )
        # target_ops keeps the run going well past the restart at 1.3s
        # (~800 tps on localhost) without waiting out the full duration cap.
        result = run_live_experiment(spec, target_ops=1800)
        chaos = result.chaos
        assert chaos["crashes"] == chaos["restarts"] == 2
        assert chaos["recovered"] == 2, chaos["incidents"]
        assert chaos["prefix_agreement"] is True
        assert chaos["skipped_events"] == 0
        assert chaos["wal_vote_violations"] == []
        # The rejoined replicas re-synchronised views with the survivors.
        views = sorted(replica.current_view for replica in result.replicas)
        assert views[0] > 0
        assert views[-1] - views[0] <= 8, views

    def test_live_blackout_rejoin_converges_via_state_transfer(self):
        """Blackout rejoin over real sockets with checkpointing on: f+1
        replicas crash at once (consensus halts), the first restart restores
        quorum and the cluster races ahead, and the late rejoiner — now far
        behind a compacting cluster — must converge through SnapshotResponse
        (digest-checked state transfer), with committed prefixes agreeing."""
        from repro.faults.plan import FaultPlan, FaultEvent

        plan = FaultPlan(
            events=[
                FaultEvent(at=0.5, action="crash", replica=0),
                FaultEvent(at=0.5, action="crash", replica=1),
                FaultEvent(at=1.2, action="restart", replica=0),
                FaultEvent(at=3.5, action="restart", replica=1),
            ]
        )
        spec = ExperimentSpec(
            protocol="hotstuff-1", mode="live", n=4, batch_size=10,
            duration=6.0, warmup=0.2, view_timeout=0.05, seed=23,
            faults=plan.to_dict(), checkpoint_interval=5,
        )
        # A fixed duration (no target_ops early stop) guarantees the run
        # outlives the late 3.5s restart regardless of machine speed.
        result = run_live_experiment(spec)
        chaos = result.chaos
        assert chaos["crashes"] == chaos["restarts"] == 2
        assert chaos["recovered"] + chaos["superseded"] == 2, chaos["incidents"]
        assert chaos["prefix_agreement"] is True
        assert chaos["wal_vote_violations"] == []
        # At least one rejoiner adopted a transferred snapshot; its ledger is
        # re-based on the checkpoint instead of a full history replay.
        installed = sum(replica.snapshots_installed for replica in result.replicas)
        assert installed >= 1, [
            (replica.replica_id, replica.snapshots_installed)
            for replica in result.replicas
        ]
        rebased = [
            replica for replica in result.replicas
            if replica.ledger.committed.base_height > 0
        ]
        assert rebased, "no replica is running on a checkpointed base"


class TestLiveCli:
    def test_live_subcommand_runs_cluster_and_reports(self, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "live", "--protocol", "hotstuff1", "--n", "4", "--batch", "20",
                "--duration", "8.0", "--warmup", "0.05", "--target-ops", "100",
                "--view-timeout", "0.05",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "localhost TCP" in captured.out
        assert "hotstuff-1 — live" in captured.out
        assert "network traffic by message type" in captured.out


class TestLiveSpecValidation:
    def test_protocol_aliases_resolve(self):
        spec = ExperimentSpec(protocol="hotstuff1", n=4).validate()
        assert spec.protocol == "hotstuff-1"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(protocol="hotstuff-1", mode="steam").validate()

    def test_simulation_only_knobs_rejected_in_live_mode(self):
        # regions are now a live knob (transport-level geo delay shaping), but
        # injected per-message delays and custom latency models still have no
        # real-socket equivalent.
        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                protocol="hotstuff-1",
                mode="live",
                delay_injection={"impacted": [0], "extra_delay": 0.01},
            ).validate()
        from repro.net.latency import ConstantLatency

        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                protocol="hotstuff-1", mode="live", latency_model=ConstantLatency(0.001)
            ).validate()

    def test_regions_allowed_in_live_mode(self):
        spec = ExperimentSpec(
            protocol="hotstuff-1", mode="live", regions=["virginia", "london"]
        ).validate()
        assert spec.regions == ["virginia", "london"]

    @pytest.mark.parametrize("distributed", [False, True])
    def test_clients_broadcast_exactly_when_the_mempool_is_distributed(self, distributed):
        """Per-replica pools starve under round-robin submission, so the
        client pool broadcasts to every replica exactly when the mempool is
        distributed; otherwise geo clients submit to their co-located ones."""
        from repro.consensus.client import CLIENT_POOL_NODE_ID, ClientPool
        from repro.experiments.runner import latency_model_for, prepare
        from repro.net.network import SimNetwork
        from repro.sim.scheduler import Simulator

        spec = ExperimentSpec(
            protocol="hotstuff-1", regions=["virginia", "london"], distributed_mempool=distributed
        ).validate()
        sim = Simulator(seed=spec.seed)
        network = SimNetwork(sim, latency=latency_model_for(spec))
        deployment = prepare(
            spec, sim, lambda node_id: network, [*range(spec.n), CLIENT_POOL_NODE_ID],
            client_class=ClientPool,
        )
        pool = deployment.client_pool
        assert pool.broadcast_requests is distributed
        assert pool.target_replicas == ([0, 1, 2, 3] if distributed else [0, 2])

    def test_open_loop_rate_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            run_live_experiment(
                ExperimentSpec(protocol="hotstuff-1", mode="live", duration=0.5, warmup=0.1),
                rate=-5.0,
            )
