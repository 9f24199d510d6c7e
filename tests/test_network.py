"""Unit tests for the simulated network substrate."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.net.faults import FaultInjector
from repro.net.latency import ConstantLatency, GeoLatencyModel, JitteredLatency, DEFAULT_REGION_ORDER
from repro.net.network import SimNetwork
from repro.sim.rng import SeededRng
from repro.sim.scheduler import Simulator


class RecordingNode:
    """Minimal network endpoint that records received envelopes."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def deliver(self, envelope):
        self.received.append(envelope)


def build_network(node_count=3, latency=None, faults=None, seed=1):
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=latency or ConstantLatency(0.001), faults=faults)
    nodes = [RecordingNode(i) for i in range(node_count)]
    for node in nodes:
        network.register(node)
    return sim, network, nodes


class TestLatencyModels:
    def test_constant_latency_returns_fixed_delay(self):
        model = ConstantLatency(0.005)
        assert model.sample(0, 1, SeededRng(1)) == pytest.approx(0.005)

    def test_constant_latency_rejects_negative(self):
        with pytest.raises(NetworkError):
            ConstantLatency(-1.0)

    def test_jittered_latency_within_bounds(self):
        model = JitteredLatency(0.001, 0.002)
        rng = SeededRng(3)
        for _ in range(50):
            delay = model.sample(0, 1, rng)
            assert 0.001 <= delay <= 0.003

    def test_geo_same_region_uses_intra_delay(self):
        model = GeoLatencyModel({0: "virginia", 1: "virginia"}, intra_region_ms=0.25)
        assert model.sample(0, 1, SeededRng(1)) == pytest.approx(0.25 / 1000)

    def test_geo_cross_region_uses_half_rtt(self):
        model = GeoLatencyModel({0: "virginia", 1: "london"})
        expected = model.rtt_ms[frozenset(["virginia", "london"])] / 2 / 1000
        assert model.sample(0, 1, SeededRng(1)) == pytest.approx(expected)

    def test_geo_unknown_node_uses_default_region(self):
        model = GeoLatencyModel({0: "london"}, default_region="virginia")
        assert model.region_of(99) == "virginia"

    def test_geo_uniform_spread_round_robins_regions(self):
        model = GeoLatencyModel.uniform_spread(list(range(6)), ["virginia", "london"])
        assert model.region_of(0) == "virginia"
        assert model.region_of(1) == "london"
        assert model.region_of(2) == "virginia"

    def test_region_order_has_five_paper_regions(self):
        assert len(DEFAULT_REGION_ORDER) == 5

    def test_geo_missing_rtt_entry_raises(self):
        model = GeoLatencyModel({0: "virginia", 1: "atlantis"}, rtt_ms={})
        with pytest.raises(NetworkError):
            model.sample(0, 1, SeededRng(1))


class TestSimNetwork:
    def test_send_delivers_after_latency(self):
        sim, network, nodes = build_network()
        network.send(0, 1, "hello")
        sim.run()
        assert len(nodes[1].received) == 1
        envelope = nodes[1].received[0]
        assert envelope.payload == "hello"
        assert envelope.latency == pytest.approx(0.001)

    def test_self_send_has_zero_latency(self):
        sim, network, nodes = build_network()
        network.send(1, 1, "loop")
        sim.run()
        assert nodes[1].received[0].latency == pytest.approx(0.0)

    def test_broadcast_reaches_all_nodes(self):
        sim, network, nodes = build_network(4)
        network.broadcast(0, "announce")
        sim.run()
        assert all(len(node.received) == 1 for node in nodes)

    def test_send_to_unknown_node_is_dropped(self):
        sim, network, nodes = build_network()
        result = network.send(0, 99, "void")
        sim.run()
        assert result is None
        assert network.stats.messages_dropped == 1

    def test_duplicate_registration_rejected(self):
        _, network, nodes = build_network()
        with pytest.raises(NetworkError):
            network.register(nodes[0])

    def test_stats_count_sends_and_deliveries(self):
        sim, network, nodes = build_network()
        network.send(0, 1, "a")
        network.send(1, 2, "b")
        sim.run()
        stats = network.stats.as_dict()
        assert stats["messages_sent"] == 2
        assert stats["messages_delivered"] == 2

    def test_trace_hook_sees_deliveries(self):
        sim, network, nodes = build_network()
        seen = []
        network.set_trace_hook(seen.append)
        network.send(0, 1, "x")
        sim.run()
        assert len(seen) == 1

    def test_protocol_messages_are_sized_by_the_wire_codec(self):
        from repro.consensus.messages import FetchRequest
        from repro.live.codec import encoded_size

        sim, network, nodes = build_network()
        message = FetchRequest(block_hash="c" * 64, requester=0)
        envelope = network.send(0, 1, message)
        assert envelope.size_bytes == encoded_size(message)
        assert network.stats.bytes_sent == encoded_size(message)
        # Unknown payloads (test stubs) keep the historical 256-byte charge.
        network.send(0, 1, "stub")
        assert network.stats.bytes_sent == encoded_size(message) + 256

    def test_stats_break_down_by_message_type(self):
        from repro.consensus.messages import FetchRequest

        sim, network, nodes = build_network()
        network.send(0, 1, FetchRequest(block_hash="d" * 64, requester=0))
        network.broadcast(0, "announce", receivers=[1, 2])
        network.send(0, 99, FetchRequest(block_hash="d" * 64, requester=0))  # dropped
        sim.run()
        stats = network.stats.as_dict()
        assert stats["sent_by_type"] == {"FetchRequest": 2, "str": 2}
        assert stats["delivered_by_type"] == {"FetchRequest": 1, "str": 2}

    def test_stats_merge_sums_counters(self):
        from repro.net.network import NetworkStats

        first, second = NetworkStats(), NetworkStats()
        first.record_sent("a", 10)
        second.record_sent("b", 20)
        second.record_delivered("b")
        second.messages_dropped = 3
        first.merge(second)
        assert first.messages_sent == 2
        assert first.bytes_sent == 30
        assert first.messages_dropped == 3
        assert first.sent_by_type == {"str": 2}
        assert first.delivered_by_type == {"str": 1}


class TestFaultInjection:
    def test_injected_delay_applies_to_impacted_receiver(self):
        faults = FaultInjector()
        faults.inject_delay([1], 0.05)
        sim, network, nodes = build_network(faults=faults)
        network.send(0, 1, "slow")
        network.send(0, 2, "fast")
        sim.run()
        assert nodes[1].received[0].latency == pytest.approx(0.051)
        assert nodes[2].received[0].latency == pytest.approx(0.001)

    def test_injected_delay_applies_to_impacted_sender(self):
        faults = FaultInjector()
        faults.inject_delay([0], 0.02)
        sim, network, nodes = build_network(faults=faults)
        network.send(0, 2, "slow")
        sim.run()
        assert nodes[2].received[0].latency == pytest.approx(0.021)

    def test_drop_node_discards_messages(self):
        faults = FaultInjector()
        faults.drop_node(1)
        sim, network, nodes = build_network(faults=faults)
        network.send(0, 1, "never")
        sim.run()
        assert nodes[1].received == []
        assert faults.dropped_messages == 1

    def test_restore_node_allows_delivery_again(self):
        faults = FaultInjector()
        faults.drop_node(1)
        faults.restore_node(1)
        sim, network, nodes = build_network(faults=faults)
        network.send(0, 1, "again")
        sim.run()
        assert len(nodes[1].received) == 1

    def test_partition_blocks_both_directions(self):
        faults = FaultInjector()
        faults.partition([0], [1, 2])
        sim, network, nodes = build_network(faults=faults)
        network.send(0, 1, "x")
        network.send(2, 0, "y")
        network.send(1, 2, "z")
        sim.run()
        assert nodes[2].received[0].payload == "z"
        assert len(nodes[1].received) == 0
        assert len(nodes[0].received) == 0

    def test_heal_partitions(self):
        faults = FaultInjector()
        faults.partition([0], [1])
        faults.heal_partitions()
        assert not faults.should_drop(0, 1)
