"""Unit tests for the pacemaker and the client pool."""

from __future__ import annotations

import pytest

from repro.consensus.client import ClientPool
from repro.consensus.config import ProtocolConfig
from repro.consensus.messages import ClientRequest, ClientResponseBatch, ResponseEntry
from repro.consensus.metrics import MetricsCollector
from repro.consensus.protocols.hotstuff2 import HotStuff2Replica
from repro.core.streamlined import HotStuff1Replica
from repro.net.latency import ConstantLatency
from repro.net.network import SimNetwork
from repro.sim.scheduler import Simulator
from repro.workloads.ycsb import YCSBWorkload

from tests.helpers import ReplicaHarness


class TestPacemaker:
    def test_enter_view_is_monotonic(self):
        harness = ReplicaHarness(HotStuff2Replica)
        pacemaker = harness.replica.pacemaker
        pacemaker.start(1)
        assert pacemaker.current_view == 1
        pacemaker.enter_view(5)
        assert pacemaker.current_view == 5
        pacemaker.enter_view(3)
        assert pacemaker.current_view == 5

    def test_completed_view_marks_exit(self):
        harness = ReplicaHarness(HotStuff2Replica)
        pacemaker = harness.replica.pacemaker
        pacemaker.start(1)
        assert not pacemaker.has_completed(1)
        # View 2 is an epoch boundary for n=4 (epoch length f+1 = 2), so completing
        # view 1 triggers Wish/TC synchronisation instead of entering directly.
        pacemaker.completed_view(1)
        assert pacemaker.has_completed(1)
        assert pacemaker.current_view == 1
        # A non-boundary completion advances immediately.
        pacemaker.force_enter(2)
        pacemaker.completed_view(2)
        assert pacemaker.has_completed(2)
        assert pacemaker.current_view == 3

    def test_starting_at_an_epoch_boundary_wishes_instead_of_entering(self):
        """Figure 3 has no switch for the epoch exchange: a pacemaker started
        at a boundary view sends its Wish to the epoch's f + 1 leaders and
        parks there until the TC arrives."""
        from repro.consensus.messages import Wish

        harness = ReplicaHarness(HotStuff2Replica, replica_id=0, n=4)
        pacemaker = harness.replica.pacemaker
        wishes = []
        harness.replica.send = lambda target, payload, **kw: (
            wishes.append((target, payload)) if isinstance(payload, Wish) else None
        )
        pacemaker.start(2)
        assert pacemaker.current_view < 2
        assert sorted(target for target, _ in wishes) == sorted(pacemaker.epoch_leaders(2))
        assert all(payload.view == 2 for _, payload in wishes)

    def test_entering_a_view_completes_all_older_views(self):
        harness = ReplicaHarness(HotStuff2Replica)
        pacemaker = harness.replica.pacemaker
        pacemaker.start(1)
        pacemaker.force_enter(7)
        assert pacemaker.has_completed(6)
        assert not pacemaker.has_completed(7)

    def test_share_timer_is_three_delta_after_entry(self):
        harness = ReplicaHarness(HotStuff2Replica)
        pacemaker = harness.replica.pacemaker
        pacemaker.start(1)
        expected = pacemaker.start_time[1] + 3 * harness.config.delta
        assert pacemaker.share_timer(1) == pytest.approx(expected)

    def test_view_timer_fires_timeout_callback(self):
        harness = ReplicaHarness(HotStuff2Replica, replica_id=2)
        timeouts = []
        harness.replica.on_view_timeout = lambda view: timeouts.append(view)
        harness.replica.pacemaker.start(1)
        harness.run(duration=0.05)
        assert timeouts and timeouts[0] == 1

    def test_epoch_leaders_cover_f_plus_one_views(self):
        harness = ReplicaHarness(HotStuff2Replica, n=7)
        pacemaker = harness.replica.pacemaker
        leaders = pacemaker.epoch_leaders(14)
        assert len(leaders) == harness.config.f + 1
        assert leaders[0] == harness.replica.leaders.leader_of(14)


class TestViewSynchronizer:
    """PBFT-style f+1 view-evidence amplification in the pacemaker."""

    def _started(self, n=4, replica_id=0):
        harness = ReplicaHarness(HotStuff2Replica, replica_id=replica_id, n=n)
        harness.replica.pacemaker.start(1)
        return harness, harness.replica.pacemaker

    def test_f_reports_are_not_enough_to_jump(self):
        harness, pacemaker = self._started()  # n=4 -> f=1, need 2 distinct senders
        pacemaker.note_peer_view(1, 40)
        assert pacemaker.current_view == 1
        assert pacemaker.view_table == {1: 40}

    def test_f_plus_one_reports_jump_to_the_f_plus_first_highest(self):
        harness, pacemaker = self._started()
        pacemaker.note_peer_view(1, 40)
        pacemaker.note_peer_view(2, 37)
        # two distinct senders >= f+1; the 2nd-highest report (37) is backed
        # by at least one honest replica, the maximum (40) is not.
        assert pacemaker.current_view == 37
        assert pacemaker.jumps == 1

    def test_reports_are_monotonic_per_sender(self):
        harness, pacemaker = self._started()
        pacemaker.note_peer_view(1, 40)
        pacemaker.note_peer_view(1, 12)  # stale report must not regress
        assert pacemaker.view_table[1] == 40

    def test_own_and_out_of_range_senders_are_ignored(self):
        harness, pacemaker = self._started()
        pacemaker.note_peer_view(0, 40)   # ourselves
        pacemaker.note_peer_view(99, 40)  # not a replica id
        pacemaker.note_peer_view(-1, 40)  # client pool
        assert pacemaker.view_table == {}
        assert pacemaker.current_view == 1

    def test_restored_view_table_applies_at_start(self):
        harness = ReplicaHarness(HotStuff2Replica, replica_id=0, n=4)
        pacemaker = harness.replica.pacemaker
        pacemaker.restore_view_table({1: 21, 2: 19, 0: 99})
        assert pacemaker.view_table == {1: 21, 2: 19}  # own id dropped
        assert pacemaker.current_view == 0  # priming alone never jumps
        pacemaker.start(1)
        assert pacemaker.current_view == 19

    def test_view_sync_reply_helps_a_lagging_sender(self):
        from repro.consensus.messages import ViewSync

        harness, pacemaker = self._started(replica_id=2)
        pacemaker.enter_view(30)
        sent = []
        harness.replica.send = lambda target, payload, **kw: sent.append((target, payload))
        pacemaker.handle_view_sync(ViewSync(view=3, voter=1), sender=1)
        assert len(sent) == 1
        target, reply = sent[0]
        assert target == 1
        assert isinstance(reply, ViewSync)
        assert reply.view == 30

    def test_wish_is_retransmitted_while_parked_at_a_boundary(self):
        from repro.consensus.messages import Wish

        harness = ReplicaHarness(HotStuff2Replica, replica_id=0, n=4)
        wishes = []
        harness.replica.send = lambda target, payload, **kw: (
            wishes.append((target, payload)) if isinstance(payload, Wish) else None
        )
        # View 2 is an epoch boundary for n=4 (epoch length 2): the pacemaker
        # parks awaiting a TC and must re-send its Wish every view_timeout.
        harness.replica.pacemaker.synchronize_epoch(2)
        harness.run(duration=harness.config.view_timeout * 3.5)
        assert len(wishes) >= 3 * 2  # >= 3 rounds x f+1 epoch leaders
        assert all(payload.view == 2 for _, payload in wishes)

    def test_entering_the_wished_view_stops_the_retransmission(self):
        from repro.consensus.messages import Wish

        harness = ReplicaHarness(HotStuff2Replica, replica_id=0, n=4)
        pacemaker = harness.replica.pacemaker
        pacemaker.synchronize_epoch(2)
        pacemaker.enter_view(2)
        wishes = []
        harness.replica.send = lambda target, payload, **kw: (
            wishes.append(payload) if isinstance(payload, Wish) else None
        )
        harness.run(duration=harness.config.view_timeout * 3.5)
        # Normal timer progress may wish for *later* boundaries (view 4), but
        # the satisfied wish for view 2 must not be retransmitted.
        assert all(wish.view != 2 for wish in wishes)

    def test_wish_share_is_cached_across_retransmissions(self):
        from repro.consensus.messages import Wish

        harness = ReplicaHarness(HotStuff2Replica, replica_id=0, n=4)
        pacemaker = harness.replica.pacemaker
        created = []
        original = harness.authority.create_timeout_vote

        def counting(voter, view):
            created.append(view)
            return original(voter, view)

        harness.authority.create_timeout_vote = counting
        wishes = []
        harness.replica.send = lambda target, payload, **kw: (
            wishes.append(payload) if isinstance(payload, Wish) else None
        )
        pacemaker.synchronize_epoch(2)
        harness.run(duration=harness.config.view_timeout * 3.5)
        # Several retransmission rounds went out, but the threshold-signing
        # work for the wished view happened exactly once.
        assert len([w for w in wishes if w.view == 2]) >= 3 * 2
        assert created.count(2) == 1
        shares = {id(w.share) for w in wishes if w.view == 2}
        assert len(shares) == 1

    def test_view_entry_prunes_stale_synchronisation_state(self):
        harness, pacemaker = self._started()
        pacemaker.note_peer_view(1, 3)
        pacemaker.note_peer_view(2, 50)
        pacemaker._tc_formed.update({2, 40})
        pacemaker._tc_entered.update({2, 40})
        pacemaker._sent_wish_shares[2] = object()
        pacemaker._sent_wish_shares[40] = object()
        pacemaker.enter_view(10)
        # Everything keyed at or below the entered view is gone; higher
        # entries (still-useful evidence and state) survive.
        assert pacemaker.view_table == {2: 50}
        assert pacemaker._tc_formed == {40}
        assert pacemaker._tc_entered == {40}
        assert set(pacemaker._sent_wish_shares) == {40}

    def test_wish_carries_current_view_and_high_cert_evidence(self):
        harness, pacemaker = self._started(replica_id=0)
        sent = []
        harness.replica.send = lambda target, payload, **kw: sent.append(payload)
        pacemaker.synchronize_epoch(2)
        assert sent and all(msg.current_view == pacemaker.current_view for msg in sent)
        assert all(msg.high_cert is not None for msg in sent)


def build_client_pool(required_quorum, num_clients=2, n=4):
    sim = Simulator(seed=5)
    config = ProtocolConfig(n=n, batch_size=10)
    network = SimNetwork(sim, latency=ConstantLatency(0.0005))
    metrics = MetricsCollector()
    pool = ClientPool(
        sim=sim,
        network=network,
        workload=YCSBWorkload(record_count=100),
        config=config,
        metrics=metrics,
        num_clients=num_clients,
        required_quorum=required_quorum,
    )
    return sim, network, metrics, pool


def response_batch(replica_id, txn, block_hash="b" * 64, speculative=True, root="r1", **stated):
    entry = ResponseEntry(txn_id=txn.txn_id, client_id=txn.client_id, **stated)
    return ClientResponseBatch(
        replica_id=replica_id,
        view=1,
        slot=1,
        block_hash=block_hash,
        speculative=speculative,
        entries=(entry,),
        results_root=root,
    )


class TestClientPool:
    def test_start_issues_one_request_per_client(self):
        sim, network, metrics, pool = build_client_pool(required_quorum=2, num_clients=3)
        pool.start()
        assert len(pool.outstanding) == 3

    def test_completion_requires_quorum_of_matching_responses(self):
        sim, network, metrics, pool = build_client_pool(required_quorum=3)
        pool.start()
        txn = next(iter(pool.outstanding.values())).txn
        pool._handle_response_batch(response_batch(0, txn))
        pool._handle_response_batch(response_batch(1, txn))
        assert txn.txn_id in pool.outstanding
        pool._handle_response_batch(response_batch(2, txn))
        assert txn.txn_id not in pool.outstanding
        assert pool.completed_count == 1
        assert metrics.samples[0].speculative

    def test_duplicate_responses_from_same_replica_count_once(self):
        sim, network, metrics, pool = build_client_pool(required_quorum=2)
        pool.start()
        txn = next(iter(pool.outstanding.values())).txn
        pool._handle_response_batch(response_batch(0, txn))
        pool._handle_response_batch(response_batch(0, txn))
        assert txn.txn_id in pool.outstanding

    def test_mismatched_results_do_not_combine(self):
        """Everything a batch states about the transaction is the key: the
        root, the success bit and the (reserved) per-entry digest."""
        sim, network, metrics, pool = build_client_pool(required_quorum=2)
        pool.start()
        txn = next(iter(pool.outstanding.values())).txn
        pool._handle_response_batch(response_batch(0, txn, root="r1"))
        pool._handle_response_batch(response_batch(1, txn, root="r2"))
        pool._handle_response_batch(response_batch(2, txn, root="r1", success=False))
        pool._handle_response_batch(response_batch(3, txn, root="r1", result_digest="d" * 64))
        assert txn.txn_id in pool.outstanding
        pool._handle_response_batch(response_batch(1, txn, root="r1"))
        assert txn.txn_id not in pool.outstanding

    def test_a_stray_speculative_response_does_not_relabel_a_committed_completion(self):
        """The sample is speculative iff the quorum that finalised it holds a
        speculative response — not because one replica (faulty, or honest and
        later rolled back) answered speculatively under another root."""
        sim, network, metrics, pool = build_client_pool(required_quorum=2)
        pool.start()
        first, second = (request.txn for request in pool.outstanding.values())
        pool._handle_response_batch(response_batch(0, first, root="rA", speculative=True))
        pool._handle_response_batch(response_batch(1, first, root="rB", speculative=False))
        pool._handle_response_batch(response_batch(2, first, root="rB", speculative=False))
        assert first.txn_id not in pool.outstanding
        assert not metrics.samples[0].speculative
        # ...while a speculative response inside the finalising quorum still counts,
        # whichever of the quorum's batches arrived last.
        pool._handle_response_batch(response_batch(0, second, speculative=True))
        pool._handle_response_batch(response_batch(1, second, speculative=False))
        assert metrics.samples[1].speculative

    def test_responses_for_different_blocks_do_not_combine(self):
        sim, network, metrics, pool = build_client_pool(required_quorum=2)
        pool.start()
        txn = next(iter(pool.outstanding.values())).txn
        pool._handle_response_batch(response_batch(0, txn, block_hash="a" * 64))
        pool._handle_response_batch(response_batch(1, txn, block_hash="c" * 64))
        assert txn.txn_id in pool.outstanding

    def test_completion_spawns_next_request_closed_loop(self):
        sim, network, metrics, pool = build_client_pool(required_quorum=1, num_clients=1)
        pool.start()
        first_txn = next(iter(pool.outstanding.values())).txn
        pool._handle_response_batch(response_batch(0, first_txn))
        assert len(pool.outstanding) == 1
        remaining = next(iter(pool.outstanding.values())).txn
        assert remaining.txn_id != first_txn.txn_id

    def test_requests_reach_replicas_over_the_network(self):
        sim, network, metrics, pool = build_client_pool(required_quorum=2, num_clients=2)

        class Sink:
            node_id = 0
            received = []

            def deliver(self, envelope):
                Sink.received.append(envelope.payload)

        network.register(Sink())
        pool.target_replicas = [0]
        pool.start()
        sim.run(until=0.01)
        assert all(isinstance(msg, ClientRequest) for msg in Sink.received)
        assert len(Sink.received) == 2

    def test_client_quorum_rules_per_protocol(self):
        config = ProtocolConfig(n=31)
        assert HotStuff1Replica.client_quorum(config) == 21
        assert HotStuff2Replica.client_quorum(config) == 11
