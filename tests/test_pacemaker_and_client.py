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
        """Only a timer exit runs the epoch exchange.  View 2 is an epoch
        boundary for n=4 (epoch length f+1 = 2): a replica whose view timer
        ended view 1 wishes and stays parked, one that left view 1 through
        its leader's proposal enters view 2 directly."""
        from repro.consensus.messages import Wish

        for timed_out in (True, False):
            harness = ReplicaHarness(HotStuff2Replica)
            pacemaker = harness.replica.pacemaker
            wishes = []
            harness.replica.send = lambda target, payload, **kw: (
                wishes.append((target, payload)) if isinstance(payload, Wish) else None
            )
            pacemaker.start(1)
            assert not pacemaker.has_completed(1)
            pacemaker.completed_view(1, timed_out=timed_out)
            assert pacemaker.has_completed(1)
            if timed_out:
                assert pacemaker.current_view == 1
                assert sorted(target for target, _ in wishes) == sorted(pacemaker.epoch_leaders(2))
                pacemaker.force_enter(2)
            else:
                assert pacemaker.current_view == 2
                assert wishes == []
            # Inside an epoch both exits advance immediately.
            pacemaker.completed_view(2, timed_out=timed_out)
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
        # View 4 is an epoch boundary, so the reply comes with our Wish share
        # for it (see the next test); the beacon goes to the sender only.
        replies = [(target, msg) for target, msg in sent if isinstance(msg, ViewSync)]
        assert len(replies) == 1
        target, reply = replies[0]
        assert target == 1
        assert reply.view == 30

    def test_a_beacon_parked_before_a_boundary_we_passed_draws_our_wish_share(self):
        """A peer reporting the view before epoch boundary 28 is parked there
        waiting for a TC; a replica already past 28 adds its own Wish share
        for 28 to the epoch leaders, once per view it is in."""
        from repro.consensus.messages import ViewSync, Wish

        harness, pacemaker = self._started(replica_id=2)
        pacemaker.enter_view(30)
        sent = []
        harness.replica.send = lambda target, payload, **kw: sent.append((target, payload))

        def wishes():
            found = [(target, msg) for target, msg in sent if isinstance(msg, Wish)]
            sent.clear()
            return found

        pacemaker.handle_view_sync(ViewSync(view=27, voter=1), sender=1)
        lent = wishes()
        assert sorted(target for target, _ in lent) == sorted(pacemaker.epoch_leaders(28))
        assert all(msg.view == 28 and msg.voter == 2 and msg.current_view == 30 for _, msg in lent)
        # A retransmitted beacon in the same view, or a peer in the middle of
        # an epoch (view 29 is no boundary), draws no further share.
        pacemaker.handle_view_sync(ViewSync(view=27, voter=3), sender=3)
        pacemaker.handle_view_sync(ViewSync(view=28, voter=1), sender=1)
        assert wishes() == []
        pacemaker.enter_view(31)
        pacemaker.handle_view_sync(ViewSync(view=27, voter=1), sender=1)
        assert len(wishes()) == len(pacemaker.epoch_leaders(28))

    def test_a_parked_epoch_leader_draws_our_share_on_every_beacon(self):
        """An epoch leader of boundary 28 that crashed after our first share
        reached it restarts parked at 27 with none of the shares it was
        aggregating; each of its beacons draws our share again, sent to it
        alone, or the boundary's TC could never form."""
        from repro.consensus.messages import ViewSync, Wish

        harness, pacemaker = self._started(replica_id=2)
        pacemaker.enter_view(29)
        leader = pacemaker.epoch_leaders(28)[0]
        bystander = next(
            r for r in range(4) if r not in pacemaker.epoch_leaders(28) and r != 2
        )
        sent = []
        harness.replica.send = lambda target, payload, **kw: sent.append((target, payload))

        def wishes():
            found = [(target, msg.view) for target, msg in sent if isinstance(msg, Wish)]
            sent.clear()
            return found

        pacemaker.handle_view_sync(ViewSync(view=27, voter=bystander), sender=bystander)
        assert sorted(wishes()) == sorted((target, 28) for target in pacemaker.epoch_leaders(28))
        for _ in range(2):
            pacemaker.handle_view_sync(ViewSync(view=27, voter=leader), sender=leader)
            assert wishes() == [(leader, 28)]
        pacemaker.handle_view_sync(ViewSync(view=27, voter=bystander), sender=bystander)
        assert wishes() == []

    def test_an_epoch_leader_past_the_wished_view_still_forms_its_tc(self):
        """At a mixed boundary an epoch leader may have entered the wished view
        by voting (and timed out beyond it) while the others wait for the TC."""
        from repro.consensus.messages import TimeoutCertificateMsg, Wish

        harness, pacemaker = self._started(replica_id=0)
        boundary = next(v for v in range(28, 2, -2) if 0 in pacemaker.epoch_leaders(v))
        pacemaker.enter_view(boundary + 1)
        broadcast = []
        harness.replica.broadcast_replicas = lambda payload, *a, **kw: broadcast.append(payload)
        for voter in (1, 2, 3):
            share = harness.authority.create_timeout_vote(voter, boundary)
            pacemaker.handle_wish(Wish(view=boundary, voter=voter, share=share, current_view=boundary - 1))
        assert [type(msg) for msg in broadcast] == [TimeoutCertificateMsg]
        assert broadcast[0].view == boundary

    def test_a_second_tc_for_an_entered_view_is_neither_relayed_nor_rescheduled(self):
        from repro.consensus.messages import TimeoutCertificateMsg

        harness, pacemaker = self._started(replica_id=3)
        sent = []
        harness.replica.send = lambda target, payload, **kw: sent.append((target, payload))
        shares = [harness.authority.create_timeout_vote(voter, 4) for voter in (0, 1, 2)]
        tc = harness.authority.form_timeout_certificate(4, shares)
        message = TimeoutCertificateMsg(view=4, cert=tc, sender_view=3, high_cert=None)
        pacemaker.handle_timeout_certificate(message)
        assert pacemaker.current_view == 4
        relays = [target for target, payload in sent if isinstance(payload, TimeoutCertificateMsg)]
        assert sorted(relays) == sorted(pacemaker.epoch_leaders(4))
        scheduled = dict(pacemaker._scheduled_start)
        assert scheduled  # the epoch's later view starts
        sent.clear()
        harness.sim.run(until=harness.sim.now + harness.config.view_timeout * 0.1)
        pacemaker.handle_timeout_certificate(message)
        assert sent == []
        assert pacemaker._scheduled_start == scheduled
        assert pacemaker.current_view == 4

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
        pacemaker._sent_wish_shares[2] = object()
        pacemaker._sent_wish_shares[40] = object()
        # Leftover TC schedules (views 2, 9) and the epoch a TC for view 10
        # scheduled (views 10, 11).
        pacemaker._scheduled_start.update({2: 0.0, 9: 0.0, 10: 0.5, 11: 1.0})
        pacemaker.enter_view(5)
        pacemaker.enter_view(10)
        # Everything keyed at or below the entered view is gone; higher
        # entries (still-useful evidence and state) survive.
        assert pacemaker.view_table == {2: 50}
        assert pacemaker._tc_formed == {40}
        assert set(pacemaker._sent_wish_shares) == {40}
        # The view timer read view 11's scheduled start after pruning, and
        # only the current view's start time is kept (share timer, deadline).
        assert set(pacemaker._scheduled_start) == {11}
        assert pacemaker.view_deadline(10) == 1.0
        assert set(pacemaker.start_time) == {10}

    def test_wish_carries_current_view_and_high_cert_evidence(self):
        harness, pacemaker = self._started(replica_id=0)
        sent = []
        harness.replica.send = lambda target, payload, **kw: sent.append(payload)
        pacemaker.synchronize_epoch(2)
        assert sent and all(msg.current_view == pacemaker.current_view for msg in sent)
        assert all(msg.high_cert is not None for msg in sent)


class TestEpochBoundaries:
    """Views that certify cross epoch boundaries without the Wish/TC exchange."""

    @pytest.mark.parametrize("protocol", ["hotstuff-1", "hotstuff-2", "hotstuff-1-basic"])
    @pytest.mark.parametrize("n", [4, 16])
    def test_fault_free_runs_send_no_wish_or_timeout_certificate(self, protocol, n):
        from repro.experiments.runner import ExperimentSpec, run_experiment

        result = run_experiment(
            ExperimentSpec(protocol=protocol, n=n, batch_size=20, duration=0.06, warmup=0.01)
        )
        epoch_length = ProtocolConfig(n=n).epoch_length
        assert min(r.current_view for r in result.replicas) > 3 * epoch_length
        sent = result.network_stats["sent_by_type"]
        assert sent.get("Wish", 0) == 0
        assert sent.get("TimeoutCertificateMsg", 0) == 0

    @staticmethod
    def _deployment(spec, boundary, targets_of):
        """A sim deployment whose leader of ``boundary - 1`` proposes to
        ``targets_of(leaders)`` only, for that one view."""
        from repro.consensus.byzantine import ReplicaBehavior
        from repro.consensus.client import CLIENT_POOL_NODE_ID
        from repro.experiments.runner import latency_model_for, prepare

        sim = Simulator(seed=spec.seed)
        network = SimNetwork(sim, latency=latency_model_for(spec))
        deployment = prepare(
            spec, sim, lambda node_id: network, [*range(spec.n), CLIENT_POOL_NODE_ID],
            client_class=ClientPool,
        )
        leaders = deployment.replicas[0].leaders
        targets = targets_of(leaders)

        class ProposeToSomeOnce(ReplicaBehavior):
            def proposal_targets(self, replica, view, all_targets):
                return list(targets) if view == boundary - 1 else list(all_targets)

        leader = deployment.replicas[leaders.leader_of(boundary - 1)]
        leader.behavior = ProposeToSomeOnce()
        return sim, network, deployment, leader

    def test_a_replica_that_timed_out_at_a_mixed_boundary_rejoins_in_one_round_trip(self):
        """The leader of view 9 proposes to n - f replicas only.  The three
        that voted enter boundary view 10 without wishing; the excluded one
        (the leader of 10, so no proposal for 10 rescues it) times out in 9
        and wishes.  The replicas already in view 10 answer its timeout
        beacon, and it jumps there one round trip after its Wish instead of
        a view_timeout later."""
        from repro.consensus.messages import Wish
        from repro.experiments.runner import ExperimentSpec, start

        boundary = 10
        spec = ExperimentSpec(protocol="hotstuff-1", n=4, batch_size=10, duration=0.06, warmup=0.01)
        sim, network, deployment, _ = self._deployment(
            spec, boundary,
            lambda leaders: [r for r in range(spec.n) if r != leaders.leader_of(boundary)],
        )
        straggler = deployment.replicas[deployment.replicas[0].leaders.leader_of(boundary)]

        wished_at, entered_at = [], []
        send, on_enter_view = straggler.send, straggler.on_enter_view

        def observed_send(target, payload, *args, **kwargs):
            if isinstance(payload, Wish) and payload.view == boundary:
                wished_at.append(sim.now)
            send(target, payload, *args, **kwargs)

        def observed_enter(view):
            if view >= boundary:
                entered_at.append(sim.now)
            on_enter_view(view)

        straggler.send = observed_send
        straggler.on_enter_view = observed_enter
        start(deployment)
        sim.run(until=spec.duration)

        assert wished_at, "the excluded replica never timed out at the boundary"
        assert entered_at
        waited = entered_at[0] - wished_at[0]
        assert 0 < waited <= 2 * spec.base_latency + 1e-9  # one round trip
        assert waited < spec.view_timeout / 4
        assert straggler.pacemaker.jumps == 1

    @pytest.mark.parametrize("reached_offset", [1, 2])
    def test_a_boundary_proposal_that_reaches_one_replica_does_not_stall_the_cluster(
        self, reached_offset
    ):
        """The leader of view 9 sends its proposal to one replica only and falls
        silent.  That replica (the leader of view 10 + offset: an epoch leader
        of boundary 10, or not) votes and enters view 10 without wishing; the
        other two time out and wish.  Two Wishes are short of the quorum of
        three and one replica ahead is short of the f + 1 reports a jump
        needs, so the replica ahead must lend its own Wish share to the TC."""
        from repro.consensus.messages import Propose
        from repro.experiments.runner import ExperimentSpec, start

        boundary = 10
        spec = ExperimentSpec(
            protocol="hotstuff-1", n=4, batch_size=10, duration=0.3, warmup=0.01,
            view_timeout=0.01,
        )
        sim, network, deployment, silent = self._deployment(
            spec, boundary, lambda leaders: [leaders.leader_of(boundary + reached_offset)]
        )

        honest = [r for r in deployment.replicas if r is not silent]
        committed_at_halt = []
        broadcast = silent.broadcast_replicas

        def propose_then_fall_silent(payload, *args, **kwargs):
            broadcast(payload, *args, **kwargs)
            if isinstance(payload, Propose) and payload.view == boundary - 1:
                silent.halt()
                committed_at_halt.extend(len(r.ledger.committed.blocks()) for r in honest)

        silent.broadcast_replicas = propose_then_fall_silent
        start(deployment)
        sim.run(until=spec.duration)

        assert committed_at_halt, "the leader of view 9 never proposed"
        assert min(r.current_view for r in honest) > boundary + 2
        assert min(len(r.ledger.committed.blocks()) for r in honest) > max(committed_at_halt) + 5
        assert network.stats.sent_by_type.get("TimeoutCertificateMsg", 0) > 0


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
