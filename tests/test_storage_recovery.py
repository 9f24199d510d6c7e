"""Durable storage: WAL round-trips, durable blockstore, pruning, fetch path,
and crash recovery (restore + never-vote-twice)."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.consensus.certificates import CertKind
from repro.consensus.messages import FetchRequest, FetchResponse
from repro.consensus.metrics import MetricsCollector
from repro.core.slotting import SlottedHotStuff1Replica
from repro.core.streamlined import HotStuff1Replica
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.faults.plan import FaultEvent, FaultPlan
from repro.ledger.blockstore import BlockStore
from repro.ledger.kvstore import KVStateMachine
from repro.storage import (
    DurableBlockStore,
    FileLogBackend,
    MemoryLogBackend,
    RecoveryManager,
    ReplicaStore,
    WriteAheadLog,
)
from repro.storage.backend import parse_jsonl_lines
from repro.storage.wal import WalState
from tests.conftest import build_chain, certificate_for, make_txn
from tests.helpers import ReplicaHarness


class TestLogBackends:
    def test_memory_backend_appends_and_replays_in_order(self):
        backend = MemoryLogBackend()
        backend.append({"a": 1})
        backend.append({"b": 2})
        assert backend.replay() == [{"a": 1}, {"b": 2}]
        backend.clear()
        assert backend.replay() == []

    def test_file_backend_survives_reopen(self, tmp_path):
        path = os.path.join(tmp_path, "log.jsonl")
        first = FileLogBackend(path)
        first.append({"n": 1})
        first.append({"n": 2})
        first.close()
        reopened = FileLogBackend(path)
        assert reopened.replay() == [{"n": 1}, {"n": 2}]
        reopened.append({"n": 3})
        assert [record["n"] for record in reopened.replay()] == [1, 2, 3]
        reopened.close()

    def test_file_backend_tolerates_torn_final_line(self, tmp_path):
        path = os.path.join(tmp_path, "log.jsonl")
        backend = FileLogBackend(path)
        backend.append({"ok": True})
        backend.close()
        with open(path, "a") as handle:
            handle.write('{"torn": tru')  # crash mid-append
        reopened = FileLogBackend(path)
        assert reopened.replay() == [{"ok": True}]
        reopened.close()

    def test_jsonl_lines_skip_torn_corrupt_and_blank_lines(self):
        lines = [b'{"n": 1}\n', b"\n", b'{"n": 2', b"\xff\xfe\n", b'{"n": 3}\n', "  \n",
                 '{"n": 4}']
        assert parse_jsonl_lines(lines) == [{"n": 1}, {"n": 3}, {"n": 4}]


class TestWriteAheadLog:
    def test_records_round_trip_and_reduce(self):
        harness = ReplicaHarness(HotStuff1Replica)
        blocks = build_chain(harness.replica.block_store, 3)
        cert = harness.certificate(CertKind.PREPARE, blocks[-1])
        wal = WriteAheadLog(MemoryLogBackend())
        wal.append_vote(1, 1, blocks[0].block_hash)
        wal.append_vote(2, 1, blocks[1].block_hash)
        wal.append_high_cert(cert)
        wal.append_commit(blocks[0].block_hash)
        wal.append_commit(blocks[1].block_hash)

        state = wal.reduce()
        assert state.last_voted_view == 2
        assert state.voted == {(1, 1), (2, 1)}
        assert state.highest_voted_hash == blocks[1].block_hash
        assert state.high_cert == cert  # certificate round-trips exactly
        assert state.committed_hashes == [blocks[0].block_hash, blocks[1].block_hash]

    def test_reduce_keeps_highest_certificate_and_dedupes_commits(self):
        harness = ReplicaHarness(HotStuff1Replica)
        blocks = build_chain(harness.replica.block_store, 2)
        low = harness.certificate(CertKind.PREPARE, blocks[0])
        high = harness.certificate(CertKind.PREPARE, blocks[1])
        wal = WriteAheadLog(MemoryLogBackend())
        wal.append_high_cert(high)
        wal.append_high_cert(low)  # stale update must not win
        wal.append_commit(blocks[0].block_hash)
        wal.append_commit(blocks[0].block_hash)
        state = wal.reduce()
        assert state.high_cert == high
        assert state.committed_hashes == [blocks[0].block_hash]

    def test_wal_survives_file_reopen(self, tmp_path):
        harness = ReplicaHarness(HotStuff1Replica)
        blocks = build_chain(harness.replica.block_store, 1)
        store = ReplicaStore.at_path(tmp_path, 0)
        store.record_vote(3, 1, blocks[0].block_hash)
        store.record_commit(blocks[0].block_hash)
        store.close()
        reopened = ReplicaStore.at_path(tmp_path, 0)
        state = reopened.load_state()
        assert state.last_voted_view == 3
        assert state.committed_hashes == [blocks[0].block_hash]
        reopened.close()

    def test_suspended_appends_are_dropped(self):
        store = ReplicaStore.memory()
        with store.suspended():
            store.record_vote(1, 1, "deadbeef")
        store.record_vote(2, 1, "cafe")
        assert [record.view for record in store.wal.records()] == [2]

    def test_entered_view_and_peer_views_round_trip_and_reduce(self):
        wal = WriteAheadLog(MemoryLogBackend())
        wal.append_entered_view(5)
        wal.append_entered_view(9)
        wal.append_entered_view(7)  # out-of-order replay still folds to max
        wal.append_peer_views({1: 12, 2: 9})
        wal.append_peer_views({2: 15, 3: 4})
        state = wal.reduce()
        assert state.entered_view == 9
        assert state.peer_views == {1: 12, 2: 15, 3: 4}

    def test_peer_view_keys_survive_json_file_round_trip(self, tmp_path):
        store = ReplicaStore.at_path(tmp_path, 0)
        store.record_entered_view(21)
        store.record_peer_views({1: 20, 3: 22})
        store.close()
        reopened = ReplicaStore.at_path(tmp_path, 0)
        state = reopened.load_state()
        assert state.entered_view == 21
        assert state.peer_views == {1: 20, 3: 22}  # int keys, not strings
        reopened.close()

    def test_resume_view_is_past_entered_views_not_just_voted_ones(self):
        from repro.storage.recovery import RecoveryManager

        wal = WriteAheadLog(MemoryLogBackend())
        wal.append_vote(3, 1, "a" * 64)
        wal.append_entered_view(41)  # circled to view 41 on timeouts, no votes
        state = wal.reduce()
        assert RecoveryManager.resume_view(state) == 42


class TestDurableBlockStore:
    def test_blocks_persist_across_incarnations(self):
        backend = MemoryLogBackend()
        first = DurableBlockStore(backend)
        blocks = build_chain(first, 4, txns_per_block=2)
        rebuilt = DurableBlockStore(backend)
        assert len(rebuilt) == len(first)
        assert rebuilt.extends(blocks[-1].block_hash, blocks[0].block_hash)
        # transactions round-trip through the codec
        assert rebuilt.get(blocks[1].block_hash).transactions == blocks[1].transactions

    def test_duplicate_add_is_not_persisted_twice(self):
        backend = MemoryLogBackend()
        store = DurableBlockStore(backend)
        [block] = build_chain(store, 1)
        store.add(block)
        store.add(block)
        assert len(backend) == 1

    def test_one_block_object_is_encoded_once_for_every_store(self, monkeypatch):
        import repro.storage.blockstore as durable

        encoded = []
        record_of = durable.record_of
        monkeypatch.setattr(durable, "record_of", lambda block: encoded.append(block) or record_of(block))
        [block] = build_chain(BlockStore(), 1, txns_per_block=3)
        backends = [MemoryLogBackend() for _ in range(4)]
        for backend in backends:
            DurableBlockStore(backend).add(block)
        assert encoded == [block]
        assert all(backend.replay() == backends[0].replay() for backend in backends)

    def test_two_bodies_under_one_hash_replay_as_their_own(self):
        """A received block is not re-hashed, so two bodies can carry one
        hash; each store must log the body it was given."""
        [block] = build_chain(BlockStore(), 1, txns_per_block=2)
        other = dataclasses.replace(block, transactions=(make_txn(7, key="other"),))
        assert other.block_hash == block.block_hash and other != block
        stores = [DurableBlockStore(MemoryLogBackend()) for _ in range(2)]
        for store, body in zip(stores, (block, other)):
            store.add(body)
        for store, body in zip(stores, (block, other)):
            assert DurableBlockStore(store._backend).get(block.block_hash).transactions == body.transactions


class TestForkPruning:
    def _fork(self, store: BlockStore):
        from repro.ledger.block import Block

        main = build_chain(store, 3)
        fork = Block.build(
            view=1, slot=1, parent_hash=store.genesis.block_hash, proposer=3
        )
        store.add(fork)
        orphan_child = Block.build(
            view=2, slot=1, parent_hash=fork.block_hash, proposer=3
        )
        store.add(orphan_child)
        return main, fork, orphan_child

    def test_prune_siblings_removes_fork_subtree_and_counts(self, block_store):
        main, fork, orphan_child = self._fork(block_store)
        pruned = block_store.prune_siblings_of(main[0])
        assert set(pruned) == {fork.block_hash, orphan_child.block_hash}
        assert block_store.pruned_count == 2
        assert fork.block_hash not in block_store
        assert orphan_child.block_hash not in block_store
        # the committed chain and its ancestry queries are untouched
        assert block_store.extends(main[-1].block_hash, main[0].block_hash)
        assert block_store.children_of(block_store.genesis.block_hash) == [block_store.get(main[0].block_hash)]

    def test_commit_prunes_forks_and_drops_their_metadata(self):
        harness = ReplicaHarness(HotStuff1Replica)
        replica = harness.replica
        main, fork, orphan_child = self._fork(replica.block_store)
        fork_cert = harness.certificate(CertKind.PREPARE, fork)
        replica.record_certificate(fork_cert)
        assert fork.block_hash in replica.certs_by_block

        replica.commit_up_to(main[0])
        assert fork.block_hash not in replica.block_store
        assert fork.block_hash not in replica.certs_by_block
        assert replica.block_store.pruned_count == 2

    def test_pruned_count_reported_in_metrics(self):
        plan = FaultPlan.single_crash(1, at=0.1, down_for=0.05)
        spec = ExperimentSpec(
            protocol="hotstuff-1", n=4, batch_size=10, duration=0.4, warmup=0.1,
            faults=plan.to_dict(),
        )
        result = run_experiment(spec)
        assert "pruned_blocks" in result.summary.as_dict()
        assert result.summary.pruned_blocks >= 0


class TestFetchPath:
    def _setup(self):
        harness = ReplicaHarness(HotStuff1Replica)
        # Build the chain in a *separate* store so the replica does not know it.
        remote = BlockStore(genesis=harness.replica.block_store.genesis)
        chain = build_chain(remote, 3)
        return harness, chain

    def _fetch_requests_sent(self, harness):
        return harness.network.stats.sent_by_type.get("FetchRequest", 0)

    def test_fetch_response_insertion_is_idempotent(self):
        harness, chain = self._setup()
        replica = harness.replica
        response = FetchResponse(block=chain[0])
        replica.handle_fetch_response(response, sender=1)
        assert chain[0].block_hash in replica.block_store
        before = len(replica.block_store)
        requests_before = self._fetch_requests_sent(harness)
        replica.handle_fetch_response(response, sender=1)  # duplicate response
        assert len(replica.block_store) == before
        assert self._fetch_requests_sent(harness) == requests_before

    def test_fetch_walks_missing_ancestry_back_to_known_blocks(self):
        harness, chain = self._setup()
        replica = harness.replica
        # Deliver the *newest* block first: its parent chain is unknown.
        replica.handle_fetch_response(FetchResponse(block=chain[2]), sender=1)
        assert self._fetch_requests_sent(harness) == 1  # asked for chain[1]
        replica.handle_fetch_response(FetchResponse(block=chain[1]), sender=1)
        assert self._fetch_requests_sent(harness) == 2  # asked for chain[0]
        replica.handle_fetch_response(FetchResponse(block=chain[0]), sender=1)
        # chain[0]'s parent is genesis — already known, no further request
        assert self._fetch_requests_sent(harness) == 2
        assert replica.block_store.extends(chain[2].block_hash, chain[0].block_hash)

    def test_lagging_replica_converges_via_catch_up(self):
        """A replica isolated mid-run (pause) converges to the cluster's
        committed prefix after resuming, through FetchRequest/FetchResponse."""
        plan = FaultPlan(
            events=[
                FaultEvent(at=0.15, action="pause", replica=2),
                FaultEvent(at=0.4, action="resume", replica=2),
            ]
        )
        spec = ExperimentSpec(
            protocol="hotstuff-1", n=4, batch_size=10, duration=0.9, warmup=0.1,
            faults=plan.to_dict(),
        )
        result = run_experiment(spec)
        chains = [
            [block.block_hash for block in replica.ledger.committed.blocks()]
            for replica in result.replicas
        ]
        reference = max(chains, key=len)
        lagging = chains[2]
        assert lagging == reference[: len(lagging)]
        # converged: within a handful of in-flight blocks of the longest chain
        assert len(reference) - len(lagging) <= 5
        assert result.network_stats["sent_by_type"].get("FetchRequest", 0) > 0


class TestRecoveryManager:
    def _populated_store(self, harness):
        """A store as a crashed replica would have left it."""
        store = ReplicaStore.memory()
        blocks = build_chain(store.open_blockstore(), 3, txns_per_block=2)
        cert = harness.certificate(CertKind.PREPARE, blocks[2])
        store.record_vote(1, 1, blocks[0].block_hash)
        store.record_vote(2, 1, blocks[1].block_hash)
        store.record_vote(3, 1, blocks[2].block_hash)
        store.record_high_cert(cert)
        store.record_commit(blocks[0].block_hash)
        store.record_commit(blocks[1].block_hash)
        return store, blocks, cert

    def _fresh_replica(self, harness, store, replica_id=1):
        return HotStuff1Replica(
            replica_id,
            harness.sim,
            harness.network,
            harness.config,
            harness.authority,
            harness.leaders,
            KVStateMachine(),
            harness.mempool,
            MetricsCollector(),
            block_store=store.open_blockstore(),
            store=store,
        )

    def test_restore_rebuilds_votes_certificates_and_committed_prefix(self):
        harness = ReplicaHarness(HotStuff1Replica)
        store, blocks, cert = self._populated_store(harness)
        replica = self._fresh_replica(harness, store)
        state = RecoveryManager(store).restore(replica)

        assert replica.last_voted_view == 3  # handle_propose's re-vote guard
        assert replica.high_cert == cert
        committed = [block.block_hash for block in replica.ledger.committed.blocks()]
        assert committed == [blocks[0].block_hash, blocks[1].block_hash]
        assert RecoveryManager.resume_view(state) == blocks[2].view + 1

    def test_restore_is_silent_in_the_wal(self):
        harness = ReplicaHarness(HotStuff1Replica)
        store, blocks, cert = self._populated_store(harness)
        records_before = len(store.wal.backend.replay())
        replica = self._fresh_replica(harness, store)
        RecoveryManager(store).restore(replica)
        assert len(store.wal.backend.replay()) == records_before

    def test_restored_state_machine_matches_reexecution(self):
        harness = ReplicaHarness(HotStuff1Replica)
        store, blocks, cert = self._populated_store(harness)
        replica = self._fresh_replica(harness, store)
        RecoveryManager(store).restore(replica)

        reference = KVStateMachine()
        for block in blocks[:2]:
            reference.execute_block(block.transactions)
        assert replica.ledger.state_digest() == reference.state_digest()

    def test_restore_re_prunes_resurrected_fork_blocks(self):
        from repro.ledger.block import Block

        harness = ReplicaHarness(HotStuff1Replica)
        store, blocks, cert = self._populated_store(harness)
        # A fork block the dead incarnation pruned still sits in the
        # append-only block log and is replayed on open.
        fork = Block.build(
            view=1, slot=1,
            parent_hash=harness.replica.block_store.genesis.block_hash,
            proposer=3,
        )
        store.open_blockstore().add(fork)
        replica = self._fresh_replica(harness, store)
        assert fork.block_hash in replica.block_store  # resurrected by replay
        RecoveryManager(store).restore(replica)
        assert fork.block_hash not in replica.block_store  # re-pruned

    def test_catch_up_requests_certified_but_missing_block(self):
        harness = ReplicaHarness(HotStuff1Replica)
        # Certificate for a block the store never persisted.
        remote = BlockStore(genesis=harness.replica.block_store.genesis)
        blocks = build_chain(remote, 2)
        cert = harness.certificate(CertKind.PREPARE, blocks[1])
        store = ReplicaStore.memory()
        store.record_high_cert(cert)
        replica = self._fresh_replica(harness, store, replica_id=2)
        manager = RecoveryManager(store)
        manager.restore(replica)
        manager.catch_up(replica)
        assert harness.network.stats.sent_by_type.get("FetchRequest", 0) == 1


class TestNeverVoteTwice:
    @pytest.mark.parametrize("protocol", ["hotstuff-1", "hotstuff-1-slotting", "hotstuff-1-basic"])
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_no_replica_equivocates_across_a_crash(self, seed, protocol):
        """Property: across every incarnation of every replica, the WAL shows
        at most one vote per (view, slot) — a restarted replica never votes
        twice in a view (or slot) it voted in before the crash."""
        plan = FaultPlan.single_crash(1, at=0.12, down_for=0.08)
        spec = ExperimentSpec(
            protocol=protocol, n=4, batch_size=10, duration=0.6, warmup=0.1,
            seed=seed, faults=plan.to_dict(),
        )
        result = run_experiment(spec)
        for replica in result.replicas:
            votes = {}
            for record in replica.store.wal.records():
                if record.kind != "vote":
                    continue
                key = (record.view, record.slot)
                assert votes.setdefault(key, record.block_hash) == record.block_hash, (
                    f"replica {replica.replica_id} voted twice in view/slot {key}"
                )

    def test_restored_replica_refuses_revote_in_voted_view(self):
        harness = ReplicaHarness(HotStuff1Replica)
        store = ReplicaStore.memory()
        store.record_vote(5, 1, "aa" * 32)
        replica = HotStuff1Replica(
            1,
            harness.sim,
            harness.network,
            harness.config,
            harness.authority,
            harness.leaders,
            KVStateMachine(),
            harness.mempool,
            MetricsCollector(),
            block_store=store.open_blockstore(),
            store=store,
        )
        RecoveryManager(store).restore(replica)
        assert replica.last_voted_view == 5  # handle_propose's re-vote guard

    def test_restored_slotting_replica_guards_the_slots_of_its_last_voted_view(self):
        replica = ReplicaHarness(SlottedHotStuff1Replica).replica
        replica.restore_vote_state(WalState(last_voted_view=5, voted={(4, 1), (5, 1), (5, 2)}))
        assert (replica.last_voted_view, replica._voted_slots) == (5, {1, 2})
        assert replica._has_voted(5, 2) and replica._has_voted(4, 3)
        assert not replica._has_voted(5, 3) and not replica._has_voted(6, 1)
