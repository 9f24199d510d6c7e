"""Checkpointing subsystem: snapshots, log compaction, state transfer.

Covers the invariants the subsystem exists to uphold:

* snapshots capture the *committed* state only (speculation never leaks in)
  and round-trip to an identical digest for every state machine;
* after compaction, restart replays the snapshot plus the post-snapshot
  suffix — never the whole history (asserted on WAL record counts);
* a digest or certificate mismatch on a transferred snapshot falls back to
  block-by-block fetch; a fetch for a compacted block is answered with the
  covering snapshot;
* crash-during-snapshot and crash-after-compaction keep the never-vote-twice
  and committed-prefix invariants.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.checkpoint.manager import HOOK_MID_SNAPSHOT, HOOK_POST_COMPACTION, CheckpointManager
from repro.checkpoint.snapshot import Snapshot, verify_snapshot
from repro.consensus.certificates import CertKind
from repro.consensus.messages import SnapshotRequest, SnapshotResponse
from repro.consensus.metrics import MetricsCollector
from repro.core.streamlined import HotStuff1Replica
from repro.errors import ForkError
from repro.experiments.executor import execute_scenario
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.experiments.scenarios import snapshot_recovery_spec
from repro.faults.plan import SNAPSHOT_HOOKS, FaultEvent, FaultPlan
from repro.ledger.block import Block
from repro.ledger.blockstore import BlockStore
from repro.ledger.kvstore import KVStateMachine
from repro.ledger.ledger import CommittedLedger
from repro.ledger.speculative import SpeculativeLedger
from repro.ledger.tpcc_state import TPCCStateMachine
from repro.live.codec import decode_message, encode_message, from_record, record_of
from repro.sim.rng import SeededRng
from repro.storage import MemoryLogBackend, RecoveryManager, ReplicaStore, WriteAheadLog
from repro.storage.backend import read_jsonl_log
from repro.storage.store import inspect_storage_dir
from repro.workloads.tpcc import TPCCWorkload
from tests.conftest import build_chain, make_txn
from tests.helpers import ReplicaHarness


class TestStateMachineSnapshots:
    @pytest.mark.parametrize(
        "factory, operations",
        [
            (
                lambda: KVStateMachine(),
                [("ycsb_write", {"key": "user7", "value": "v7"}),
                 ("ycsb_rmw", {"key": "user7", "value": "v8"})],
            ),
            (
                lambda: TPCCStateMachine(warehouses=1, items=20),
                [("tpcc_payment", {"w_id": 1, "d_id": 2, "c_id": 3, "amount": 12.5}),
                 ("tpcc_new_order", {"w_id": 1, "d_id": 1, "c_id": 1,
                                     "items": [{"i_id": 5, "qty": 2}]})],
            ),
        ],
    )
    def test_snapshot_round_trips_to_identical_digest(self, factory, operations):
        from repro.ledger.transaction import Transaction

        machine = factory()
        for index, (operation, payload) in enumerate(operations):
            machine.apply(
                Transaction.create(
                    client_id=1, operation=operation, payload=payload, txn_id=500 + index
                )
            )
        payload = machine.snapshot_state()
        digest = machine.state_digest()
        # the payload is JSON-serializable as-is (tuple keys are tagged)
        payload = json.loads(json.dumps(payload))
        assert type(machine).payload_digest(payload) == digest
        restored = factory()
        restored.restore_state(payload)
        assert restored.state_digest() == digest

    def test_restored_machine_keeps_executing_and_undoing(self):
        machine = KVStateMachine()
        machine.apply(make_txn(1))
        restored = KVStateMachine()
        restored.restore_state(json.loads(json.dumps(machine.snapshot_state())))
        execution = restored.execute_block([make_txn(2)])
        assert execution.successes == [True]
        restored.undo(execution.changes)
        assert restored.state_digest() == machine.state_digest()


class TestCommittedSnapshotExcludesSpeculation:
    def test_speculated_suffix_is_excluded_and_reinstated(self, block_store):
        ledger = SpeculativeLedger(KVStateMachine(), block_store)
        chain = build_chain(block_store, 3, txns_per_block=2)
        ledger.commit(chain[0])
        committed_digest = ledger.state_digest()
        ledger.speculate(chain[1])
        speculated_digest = ledger.state_digest()
        assert speculated_digest != committed_digest

        payload, digest = ledger.snapshot_committed_state()
        assert digest == committed_digest  # no speculative leak
        assert KVStateMachine.payload_digest(payload) == committed_digest
        # the suffix is still live and still undoable afterwards
        assert ledger.state_digest() == speculated_digest
        ledger.rollback_to_committed_head()
        assert ledger.state_digest() == committed_digest


    def test_tpcc_two_block_chain_suffix_is_excluded_and_reinstated(self, block_store):
        """The same over two TPC-C blocks, whose transactions also write the
        index tables: the speculated block's one undo log is undone for the
        capture and re-created by re-executing the block."""
        workload = TPCCWorkload(warehouses=1, items=50)
        rng = SeededRng(3)
        genesis = block_store.genesis
        first = Block.build(1, 1, genesis.block_hash, 0, [workload.next_transaction(1, rng) for _ in range(12)])
        second = Block.build(2, 1, first.block_hash, 0, [workload.next_transaction(1, rng) for _ in range(12)])
        block_store.add(first)
        block_store.add(second)
        ledger = SpeculativeLedger(workload.make_state_machine(), block_store)
        ledger.commit(first)
        committed_digest = ledger.state_digest()
        ledger.speculate(second)
        speculated_digest = ledger.state_digest()
        assert speculated_digest != committed_digest

        payload, digest = ledger.snapshot_committed_state()
        assert digest == committed_digest  # no speculative leak
        assert TPCCStateMachine.payload_digest(payload) == committed_digest
        assert ledger.state_digest() == speculated_digest
        ledger.rollback_to_committed_head()
        assert ledger.state_digest() == committed_digest

        # Speculated again, captured again, then promoted: the committed state
        # is what executing both blocks on a fresh machine gives.
        ledger.speculate(second)
        assert ledger.snapshot_committed_state()[1] == committed_digest
        assert ledger.commit(second).was_speculated
        reference = workload.make_state_machine()
        for block in (first, second):
            reference.execute_block(block.transactions)
        assert ledger.state_digest() == reference.state_digest() == speculated_digest


class TestCommittedLedgerBase:
    def test_restore_base_and_append_over_it(self, block_store):
        chain = build_chain(block_store, 3)
        ledger = CommittedLedger()
        ledger.restore_base([block.block_hash for block in chain[:2]])
        assert len(ledger) == 2
        assert ledger.head is None
        assert ledger.head_hash == chain[1].block_hash
        assert chain[0].block_hash in ledger
        assert ledger.position_of(chain[1].block_hash) == 1
        assert ledger.append(chain[2]) == 2
        assert ledger.hashes() == [block.block_hash for block in chain]

    def test_append_not_extending_the_base_forks(self, block_store):
        chain = build_chain(block_store, 2)
        ledger = CommittedLedger()
        ledger.restore_base([chain[0].block_hash])
        with pytest.raises(ForkError):
            # chain[1] extends chain[0], a fresh unrelated block does not
            from repro.ledger.block import Block

            ledger.append(Block.build(view=9, slot=1, parent_hash="ab" * 32, proposer=0))

    def test_restore_base_requires_an_empty_ledger(self, block_store):
        chain = build_chain(block_store, 2)
        ledger = CommittedLedger()
        ledger.append(chain[0])
        with pytest.raises(ForkError):
            ledger.restore_base([chain[0].block_hash])

    def test_collapse_below_demotes_blocks_keeping_positions(self, block_store):
        chain = build_chain(block_store, 4)
        ledger = CommittedLedger()
        for block in chain:
            ledger.append(block)
        assert ledger.collapse_below(3) == 3
        assert ledger.base_height == 3
        assert len(ledger.blocks()) == 1
        assert len(ledger) == 4
        assert ledger.position_of(chain[0].block_hash) == 0
        assert ledger.hashes() == [block.block_hash for block in chain]
        assert ledger.head_hash == chain[3].block_hash


def _sealed_snapshot(harness, length=3, txns_per_block=2):
    """A valid snapshot built from a donor chain executed on a fresh machine."""
    donor_store = BlockStore(genesis=harness.replica.block_store.genesis)
    chain = build_chain(donor_store, length, txns_per_block=txns_per_block)
    machine = KVStateMachine()
    for block in chain:
        machine.execute_block(block.transactions)
    return Snapshot(
        height=length,
        block=chain[-1],
        cert=harness.certificate(CertKind.PREPARE, chain[-1]),
        state_digest=machine.state_digest(),
        state=machine.snapshot_state(),
        committed_hashes=[block.block_hash for block in chain],
    ), chain, machine


class TestSnapshotVerification:
    def test_valid_snapshot_passes(self):
        harness = ReplicaHarness(HotStuff1Replica)
        snapshot, _, _ = _sealed_snapshot(harness)
        assert verify_snapshot(snapshot, harness.authority) is None

    def test_rejections(self):
        harness = ReplicaHarness(HotStuff1Replica)
        snapshot, chain, machine = _sealed_snapshot(harness)
        assert verify_snapshot(None, harness.authority) == "no snapshot offered"
        tampered_state = replace(snapshot, state_digest="0" * 64)
        assert "digest mismatch" in verify_snapshot(tampered_state, harness.authority)
        short_chain = replace(snapshot, committed_hashes=snapshot.committed_hashes[:-1])
        assert "height" in verify_snapshot(short_chain, harness.authority)
        wrong_cert = replace(
            snapshot, cert=harness.certificate(CertKind.PREPARE, chain[0])
        )
        assert "certificate" in verify_snapshot(wrong_cert, harness.authority)

    def test_wire_round_trip_preserves_verifiability(self):
        harness = ReplicaHarness(HotStuff1Replica)
        snapshot, _, _ = _sealed_snapshot(harness)
        rebuilt = from_record(json.loads(json.dumps(record_of(snapshot))), Snapshot)
        assert rebuilt == snapshot
        assert verify_snapshot(rebuilt, harness.authority) is None


class TestStateTransferHandlers:
    def _fetch_requests(self, harness):
        return harness.network.stats.sent_by_type.get("FetchRequest", 0)

    def test_valid_snapshot_installs_and_rebases(self):
        harness = ReplicaHarness(HotStuff1Replica)
        replica = harness.replica
        snapshot, chain, machine = _sealed_snapshot(harness)
        replica.handle_snapshot_response(
            SnapshotResponse(responder=1, snapshot=snapshot), sender=1
        )
        assert replica.snapshots_installed == 1
        assert len(replica.ledger.committed) == 3
        assert replica.ledger.committed_head_hash == chain[-1].block_hash
        assert replica.ledger.state_digest() == machine.state_digest()
        assert chain[-1].block_hash in replica.block_store

    def test_digest_mismatch_falls_back_to_block_fetch(self):
        harness = ReplicaHarness(HotStuff1Replica)
        replica = harness.replica
        snapshot, chain, _ = _sealed_snapshot(harness)
        corrupted = replace(snapshot, state={"tables": {"usertable": [["user0", "evil"]]}})
        # give the replica a high certificate pointing at a missing block, so
        # the fallback has something to fetch
        replica.record_certificate(harness.certificate(CertKind.PREPARE, chain[-1]))
        before = self._fetch_requests(harness)
        replica.handle_snapshot_response(
            SnapshotResponse(responder=1, snapshot=corrupted), sender=1
        )
        assert replica.snapshots_rejected == 1
        assert replica.snapshots_installed == 0
        assert len(replica.ledger.committed) == 0  # nothing adopted
        assert self._fetch_requests(harness) == before + 1  # block-by-block path

    def test_conflicting_local_prefix_is_rejected(self, block_store):
        harness = ReplicaHarness(HotStuff1Replica)
        replica = harness.replica
        snapshot, _, _ = _sealed_snapshot(harness)
        # locally commit a block that is NOT in the snapshot chain
        local = build_chain(replica.block_store, 1, txns_per_block=0, start_view=9)
        replica.ledger.commit(local[0])
        replica.handle_snapshot_response(
            SnapshotResponse(responder=1, snapshot=snapshot), sender=1
        )
        assert replica.snapshots_rejected == 1
        assert replica.ledger.committed_head_hash == local[0].block_hash

    def test_empty_response_only_falls_back(self):
        harness = ReplicaHarness(HotStuff1Replica)
        replica = harness.replica
        replica.handle_snapshot_response(SnapshotResponse(responder=1), sender=1)
        assert replica.snapshots_rejected == 0
        assert replica.snapshots_installed == 0

    def test_request_served_from_durable_store(self):
        harness = ReplicaHarness(HotStuff1Replica)
        replica = harness.replica
        store = ReplicaStore.memory()
        replica.store = store
        snapshot, _, _ = _sealed_snapshot(harness)
        store.save_snapshot(snapshot)
        sent = []
        replica.send = lambda target, payload, **kw: sent.append((target, payload))
        replica.handle_snapshot_request(SnapshotRequest(requester=2, have_height=0), sender=2)
        assert sent and isinstance(sent[0][1], SnapshotResponse)
        assert sent[0][1].snapshot == snapshot
        sent.clear()
        # nothing newer than the requester's height -> empty response
        replica.handle_snapshot_request(SnapshotRequest(requester=2, have_height=3), sender=2)
        assert sent[0][1].snapshot is None

    def test_install_prunes_distributed_pool_below_txn_horizon(self):
        """Regression: a snapshot-rejoining replica with its own (distributed)
        pool must drop every transaction at or below the snapshot's committed
        txn-id horizon, or it re-proposes already-committed transactions the
        moment it next leads."""
        from repro.consensus.mempool import Mempool

        harness = ReplicaHarness(HotStuff1Replica)
        replica = harness.replica
        replica.mempool = Mempool(shared=False)
        for index in range(1, 6):  # txn ids 1_000_001 .. 1_000_005
            replica.mempool.add(make_txn(index))
        snapshot, _, _ = _sealed_snapshot(harness)
        snapshot = replace(snapshot, txn_horizon=1_000_003)
        replica.handle_snapshot_response(
            SnapshotResponse(responder=1, snapshot=snapshot), sender=1
        )
        assert replica.snapshots_installed == 1
        remaining = [txn.txn_id for txn in replica.mempool.next_batch(10)]
        assert remaining == [1_000_004, 1_000_005]

    def test_shared_pool_is_never_pruned_by_a_horizon(self):
        """The one shared pool holds other replicas' pending transactions;
        one replica's snapshot install must not discard them."""
        harness = ReplicaHarness(HotStuff1Replica)
        replica = harness.replica
        for index in range(1, 4):
            replica.mempool.add(make_txn(index))
        snapshot, _, _ = _sealed_snapshot(harness)
        snapshot = replace(snapshot, txn_horizon=2_000_000)
        replica.handle_snapshot_response(
            SnapshotResponse(responder=1, snapshot=snapshot), sender=1
        )
        assert replica.snapshots_installed == 1
        assert replica.mempool.peek_count() == 3

    def test_txn_horizon_survives_the_wire_and_the_snapshot_log(self):
        harness = ReplicaHarness(HotStuff1Replica)
        snapshot, _, _ = _sealed_snapshot(harness)
        snapshot = replace(snapshot, txn_horizon=42)
        response = decode_message(encode_message(SnapshotResponse(responder=1, snapshot=snapshot)))
        assert response.snapshot.txn_horizon == 42
        assert from_record(json.loads(json.dumps(record_of(snapshot))), Snapshot).txn_horizon == 42

    def test_oversize_snapshot_is_declined_not_dropped(self, monkeypatch):
        """Regression: a snapshot too large for one wire frame used to be
        handed to the transport anyway, where FrameTooLargeError dropped it
        and the requester waited forever.  The sender must decline (empty
        response -> immediate block-fetch fallback) and count the decline."""
        import repro.live.codec as codec

        harness = ReplicaHarness(HotStuff1Replica)
        replica = harness.replica
        store = ReplicaStore.memory()
        replica.store = store
        snapshot, _, _ = _sealed_snapshot(harness)
        store.save_snapshot(snapshot)
        sent = []
        replica.send = lambda target, payload, **kw: sent.append(payload)

        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 256)
        replica.handle_snapshot_request(SnapshotRequest(requester=2, have_height=0), sender=2)
        assert sent[-1].snapshot is None  # declined, not dropped
        assert replica.snapshots_declined_oversize == 1

        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 1 << 20)
        replica.handle_snapshot_request(SnapshotRequest(requester=2, have_height=0), sender=2)
        assert sent[-1].snapshot == snapshot  # fits again -> served
        assert replica.snapshots_declined_oversize == 1

    def test_declined_transfer_falls_back_to_block_fetch(self):
        """The requester side of the decline: an empty response must prime
        the block-by-block path toward its highest known certificate."""
        harness = ReplicaHarness(HotStuff1Replica)
        replica = harness.replica
        snapshot, chain, _ = _sealed_snapshot(harness)
        replica.record_certificate(harness.certificate(CertKind.PREPARE, chain[-1]))
        fetches = harness.network.stats.sent_by_type.get("FetchRequest", 0)
        replica.handle_snapshot_response(SnapshotResponse(responder=1), sender=1)
        assert replica.snapshots_installed == 0
        assert harness.network.stats.sent_by_type.get("FetchRequest", 0) == fetches + 1

    def test_fetch_of_compacted_block_is_answered_with_the_snapshot(self):
        from repro.consensus.messages import FetchRequest

        harness = ReplicaHarness(HotStuff1Replica)
        replica = harness.replica
        store = ReplicaStore.memory()
        replica.store = store
        snapshot, chain, _ = _sealed_snapshot(harness)
        store.save_snapshot(snapshot)
        sent = []
        replica.send = lambda target, payload, **kw: sent.append((target, payload))
        # chain[0] is covered by the snapshot but not in the replica's tree
        replica.handle_fetch_request(
            FetchRequest(block_hash=chain[0].block_hash, requester=2), sender=2
        )
        assert sent and isinstance(sent[0][1], SnapshotResponse)
        assert sent[0][1].snapshot == snapshot
        sent.clear()
        replica.handle_fetch_request(FetchRequest(block_hash="55" * 32, requester=2), sender=2)
        assert sent == []  # unknown and uncovered: silence, as before


class TestWalCompaction:
    def test_compact_below_keeps_only_the_suffix(self):
        harness = ReplicaHarness(HotStuff1Replica)
        blocks = build_chain(harness.replica.block_store, 6)
        cert = harness.certificate(CertKind.PREPARE, blocks[-1])
        wal = WriteAheadLog(MemoryLogBackend())
        for index, block in enumerate(blocks):
            wal.append_vote(block.view, 1, block.block_hash)
            wal.append_commit(block.block_hash)
        wal.append_high_cert(cert)
        wal.append_entered_view(7)
        covered = {block.block_hash for block in blocks[:4]}
        dropped = wal.compact_below(blocks[3].view, covered)
        assert dropped > 0
        state = wal.reduce()
        # suffix commits survive, covered ones are gone
        assert state.committed_hashes == [b.block_hash for b in blocks[4:]]
        # votes at or above the snapshot view survive (same-view slots may
        # still need dedup), older ones are dropped
        votes = {record.view for record in wal.records() if record.kind == "vote"}
        assert votes == {blocks[3].view, blocks[4].view, blocks[5].view}
        assert state.high_cert == cert
        assert state.entered_view == 7

    def test_snapshot_log_keeps_only_the_newest(self):
        harness = ReplicaHarness(HotStuff1Replica)
        store = ReplicaStore.memory()
        first, _, _ = _sealed_snapshot(harness, length=2)
        second, _, _ = _sealed_snapshot(harness, length=4)
        store.save_snapshot(first)
        store.save_snapshot(second)
        assert store.latest_snapshot() == second
        assert len(store._snapshot_backend.replay()) == 1

    def test_torn_snapshot_record_is_skipped(self, tmp_path):
        harness = ReplicaHarness(HotStuff1Replica)
        snapshot, _, _ = _sealed_snapshot(harness)
        store = ReplicaStore.at_path(tmp_path, 0)
        store.save_snapshot(snapshot)
        store.close()
        path = os.path.join(tmp_path, "replica-0", "snapshots.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(record_of(snapshot))[:-9])  # torn mid-record
        reopened = ReplicaStore.at_path(tmp_path, 0)
        assert reopened.latest_snapshot() == snapshot
        reopened.close()


class TestCheckpointedRecovery:
    def test_restart_replays_snapshot_plus_suffix_only(self, tmp_path):
        """Acceptance: with checkpoint_interval set, a replica restarted after
        >= 5x the interval recovers from the latest snapshot and replays only
        the post-snapshot suffix (WAL record counts), with its on-disk logs
        truncated below the snapshot height."""
        interval = 5
        plan = FaultPlan.single_crash(1, at=0.15, down_for=0.3)
        spec = ExperimentSpec(
            protocol="hotstuff-1", n=4, batch_size=10, duration=0.8, warmup=0.1,
            checkpoint_interval=interval, storage_dir=str(tmp_path),
            faults=plan.to_dict(),
        )
        result = run_experiment(spec)
        assert result.chaos["recovered"] == 1
        assert result.chaos["prefix_agreement"] is True
        restarted = next(r for r in result.replicas if r.replica_id == 1)
        height = len(restarted.ledger.committed)
        assert height >= 5 * interval
        # recovered from a snapshot: most of the prefix is hash-only
        assert restarted.ledger.committed.base_height > 0
        # the on-disk WAL holds the post-snapshot suffix, not the history
        wal_lines = _jsonl_lines(tmp_path, "replica-1", "wal.jsonl")
        assert 0 < len(wal_lines) < height / 2
        commit_records = [line for line in wal_lines if line.get("kind") == "commit"]
        snapshot = restarted.store.latest_snapshot()
        assert snapshot is not None
        assert all(
            record["block_hash"] not in snapshot.covered() for record in commit_records
        )
        # the block log is truncated below the snapshot height too
        block_lines = _jsonl_lines(tmp_path, "replica-1", "blocks.jsonl")
        assert len(block_lines) < height / 2

    def test_pruned_fork_blocks_leave_the_block_log(self):
        from repro.ledger.block import Block
        from repro.storage.blockstore import DurableBlockStore

        backend = MemoryLogBackend()
        store = DurableBlockStore(backend)
        chain = build_chain(store, 3)
        fork = Block.build(
            view=1, slot=1, parent_hash=store.genesis.block_hash, proposer=3
        )
        store.add(fork)
        store.prune_siblings_of(chain[0])
        assert fork.block_hash in _logged_hashes(backend)
        dropped = store.compact_log()
        assert dropped == 1  # the pruned fork finally leaves the log
        assert fork.block_hash not in _logged_hashes(backend)
        rebuilt = DurableBlockStore(backend)
        assert len(rebuilt) == len(store)

    def test_manager_requires_a_positive_interval(self):
        harness = ReplicaHarness(HotStuff1Replica)
        with pytest.raises(ValueError):
            CheckpointManager(harness.replica, 0)


class TestSnapshotCrashPoints:
    @pytest.mark.parametrize("hook", SNAPSHOT_HOOKS)
    def test_single_crash_at_each_snapshot_hook_recovers(self, hook):
        plan = FaultPlan(
            events=[FaultEvent.crash_point(replica=1, hook=hook, occurrence=2, down_for=0.1)]
        )
        spec = ExperimentSpec(
            protocol="hotstuff-1", n=4, batch_size=10, duration=0.8, warmup=0.1,
            checkpoint_interval=4, faults=plan.to_dict(),
        )
        result = run_experiment(spec)
        chaos = result.chaos
        assert chaos["crashes"] == 1, chaos["timeline"]
        assert chaos["incidents"][0]["hook"] == hook
        assert chaos["recovered"] == 1
        assert chaos["prefix_agreement"] is True
        assert chaos["wal_vote_violations"] == []

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 8])
    def test_snapshot_hook_fuzz_seeds_hold_the_invariants(self, seed):
        """Crash-during-snapshot / crash-after-compaction across random seeds:
        never-vote-twice and committed-prefix must hold from the snapshot plus
        suffix alone."""
        plan = FaultPlan.randomized(
            n=4, seed=seed, crashes=2, down_for=0.12, hooks=SNAPSHOT_HOOKS
        )
        spec = ExperimentSpec(
            protocol="hotstuff-1", n=4, batch_size=10, duration=0.8, warmup=0.1,
            seed=seed, checkpoint_interval=4, faults=plan.to_dict(),
        )
        result = run_experiment(spec)
        chaos = result.chaos
        assert chaos["prefix_agreement"] is True, (seed, chaos["timeline"])
        assert chaos["wal_vote_violations"] == [], (seed, chaos["wal_vote_violations"])
        assert chaos["skipped_events"] == 0
        assert chaos["recovered"] + chaos["superseded"] == chaos["crashes"]


class TestSnapshotScenarioAndCli:
    def test_snapshot_recovery_kind_reports_state_transfers(self):
        scenario = snapshot_recovery_spec(
            protocols=("hotstuff-1",), faults=("kill-replica",),
            checkpoint_interval=5, duration=0.8, warmup=0.1,
        )
        rows = execute_scenario(scenario)
        assert len(rows) == 1
        row = rows[0]
        assert row["fault"] == "kill-replica"
        assert row["checkpoint_interval"] == 5
        assert row["prefix_ok"] is True
        assert row["snapshots"] > 0
        assert row["state_transfers"] >= 1  # the rejoin went through transfer

    def test_snapshot_cli_inspects_a_storage_dir(self, tmp_path, capsys):
        from repro.cli import main

        spec = ExperimentSpec(
            protocol="hotstuff-1", n=4, batch_size=10, duration=0.4, warmup=0.1,
            checkpoint_interval=5, storage_dir=str(tmp_path),
        )
        run_experiment(spec)
        assert main(["snapshot", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "snapshot_height" in out
        assert "replica-0" not in out  # rendered as bare ids
        assert main(["snapshot", os.path.join(str(tmp_path), "missing")]) == 2

    def test_snapshot_cli_skips_a_record_that_does_not_decode(self, tmp_path):
        spec = ExperimentSpec(
            protocol="hotstuff-1", n=4, batch_size=10, duration=0.4, warmup=0.1,
            checkpoint_interval=5, storage_dir=str(tmp_path),
        )
        run_experiment(spec)
        before = inspect_storage_dir(str(tmp_path), replica_id=0)[0]
        assert isinstance(before["snapshot_height"], int) and before["cert_ok"] is True
        path = os.path.join(str(tmp_path), "replica-0", "snapshots.jsonl")
        intact = read_jsonl_log(path)[-1]
        with open(path, "a", encoding="utf-8") as handle:
            for garbled in (
                intact[:40] + "!!" + intact[42:],  # not base64
                "//" + intact[2:],  # base64, but no type has that tag byte (0xff)
                intact[:-10],  # a record cut short
                record_of(from_record(intact, Snapshot).block),  # a record of another type
            ):
                handle.write(json.dumps(garbled) + "\n")
        assert len(read_jsonl_log(path)) == 5
        assert inspect_storage_dir(str(tmp_path), replica_id=0)[0] == before

    def test_fuzz_cli_covers_snapshot_hooks(self, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "fuzz", "--protocol", "hotstuff-1", "--replicas", "4",
                "--batch", "10", "--duration", "0.8", "--seeds", "2",
                "--hooks", "mid-snapshot,post-compaction",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "mid-snapshot" in out


def _jsonl_lines(base, replica_dir, name):
    return read_jsonl_log(os.path.join(str(base), replica_dir, name))


def _logged_hashes(backend):
    return {from_record(record, Block).block_hash for record in backend.replay()}
