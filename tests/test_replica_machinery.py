"""Unit tests for replica-level machinery: certificates tracking, commit rules,
recovery (block fetch), equivocation handling and the chained voting rule."""

from __future__ import annotations

import pytest

from repro.consensus.certificates import CertKind
from repro.consensus.messages import (
    ClientRequest,
    FetchRequest,
    FetchResponse,
    NewView,
    Propose,
    ProposeVote,
)
from repro.consensus.protocols.hotstuff import HotStuffReplica
from repro.consensus.protocols.hotstuff2 import HotStuff2Replica
from repro.consensus.replica import BaseReplica
from repro.core.basic import BasicHotStuff1Replica
from repro.core.streamlined import HotStuff1Replica
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.ledger.block import Block
from repro.net.message import Envelope

from tests.conftest import make_txn
from tests.helpers import ReplicaHarness


def add_block(harness, view, parent, slot=1, txns=1, seed=0):
    block = Block.build(
        view=view,
        slot=slot,
        parent_hash=parent.block_hash,
        proposer=view % harness.config.n,
        transactions=[make_txn(seed + view * 10 + i) for i in range(txns)],
    )
    harness.replica.block_store.add(block)
    return block


class TestCertificateTracking:
    def test_record_certificate_updates_highest(self):
        harness = ReplicaHarness(HotStuff2Replica)
        genesis = harness.replica.block_store.genesis
        block1 = add_block(harness, 1, genesis)
        block2 = add_block(harness, 2, block1)
        cert1 = harness.certificate(CertKind.PREPARE, block1)
        cert2 = harness.certificate(CertKind.PREPARE, block2)
        assert harness.replica.record_certificate(cert1)
        assert harness.replica.high_cert is cert1
        assert harness.replica.record_certificate(cert2)
        assert harness.replica.high_cert is cert2
        # Recording an older certificate keeps the highest unchanged.
        harness.replica.record_certificate(cert1)
        assert harness.replica.high_cert is cert2

    def test_invalid_certificate_is_rejected(self):
        harness = ReplicaHarness(HotStuff2Replica)
        genesis = harness.replica.block_store.genesis
        block1 = add_block(harness, 1, genesis)
        cert = harness.certificate(CertKind.PREPARE, block1)
        forged = type(cert)(
            kind=cert.kind,
            view=cert.view + 3,
            slot=cert.slot,
            block_hash=cert.block_hash,
            signature=cert.signature,
            formed_in_view=cert.formed_in_view,
        )
        assert not harness.replica.record_certificate(forged)
        assert harness.replica.high_cert.is_genesis

    def test_certificate_for_parent_of_walks_one_step(self):
        harness = ReplicaHarness(HotStuff2Replica)
        genesis = harness.replica.block_store.genesis
        block1 = add_block(harness, 1, genesis)
        block2 = add_block(harness, 2, block1)
        cert1 = harness.certificate(CertKind.PREPARE, block1)
        cert2 = harness.certificate(CertKind.PREPARE, block2)
        harness.replica.record_certificate(cert1)
        harness.replica.record_certificate(cert2)
        parent_cert = harness.replica.certificate_for_parent_of(cert2)
        assert parent_cert is not None and parent_cert.block_hash == block1.block_hash


class TestCommitRules:
    def make_chain_with_certs(self, harness, length):
        genesis = harness.replica.block_store.genesis
        parent = genesis
        blocks, certs = [], []
        for view in range(1, length + 1):
            block = add_block(harness, view, parent)
            cert = harness.certificate(CertKind.PREPARE, block)
            harness.replica.record_certificate(cert)
            blocks.append(block)
            certs.append(cert)
            parent = block
        return blocks, certs

    def test_two_chain_rule_commits_parent(self):
        harness = ReplicaHarness(HotStuff2Replica)
        blocks, certs = self.make_chain_with_certs(harness, 3)
        target = harness.replica._commit_target(blocks[2])
        assert target.block_hash == blocks[1].block_hash

    def test_three_chain_rule_commits_grandparent(self):
        harness = ReplicaHarness(HotStuffReplica)
        blocks, certs = self.make_chain_with_certs(harness, 3)
        target = harness.replica._commit_target(blocks[2])
        assert target.block_hash == blocks[0].block_hash

    def test_non_consecutive_views_do_not_commit(self):
        harness = ReplicaHarness(HotStuff2Replica)
        genesis = harness.replica.block_store.genesis
        block1 = add_block(harness, 1, genesis)
        # View 3 extends view 1: a view was skipped, so the 2-chain rule must not fire.
        block3 = add_block(harness, 3, block1)
        assert harness.replica._commit_target(block3) is None

    def test_commit_up_to_marks_mempool_and_responds_once(self):
        harness = ReplicaHarness(HotStuff1Replica)
        genesis = harness.replica.block_store.genesis
        block1 = add_block(harness, 1, genesis, txns=3)
        outcomes = harness.replica.commit_up_to(block1)
        assert len(outcomes) == 1
        assert all(
            harness.mempool.is_committed(txn.txn_id) for txn in block1.transactions
        )
        # Committing again is a no-op.
        assert harness.replica.commit_up_to(block1) == []


class TestChargedExecution:
    def test_basic_traditional_commit_of_a_speculated_block_charges_no_execution(self):
        """Basic HotStuff-1 executed the block certified by the carried commit
        certificate when it speculated it; committing it must not charge that
        execution again before the replica's first-phase vote leaves.  What
        is left is the commit's fixed response overhead, the charge of a
        commit with zero transactions to execute in every protocol."""
        harness = ReplicaHarness(BasicHotStuff1Replica, replica_id=0)
        replica = harness.replica
        replica.pacemaker.start(1)
        block1 = add_block(harness, 1, replica.block_store.genesis, txns=20)
        replica.speculate_block(block1)
        block2 = add_block(harness, 2, block1)
        proposal = Propose(
            view=2,
            slot=1,
            block=block2,
            justify=harness.certificate(CertKind.PREPARE, block1),
            commit_cert=harness.certificate(CertKind.COMMIT, block1),
        )
        sent = []
        replica.send = lambda target, payload: sent.append((harness.sim.now, payload))
        replica.handle_propose(proposal, sender=harness.leaders.leader_of(2))
        harness.run(0.005)
        assert replica.ledger.is_committed(block1.block_hash)
        [vote_at] = [at for at, payload in sent if isinstance(payload, ProposeVote)]
        costs = replica.costs
        nothing_to_execute = replica.execution_cost_for(0) + costs.response_cost(0)
        validated = costs.proposal_validation_cost(harness.config.quorum) + nothing_to_execute
        assert vote_at == validated + costs.vote_cost()


class TestRecoveryAndFetch:
    def test_fetch_request_returns_known_block(self):
        harness = ReplicaHarness(HotStuff2Replica)
        genesis = harness.replica.block_store.genesis
        block1 = add_block(harness, 1, genesis)
        sent = []
        harness.replica.send = lambda target, payload: sent.append((target, payload))
        harness.replica.handle_fetch_request(FetchRequest(block_hash=block1.block_hash, requester=2), sender=2)
        assert sent and isinstance(sent[0][1], FetchResponse)
        assert sent[0][1].block.block_hash == block1.block_hash

    def test_fetch_request_for_unknown_block_is_ignored(self):
        harness = ReplicaHarness(HotStuff2Replica)
        sent = []
        harness.replica.send = lambda target, payload: sent.append(payload)
        harness.replica.handle_fetch_request(FetchRequest(block_hash="f" * 64, requester=2), sender=2)
        assert sent == []

    def test_proposal_with_unknown_justify_block_triggers_fetch(self):
        harness = ReplicaHarness(HotStuff1Replica, replica_id=1)
        harness.replica.pacemaker.start(1)
        # Build a block/cert pair the replica has never seen.
        other = ReplicaHarness(HotStuff1Replica, replica_id=0)
        genesis = other.replica.block_store.genesis
        missing = add_block(other, 1, genesis)
        cert = other.certificate(CertKind.PREPARE, missing)
        next_block = Block.build(
            view=2, slot=1, parent_hash=missing.block_hash, proposer=2, transactions=[make_txn(7)]
        )
        proposal = Propose(view=2, slot=1, block=next_block, justify=cert)
        requested = []
        harness.replica.send = lambda target, payload: requested.append(payload)
        harness.replica.handle_propose(proposal, sender=2)
        fetches = [msg for msg in requested if isinstance(msg, FetchRequest)]
        assert fetches and fetches[0].block_hash == missing.block_hash
        # Delivering the block afterwards lets the parked proposal proceed.
        harness.replica.handle_fetch_response(FetchResponse(block=missing), sender=2)
        assert missing.block_hash in harness.replica.block_store

    def test_client_request_lands_in_mempool(self):
        harness = ReplicaHarness(HotStuff2Replica)
        txn = make_txn(55)
        harness.replica.handle_client_request(ClientRequest(txn=txn), sender=-1)
        assert txn.txn_id in harness.mempool


class TestVotingRule:
    def build_proposal(self, harness, view, justify_block, justify_kind=CertKind.PREPARE):
        cert = harness.certificate(justify_kind, justify_block)
        block = Block.build(
            view=view,
            slot=1,
            parent_hash=justify_block.block_hash,
            proposer=harness.leaders.leader_of(view),
            transactions=[make_txn(view * 7)],
        )
        harness.replica.block_store.add(block)
        return Propose(view=view, slot=1, block=block, justify=cert), cert

    def test_replica_votes_for_fresh_proposal(self):
        harness = ReplicaHarness(HotStuff2Replica, replica_id=0)
        harness.replica.pacemaker.start(1)
        genesis = harness.replica.block_store.genesis
        block1 = add_block(harness, 1, genesis)
        proposal, _ = self.build_proposal(harness, 2, block1)
        harness.replica.pacemaker.force_enter(2)
        harness.replica.handle_propose(proposal, sender=harness.leaders.leader_of(2))
        harness.run(0.01)
        assert harness.replica.last_voted_view == 2

    def test_replica_refuses_stale_justify(self):
        harness = ReplicaHarness(HotStuff2Replica, replica_id=0)
        harness.replica.pacemaker.start(1)
        genesis = harness.replica.block_store.genesis
        block1 = add_block(harness, 1, genesis)
        block2 = add_block(harness, 2, block1)
        fresh = harness.certificate(CertKind.PREPARE, block2)
        harness.replica.record_certificate(fresh)
        # A proposal extending only the genesis certificate is below the
        # replica's highest certificate, so it must not be voted for.
        stale_proposal, _ = self.build_proposal(harness, 3, genesis, justify_kind=CertKind.PREPARE)
        harness.replica.pacemaker.force_enter(3)
        harness.replica.handle_propose(stale_proposal, sender=harness.leaders.leader_of(3))
        harness.run(0.01)
        assert harness.replica.last_voted_view < 3

    def test_proposal_from_non_leader_is_ignored(self):
        harness = ReplicaHarness(HotStuff2Replica, replica_id=0)
        harness.replica.pacemaker.start(1)
        genesis = harness.replica.block_store.genesis
        block1 = add_block(harness, 1, genesis)
        proposal, _ = self.build_proposal(harness, 2, block1)
        wrong_sender = (harness.leaders.leader_of(2) + 1) % harness.config.n
        harness.replica.handle_propose(proposal, sender=wrong_sender)
        harness.run(0.01)
        assert harness.replica.last_voted_view < 2

    def test_malformed_block_parent_is_rejected(self):
        harness = ReplicaHarness(HotStuff2Replica, replica_id=0)
        harness.replica.pacemaker.start(1)
        genesis = harness.replica.block_store.genesis
        block1 = add_block(harness, 1, genesis)
        cert = harness.certificate(CertKind.PREPARE, block1)
        bad_block = Block.build(
            view=2, slot=1, parent_hash=genesis.block_hash, proposer=harness.leaders.leader_of(2)
        )
        harness.replica.block_store.add(bad_block)
        proposal = Propose(view=2, slot=1, block=bad_block, justify=cert)
        harness.replica.pacemaker.force_enter(2)
        harness.replica.handle_propose(proposal, sender=harness.leaders.leader_of(2))
        harness.run(0.01)
        assert harness.replica.last_voted_view < 2


class TestEnvelope:
    def test_latency_is_delivery_minus_send(self):
        envelope = Envelope(sender=0, receiver=1, payload="x", sent_at=1.0, deliver_at=1.25)
        assert envelope.latency == pytest.approx(0.25)

    def test_envelope_ids_are_unique(self):
        first = Envelope(sender=0, receiver=1, payload="x", sent_at=0.0)
        second = Envelope(sender=0, receiver=1, payload="y", sent_at=0.0)
        assert first.envelope_id != second.envelope_id


class TestNewViewCollection:
    def test_leader_forms_previous_certificate_from_votes(self):
        harness = ReplicaHarness(HotStuff2Replica, replica_id=2)
        harness.replica.pacemaker.start(1)
        harness.replica.pacemaker.force_enter(2)
        genesis = harness.replica.block_store.genesis
        block1 = add_block(harness, 1, genesis)
        # Simulate n-f NewView messages carrying votes for block1.
        for voter in range(harness.config.quorum):
            share = harness.authority.create_vote(
                voter, CertKind.PREPARE, block1.view, block1.slot, block1.block_hash
            )
            message = NewView(
                view=2,
                voter=voter,
                high_cert=harness.replica.genesis_cert,
                share=share,
                voted_block_hash=block1.block_hash,
            )
            harness.replica.handle_new_view(message, sender=voter)
        assert harness.replica.high_cert.block_hash == block1.block_hash
        # Being the leader of view 2, it proposes once the certificate is formed.
        assert harness.replica.last_proposed_view == 2


class TestStateIsBounded:
    """A replica's bookkeeping lives as long as the view it serves.

    A long run enters thousands of views and commits thousands of blocks;
    state kept per view or per block for the whole run would grow with it.
    At every view entry, each set, dict and list held by a replica, its
    pacemaker, its mempool and its certificate authority must stay within
    ``BOUND`` entries.  Only the
    block-indexed certificate maps are exempt: ``certs_by_block``, and the
    slotting replica's ``justify_of`` (its prefix commit rule reads it).
    """

    BOUND = 64

    @pytest.mark.parametrize(
        "protocol, views, overrides",
        [
            ("hotstuff-1", 2000, dict(duration=2.6)),
            ("hotstuff-1-basic", 2000, dict(duration=4.8)),
            # Slotting leaves every view on its timer: a short one.
            ("hotstuff-1-slotting", 400, dict(duration=1.0, view_timeout=0.002)),
            ("hotstuff-1-slotting", 400, dict(duration=1.0, view_timeout=0.002, pipeline_depth=2)),
        ],
    )
    def test_no_container_grows_with_the_run(self, monkeypatch, protocol, views, overrides):
        largest = {}
        enter = BaseReplica.on_enter_view

        def measuring(replica, view):
            enter(replica, view)
            for owner in (replica, replica.pacemaker, replica.mempool, replica.authority):
                for name, value in vars(owner).items():
                    if isinstance(value, (set, dict, list)):
                        key = (type(owner).__name__, name)
                        largest[key] = max(largest.get(key, 0), len(value))

        monkeypatch.setattr(BaseReplica, "on_enter_view", measuring)
        result = run_experiment(
            ExperimentSpec(protocol=protocol, n=4, batch_size=1, warmup=0.1, **overrides)
        )
        assert min(replica.current_view for replica in result.replicas) >= views
        exempt = {("SlottedHotStuff1Replica", "justify_of")}
        grown = {
            key: size
            for key, size in largest.items()
            if size > self.BOUND and key[1] != "certs_by_block" and key not in exempt
        }
        assert grown == {}
        measured = {owner for owner, _ in largest}
        assert measured == {type(result.replicas[0]).__name__, "Pacemaker", "Mempool", "CertificateAuthority"}
