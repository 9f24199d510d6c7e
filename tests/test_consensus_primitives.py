"""Unit tests for configuration, costs, leader election, mempool, metrics and certificates."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.consensus.certificates import CertificateAuthority, CertKind, Certificate
from repro.consensus.config import ProtocolConfig
from repro.consensus.costs import CostModel
from repro.consensus.leader import RoundRobinLeaderElection
from repro.consensus.mempool import Mempool
from repro.consensus.metrics import MetricsCollector
from repro.crypto.threshold import ThresholdScheme
from repro.errors import ConfigurationError, InvalidCertificateError
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.ledger.block import make_genesis_block
from repro.ledger.transaction import Transaction

from tests.conftest import build_chain, certificate_for, make_txn


class TestProtocolConfig:
    def test_quorum_math_for_paper_sizes(self):
        for n, f in ((4, 1), (16, 5), (31, 10), (32, 10), (64, 21)):
            config = ProtocolConfig(n=n)
            assert config.f == f
            assert config.quorum == n - f
            assert config.epoch_length == f + 1

    def test_rejects_too_few_replicas(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(n=3)

    def test_rejects_bad_batch_and_timers(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(n=4, batch_size=0)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(n=4, view_timeout=0)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(n=4, delta=0)

    def test_describe_mentions_quorum_inputs(self):
        text = ProtocolConfig(n=16, batch_size=200).describe()
        assert "n=16" in text and "f=5" in text


class TestCostModel:
    def test_costs_scale_with_quorum_and_batch(self):
        costs = CostModel()
        assert costs.certificate_formation_cost(40) > costs.certificate_formation_cost(3)
        assert costs.proposal_cost(1000, 32) > costs.proposal_cost(100, 32)
        assert costs.proposal_cost(100, 64) > costs.proposal_cost(100, 4)
        assert costs.execution_cost(100, 1e-6) > 0
        assert costs.response_cost(100) > costs.response_cost(1)
        assert costs.vote_cost() > 0
        assert costs.proposal_validation_cost(40) > costs.proposal_validation_cost(3)


class TestLeaderElection:
    def test_round_robin_rotation(self):
        election = RoundRobinLeaderElection(4)
        assert [election.leader_of(view) for view in range(1, 6)] == [1, 2, 3, 0, 1]

    def test_custom_roster(self):
        election = RoundRobinLeaderElection(4, roster=[3, 2, 1, 0])
        assert election.leader_of(0) == 3
        assert election.is_leader(2, 1)

    def test_invalid_roster_rejected(self):
        with pytest.raises(ConfigurationError):
            RoundRobinLeaderElection(4, roster=[0, 1, 2, 2])

    def test_views_led_by(self):
        election = RoundRobinLeaderElection(4)
        assert election.views_led_by(1, 1, 8) == [1, 5]


class TestMempool:
    def test_fifo_batching(self):
        pool = Mempool()
        txns = [make_txn(i) for i in range(5)]
        for txn in txns:
            pool.add(txn)
        batch = pool.next_batch(3)
        assert [t.txn_id for t in batch] == [t.txn_id for t in txns[:3]]
        assert len(pool) == 2

    def test_duplicate_adds_ignored(self):
        pool = Mempool()
        txn = make_txn(1)
        assert pool.add(txn)
        assert not pool.add(txn)
        assert pool.total_submitted == 1

    def test_requeue_puts_transactions_at_head(self):
        pool = Mempool()
        first, second = make_txn(1), make_txn(2)
        pool.add(second)
        pool.requeue([first])
        assert [t.txn_id for t in pool.next_batch(2)] == [first.txn_id, second.txn_id]

    def test_committed_transactions_never_readmitted(self):
        pool = Mempool()
        txn = make_txn(1)
        pool.add(txn)
        pool.next_batch(1)
        pool.mark_committed([txn.txn_id])
        assert not pool.add(txn)
        pool.requeue([txn])
        assert len(pool) == 0
        assert pool.is_committed(txn.txn_id)

    def test_mark_committed_removes_pending_copy(self):
        pool = Mempool()
        txn = make_txn(3)
        pool.add(txn)
        pool.mark_committed([txn.txn_id])
        assert txn.txn_id not in pool


    def test_committed_set_holds_only_ids_above_the_watermark(self):
        # Commits land out of id order: ids shuffled within windows of 64,
        # committed in blocks of 1-8.  The pool must give the answer a set of
        # every committed id gives, while keeping only the out-of-order window.
        rng = random.Random(7)
        order = []
        for start in range(0, 64 * 64, 64):
            window = list(range(start, start + 64))
            rng.shuffle(window)
            order.extend(window)
        pool = Mempool(shared=False)
        committed = set()
        largest = 0
        position = 0
        while position < len(order):
            block = order[position:position + rng.randint(1, 8)]
            position += len(block)
            pool.mark_committed(block)
            committed.update(block)
            largest = max(largest, len(pool._committed_ids))
            if rng.random() < 0.02:
                assert all(pool.is_committed(i) == (i in committed) for i in range(4200))
        assert largest <= 64 + 8  # one shuffled window plus one block
        assert pool._committed_ids == set()
        assert pool.committed_contiguous == 64 * 64 - 1
        assert all(pool.is_committed(i) for i in range(4096)) and not pool.is_committed(4096)
        # A covered id is never re-admitted, requeued or parked in flight.
        covered = Transaction.create(client_id=1, operation="ycsb_write", payload={}, txn_id=17)
        assert not pool.add(covered)
        pool.requeue([covered])
        pool.note_proposed("block", [covered])
        pool.release_block("block")
        assert len(pool) == 0 and pool.inflight_count() == 0

    def test_a_committed_block_leaves_no_inflight_entry(self):
        pool = Mempool()
        first, second = make_txn(1), make_txn(2)
        pool.add(first)
        pool.add(second)
        pool.note_proposed("committed", pool.next_batch(1))
        pool.note_proposed("forked", pool.next_batch(1))
        pool.note_committed("committed", [first])
        assert {h: ids for h, (_, ids) in pool._inflight_blocks.items()} == {"forked": (second.txn_id,)}
        assert pool.inflight_count() == 1 and pool.is_committed(first.txn_id)
        # Releasing the committed block (or re-committing it) requeues nothing.
        pool.release_block("committed")
        pool.note_committed("committed", [first])
        assert len(pool) == 0
        pool.release_block("forked")
        assert [txn.txn_id for txn in pool.next_batch(2)] == [second.txn_id]

    def test_snapshot_horizon_moves_the_watermark_over_later_commits(self):
        pool = Mempool(shared=False)
        pool.mark_committed([0, 1, 5, 7, 9])
        assert pool.committed_contiguous == 1
        assert pool.prune_below(4) == 0
        # Horizon 4 plus the commit of 5 carry the watermark to 5; 7 and 9
        # stay above it.
        assert pool.committed_contiguous == 5
        assert pool._committed_ids == {7, 9}
        assert [i for i in range(11) if pool.is_committed(i)] == [0, 1, 2, 3, 4, 5, 7, 9]
        assert pool.prune_below(3) == 0  # at or below the watermark: nothing to adopt
        assert pool.committed_contiguous == 5


class TestMetrics:
    def test_throughput_and_latency_after_warmup(self):
        metrics = MetricsCollector(warmup=1.0)
        metrics.record_completion(1, submitted_at=0.2, completed_at=0.5, speculative=False)
        metrics.record_completion(2, submitted_at=1.0, completed_at=1.5, speculative=True)
        metrics.record_completion(3, submitted_at=1.2, completed_at=2.0, speculative=True)
        assert len(metrics.completed_after_warmup()) == 2
        assert metrics.throughput(duration=2.0) == pytest.approx(2.0)
        assert metrics.average_latency() == pytest.approx((0.5 + 0.8) / 2)
        assert metrics.latency_percentile(0.99) == pytest.approx(0.8)

    def test_duplicate_completion_ignored(self):
        metrics = MetricsCollector()
        metrics.record_completion(7, 0.0, 1.0, False)
        metrics.record_completion(7, 0.0, 2.0, False)
        assert len(metrics.samples) == 1

    def test_summary_contains_all_counters(self):
        metrics = MetricsCollector()
        metrics.record_completion(1, 0.0, 0.1, True)
        metrics.record_rollback(10)
        metrics.record_view_change()
        metrics.record_timeout()
        metrics.record_speculative_execution(5)
        metrics.record_consensus_commit(5)
        summary = metrics.summarize("hotstuff-1", duration=1.0)
        data = summary.as_dict()
        assert data["committed_txns"] == 1
        assert data["rollbacks"] == 1
        assert data["view_changes"] == 1
        assert data["timeouts"] == 1
        assert summary.speculative_executions == 5
        assert summary.consensus_commits == 5

    def test_empty_metrics_summary_is_zeroed(self):
        summary = MetricsCollector().summarize("hotstuff", duration=1.0)
        assert summary.committed_txns == 0
        assert summary.avg_latency == 0.0


class TestCertificates:
    def test_form_and_verify_prepare_certificate(self, authority4, config4, block_store):
        [block] = build_chain(block_store, 1)
        cert = certificate_for(authority4, config4, block)
        assert cert.kind is CertKind.PREPARE
        assert cert.block_hash == block.block_hash
        assert authority4.verify_certificate(cert)

    def test_too_few_votes_rejected(self, authority4, config4, block_store):
        [block] = build_chain(block_store, 1)
        shares = [
            authority4.create_vote(i, CertKind.PREPARE, block.view, block.slot, block.block_hash)
            for i in range(config4.quorum - 1)
        ]
        with pytest.raises(InvalidCertificateError):
            authority4.form_certificate(CertKind.PREPARE, block.view, block.slot, block.block_hash, shares)

    def test_votes_for_other_block_do_not_count(self, authority4, config4, block_store):
        blocks = build_chain(block_store, 2)
        shares = [
            authority4.create_vote(i, CertKind.PREPARE, blocks[0].view, 1, blocks[0].block_hash)
            for i in range(config4.quorum)
        ]
        with pytest.raises(InvalidCertificateError):
            authority4.form_certificate(CertKind.PREPARE, blocks[1].view, 1, blocks[1].block_hash, shares)

    def test_vote_kind_is_domain_separated(self, authority4, config4, block_store):
        [block] = build_chain(block_store, 1)
        slot_votes = [
            authority4.create_vote(i, CertKind.NEW_SLOT, block.view, block.slot, block.block_hash)
            for i in range(config4.quorum)
        ]
        with pytest.raises(InvalidCertificateError):
            authority4.form_certificate(CertKind.NEW_VIEW, block.view, block.slot, block.block_hash, slot_votes)

    def test_verify_vote_checks_statement(self, authority4, block_store):
        [block] = build_chain(block_store, 1)
        vote = authority4.create_vote(0, CertKind.PREPARE, block.view, block.slot, block.block_hash)
        assert authority4.verify_vote(vote, CertKind.PREPARE, block.view, block.slot, block.block_hash)
        assert not authority4.verify_vote(vote, CertKind.PREPARE, block.view + 1, block.slot, block.block_hash)

    def test_genesis_certificate_always_valid(self, authority4):
        cert = CertificateAuthority.genesis_certificate(make_genesis_block())
        assert cert.is_genesis
        assert authority4.verify_certificate(cert)

    def test_certificate_ordering_is_lexicographic(self, authority4, config4, block_store):
        blocks = build_chain(block_store, 2)
        low = certificate_for(authority4, config4, blocks[0])
        high = certificate_for(authority4, config4, blocks[1])
        assert high.is_higher_than(low)
        assert not low.is_higher_than(high)

    def test_timeout_certificate_roundtrip(self, authority4, config4):
        votes = [authority4.create_timeout_vote(i, view=9) for i in range(config4.quorum)]
        tc = authority4.form_timeout_certificate(9, votes)
        assert tc.kind is CertKind.TIMEOUT
        assert authority4.verify_certificate(tc)

    def test_tampered_certificate_rejected(self, authority4, config4, block_store):
        [block] = build_chain(block_store, 1)
        cert = certificate_for(authority4, config4, block)
        tampered = Certificate(
            kind=cert.kind,
            view=cert.view + 1,
            slot=cert.slot,
            block_hash=cert.block_hash,
            signature=cert.signature,
            formed_in_view=cert.formed_in_view,
        )
        assert not authority4.verify_certificate(tampered)

    @pytest.mark.parametrize("field", ["block_hash", "view", "kind", "signers", "fingerprint", "extra"])
    def test_a_remembered_certificate_vouches_for_no_changed_copy(self, authority4, config4, block_store, field):
        [block] = build_chain(block_store, 1)
        cert = certificate_for(authority4, config4, block)
        assert authority4.verify_certificate(cert)
        signature, extra = cert.signature, ""
        if field == "block_hash":
            changed = dataclasses.replace(cert, block_hash=block.parent_hash)
        elif field == "view":
            changed = dataclasses.replace(cert, view=cert.view + 1)
        elif field == "kind":
            changed = dataclasses.replace(cert, kind=CertKind.COMMIT)
        elif field == "signers":
            outside = next(i for i in range(config4.n) if i not in signature.signers)
            signers = signature.signers[:-1] + (outside,)
            changed = dataclasses.replace(cert, signature=dataclasses.replace(signature, signers=signers))
        elif field == "fingerprint":
            forged = dataclasses.replace(signature, fingerprint=signature.fingerprint[::-1])
            changed = dataclasses.replace(cert, signature=forged)
        else:
            changed, extra = cert, "other"
        for _ in range(2):
            assert not authority4.verify_certificate(changed, extra)
        assert authority4.verify_certificate(cert)

    def test_a_shared_authority_verifies_each_certificate_once(self, monkeypatch):
        """In an n = 16 sim run every replica verifies every certificate it
        receives, but the aggregate behind each distinct one is checked once."""
        aggregates, certificates, calls = [], set(), []
        verify_aggregate, verify_certificate = ThresholdScheme.verify_aggregate, CertificateAuthority.verify_certificate

        def counting_aggregate(scheme, aggregate):
            aggregates.append(aggregate)
            return verify_aggregate(scheme, aggregate)

        def counting_certificate(authority, cert, extra=""):
            calls.append(cert)
            if not cert.is_genesis:
                certificates.add((cert, extra))
            return verify_certificate(authority, cert, extra)

        monkeypatch.setattr(ThresholdScheme, "verify_aggregate", counting_aggregate)
        monkeypatch.setattr(CertificateAuthority, "verify_certificate", counting_certificate)
        result = run_experiment(ExperimentSpec(protocol="hotstuff-1", n=16, duration=0.1, warmup=0.02))
        assert result.throughput > 0
        assert len(aggregates) == len(certificates) > 10
        assert len(calls) > 10 * len(certificates)
