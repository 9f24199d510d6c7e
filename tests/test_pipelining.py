"""Leader pipelining (``pipeline_depth > 1``): SafeSlot's pipelined arm,
spec validation, and committed-prefix equivalence in sim and live mode."""

from __future__ import annotations

import pytest

from repro.consensus.certificates import CertKind
from repro.consensus.config import MAX_SLOTS_PER_VIEW, ProtocolConfig
from repro.consensus.messages import Propose
from repro.core.slotting import SlottedHotStuff1Replica
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.ledger.block import Block
from repro.types import NULL_DIGEST

from tests.conftest import make_txn
from tests.helpers import ReplicaHarness


class TestSpecValidation:
    def test_depth_above_one_needs_a_slotting_protocol(self):
        with pytest.raises(ConfigurationError, match="slotted"):
            ExperimentSpec(protocol="hotstuff-1", pipeline_depth=2).validate()

    def test_depth_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="pipeline_depth"):
            ExperimentSpec(protocol="hotstuff-1-slotting", pipeline_depth=0).validate()

    def test_depth_cannot_exceed_max_slots_per_view(self):
        assert MAX_SLOTS_PER_VIEW == 64
        ExperimentSpec(protocol="hotstuff-1-slotting", pipeline_depth=64).validate()
        ProtocolConfig(n=4, pipeline_depth=64)
        with pytest.raises(ConfigurationError, match="pipeline_depth must be <= 64"):
            ExperimentSpec(protocol="hotstuff-1-slotting", pipeline_depth=65).validate()
        with pytest.raises(ConfigurationError, match="pipeline_depth must be <= 64"):
            ProtocolConfig(n=4, pipeline_depth=65)

    def test_slotting_protocol_accepts_deep_pipelines(self):
        spec = ExperimentSpec(protocol="hotstuff-1-slotting", pipeline_depth=4).validate()
        assert spec.pipeline_depth == 4


@pytest.fixture
def harness():
    """A standalone slotted replica (id 3, so replica 2 leads view 2) with a
    depth-4 pipeline."""
    built = ReplicaHarness(SlottedHotStuff1Replica, replica_id=3, n=4)
    built.config.pipeline_depth = 4
    return built


def _chain_block(harness, view, slot, parent, proposer=2, seed=0):
    block = Block.build(
        view=view,
        slot=slot,
        parent_hash=parent.block_hash,
        proposer=proposer,
        transactions=[make_txn(seed + view * 100 + slot)],
        carry_hash=NULL_DIGEST,
    )
    harness.replica.block_store.add(block)
    return block


class TestSafePipelinedSlot:
    """The pipelined arm accepts slot ``s`` whose uncertified ancestry is a
    consecutive-slot same-view same-proposer chain of vouched-for blocks,
    rooted at the justify's block or at the view's first slot."""

    def _chain(self, harness, length, vote=True):
        genesis = harness.replica.block_store.genesis
        blocks = []
        parent = genesis
        for slot in range(1, length + 1):
            parent = _chain_block(harness, 2, slot, parent)
            if vote:
                harness.replica._voted_hashes.add(parent.block_hash)
            blocks.append(parent)
        return blocks

    def test_accepts_gap_rooted_at_justified_block(self, harness):
        s1, s2, s3 = self._chain(harness, 3)
        justify = harness.certificate(CertKind.NEW_SLOT, s1)
        proposal = Propose(view=2, slot=3, block=s3, justify=justify)
        assert harness.replica._safe_pipelined_slot(proposal)

    def test_accepts_gap_rooted_at_first_slot(self, harness):
        s1, s2, s3 = self._chain(harness, 3)
        genesis_cert = harness.replica.high_cert
        proposal = Propose(view=2, slot=3, block=s3, justify=genesis_cert)
        assert harness.replica._safe_pipelined_slot(proposal)

    def test_rejects_unvouched_link(self, harness):
        s1, s2, s3 = self._chain(harness, 3, vote=False)
        justify = harness.certificate(CertKind.NEW_SLOT, s1)
        proposal = Propose(view=2, slot=3, block=s3, justify=justify)
        assert not harness.replica._safe_pipelined_slot(proposal)

    def test_certificate_vouches_for_an_unvoted_link(self, harness):
        s1, s2, s3 = self._chain(harness, 3, vote=False)
        justify = harness.certificate(CertKind.NEW_SLOT, s1)
        # The replica never voted for s2 (it may have been offline), but it
        # verified a certificate for it — a quorum's endorsement is strictly
        # stronger than its own vote.
        harness.replica.record_certificate(harness.certificate(CertKind.NEW_SLOT, s2))
        proposal = Propose(view=2, slot=3, block=s3, justify=justify)
        assert harness.replica._safe_pipelined_slot(proposal)

    def test_rejects_foreign_proposer_in_the_chain(self, harness):
        s1, s2 = self._chain(harness, 2)
        rogue = _chain_block(harness, 2, 3, s2, proposer=1)
        harness.replica._voted_hashes.add(rogue.block_hash)
        s4 = _chain_block(harness, 2, 4, rogue)
        justify = harness.certificate(CertKind.NEW_SLOT, s1)
        proposal = Propose(view=2, slot=4, block=s4, justify=justify)
        assert not harness.replica._safe_pipelined_slot(proposal)

    def test_rejects_gap_deeper_than_pipeline_depth(self, harness):
        harness.config.pipeline_depth = 2
        blocks = self._chain(harness, 4)
        justify = harness.certificate(CertKind.NEW_SLOT, blocks[0])
        proposal = Propose(view=2, slot=4, block=blocks[3], justify=justify)
        assert not harness.replica._safe_pipelined_slot(proposal)

    def test_rejects_nonconsecutive_slots(self, harness):
        s1, s2 = self._chain(harness, 2)
        skipped = _chain_block(harness, 2, 4, s2)  # slot 3 never proposed
        justify = harness.certificate(CertKind.NEW_SLOT, s1)
        proposal = Propose(view=2, slot=4, block=skipped, justify=justify)
        assert not harness.replica._safe_pipelined_slot(proposal)

    def test_rejects_justify_from_another_view(self, harness):
        genesis = harness.replica.block_store.genesis
        old = _chain_block(harness, 1, 1, genesis, proposer=1)
        justify = harness.certificate(CertKind.NEW_SLOT, old)
        s1, s2 = self._chain(harness, 2)
        proposal = Propose(view=2, slot=2, block=s2, justify=justify)
        # The walk reaches slot 1 before matching the stale justify, so the
        # chain is rooted correctly and remains safe; but rooting *at* the
        # stale justify must fail the view check.
        direct = Propose(view=2, slot=1, block=s1, justify=justify)
        assert not harness.replica._safe_pipelined_slot(direct)
        assert harness.replica._safe_pipelined_slot(proposal)


def _committed_chains(replicas):
    return [
        [block.block_hash for block in replica.ledger.committed.blocks()]
        for replica in replicas
    ]


def _assert_prefix_consistent(chains):
    reference = max(chains, key=len)
    for chain in chains:
        assert chain == reference[: len(chain)]
    return reference


class TestPipelinedSimulation:
    BASE = dict(
        protocol="hotstuff-1-slotting", n=4, batch_size=100, workload="ycsb",
        duration=0.08, warmup=0.02, seed=5, view_timeout=0.03, num_clients=800,
    )

    def test_deep_pipeline_commits_more_and_stays_safe(self):
        """Same spec, depths 1 and 4: the deep pipeline overlaps proposal
        dissemination with vote aggregation and commits strictly more, while
        every replica's committed chain stays a prefix of the longest (the
        ledger safety checker also runs inside run_experiment)."""
        shallow = run_experiment(ExperimentSpec(pipeline_depth=1, **self.BASE))
        deep = run_experiment(ExperimentSpec(pipeline_depth=4, **self.BASE))
        for result in (shallow, deep):
            assert result.summary.committed_txns > 0
            _assert_prefix_consistent(_committed_chains(result.replicas))
        # The discrete-event simulator is deterministic, so this is a stable
        # inequality, not a flaky performance assertion.
        assert deep.summary.committed_txns > shallow.summary.committed_txns

    def test_depth_one_reproduces_sequential_slotting(self):
        """pipeline_depth=1 must reproduce the paper's sequential slotting:
        the knob's default changes nothing about the schedule.  (Block hashes
        embed process-global transaction ids, so the comparison is structural
        — counts and chain shapes — not hash-identical.)"""
        default = run_experiment(ExperimentSpec(**self.BASE))
        explicit = run_experiment(ExperimentSpec(pipeline_depth=1, **self.BASE))
        assert default.summary.committed_txns == explicit.summary.committed_txns
        assert default.summary.view_changes == explicit.summary.view_changes
        default_shape = [
            [(block.view, block.slot) for block in replica.ledger.committed.blocks()]
            for replica in default.replicas
        ]
        explicit_shape = [
            [(block.view, block.slot) for block in replica.ledger.committed.blocks()]
            for replica in explicit.replicas
        ]
        assert default_shape == explicit_shape

    @pytest.mark.parametrize("depth", [1, 4])
    def test_a_view_never_proposes_past_max_slots_per_view(self, depth):
        """With a view timer long enough for more slots, both the sequential
        and the pipelined arm stop at ``MAX_SLOTS_PER_VIEW``."""
        spec = ExperimentSpec(**{**self.BASE, "duration": 0.15, "view_timeout": 0.1},
                              pipeline_depth=depth)
        result = run_experiment(spec)
        last_slot = {}
        for replica in result.replicas:
            for block in replica.ledger.committed.blocks():
                last_slot[block.view] = max(last_slot.get(block.view, 0), block.slot)
        assert max(last_slot.values()) == MAX_SLOTS_PER_VIEW


class TestPipelinedLive:
    def test_live_pipelined_run_commits_with_agreeing_prefixes(self):
        """A depth-4 binary-codec live cluster commits the target and every
        replica's committed chain is a prefix of the longest — the live half
        of the committed-prefix equivalence the sim test establishes."""
        from repro.live.deploy import run_live_experiment

        spec = ExperimentSpec(
            protocol="hotstuff-1-slotting", mode="live", n=4, batch_size=20,
            duration=8.0, warmup=0.05, seed=11, view_timeout=0.05,
            codec="binary", pipeline_depth=4,
        )
        result = run_live_experiment(spec, target_ops=150)
        assert result.summary.committed_txns >= 150
        reference = _assert_prefix_consistent(_committed_chains(result.replicas))
        assert len(reference) > 0
        assert result.summary.rollbacks == 0
