"""Basic (non-streamlined) HotStuff-1 (Figure 2).

Each view has two phases:

1. **Propose / ProposeVote** — the leader proposes a block extending its
   highest prepare certificate (and carries its highest commit certificate);
   replicas apply the *traditional commit rule* against the carried commit
   certificate and vote back to the same leader.
2. **Prepare / NewView** — the leader aggregates the votes into the prepare
   certificate ``P(v)`` and broadcasts it; replicas apply the *prefix commit
   rule*, speculatively execute the new block (Prefix Speculation + No-Gap
   rules), send an early finality confirmation to clients, and forward a
   commit vote to the next leader inside their NewView message.  The next
   leader combines ``n - f`` commit votes into ``C(v)``.

The basic variant processes one proposal every two phases, which is why the
evaluation uses the streamlined variant; it is implemented (and tested) here
because it is the form in which the paper introduces the speculative core.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.consensus.certificates import Certificate, CertKind
from repro.consensus.messages import NewView, Prepare, Propose, ProposeVote
from repro.consensus.replica import BaseReplica
from repro.core.speculation import SpeculationGuard
from repro.ledger.block import Block


class BasicHotStuff1Replica(BaseReplica):
    """Basic HotStuff-1 replica: two phases per view, speculation on Prepare."""

    protocol_name = "hotstuff-1-basic"
    #: Consensus half-phases before a (speculative) client response.
    consensus_half_phases = 3
    #: Closed-loop client population, in batches, that keeps the pipeline at its knee.
    client_knee_blocks = 1.5
    #: Each view runs Propose/ProposeVote, then Prepare/NewView, for one block.
    phases_per_decision = 2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.speculation_guard = SpeculationGuard(self.ledger)
        #: Highest known commit certificate (``C(v_lc)``).
        self.high_commit_cert: Optional[Certificate] = None
        #: Highest view this replica proposed in (see ``ChainedReplica``), its
        #: block there, and the first-phase votes for that block.
        self.last_proposed_view = 0
        self._own_proposal: Optional[Block] = None
        self._propose_votes: Dict[int, ProposeVote] = {}
        #: Highest view whose prepare certificate ``P(v)`` this leader formed.
        self.last_prepared_view = 0

    @staticmethod
    def client_quorum(config) -> int:
        """Clients wait for ``n - f`` matching (speculative) responses."""
        return config.quorum

    # ------------------------------------------------------------ leader role
    def handle_new_view(self, msg: NewView, sender: int) -> None:
        """Collect NewView messages: highest certificates plus commit votes."""
        bucket = self.collect_new_view(msg)
        # Form C(v-1) from the commit shares the NewView messages carry (Line 12).
        votes = [(vote.voted_block_hash, vote.commit_share) for vote in bucket.values()]
        cert = self.aggregate_votes(CertKind.COMMIT, votes)
        if cert is not None and (
            self.high_commit_cert is None or cert.position > self.high_commit_cert.position
        ):
            self.high_commit_cert = cert
            if self.store is not None:
                self.store.record_commit_cert(cert)
        if self.is_leader_of(msg.view) and self.current_view == msg.view:
            self._try_propose(msg.view)

    def _try_propose(self, view: int, force: bool = False) -> None:
        """Propose once n−f NewViews arrived and P(v−1) is known (or the wait expired)."""
        if self.halted or view <= self.last_proposed_view:
            return
        if self.current_view != view or not self.is_leader_of(view):
            return
        bucket = self._new_view_msgs.get(view, {})
        if len(bucket) < self.config.quorum:
            return
        has_previous_cert = self.high_cert.view >= view - 1
        if not has_previous_cert and not force and len(bucket) < self.config.n:
            return
        self.last_proposed_view = view
        self._propose_votes = {}
        justify = self.behavior.choose_justify(self, view, self.high_cert)
        self._own_proposal, _ = self.broadcast_proposal(
            view, 1, justify, justify.block_hash, commit_cert=self.high_commit_cert
        )

    def handle_propose_vote(self, msg: ProposeVote, sender: int) -> None:
        """Aggregate first-phase votes into ``P(v)`` (in view v or v + 1) and broadcast Prepare."""
        view = msg.view
        if view != self.last_proposed_view or view <= self.last_prepared_view or self.current_view > view + 1:
            return
        self._propose_votes[msg.voter] = msg
        own_hash = self._own_proposal.block_hash
        votes = [(vote.block_hash, vote.share) for vote in self._propose_votes.values() if vote.block_hash == own_hash]
        cert = self.aggregate_votes(CertKind.PREPARE, votes)
        if cert is None:
            return
        self.last_prepared_view = msg.view
        self.adopt_formed_certificate(cert)
        cost = self.costs.certificate_formation_cost(self.config.quorum)
        self.sim.schedule(cost, self.broadcast_replicas, Prepare(view=msg.view, cert=cert))

    # ------------------------------------------------------------ backup role
    def handle_propose(self, msg: Propose, sender: int) -> None:
        """First phase: apply the traditional commit rule and vote to the leader."""
        if not self.accept_proposal(msg, sender) or msg.view <= self.last_voted_view:
            return
        block = msg.block
        cost = self.costs.proposal_validation_cost(self.config.quorum)
        # Traditional commit rule (Line 17): commit everything up to the block
        # certified by the carried commit certificate.
        if msg.commit_cert is not None and self.authority.verify_certificate(msg.commit_cert):
            cost += self.charged_commit(self.block_store.maybe_get(msg.commit_cert.block_hash), cost)

        if msg.justify.position >= self.high_cert.position and self.behavior.should_vote(self, msg):
            self.note_vote(msg.view, block.slot, block.block_hash)
            share = self.authority.create_vote(
                self.replica_id, CertKind.PREPARE, block.view, block.slot, block.block_hash
            )
            vote = ProposeVote(view=msg.view, voter=self.replica_id, block_hash=block.block_hash, share=share)
            self.sim.schedule(cost + self.costs.vote_cost(), self.send, sender, vote)

    def handle_prepare(self, msg: Prepare, sender: int) -> None:
        """Second phase: prefix commit, speculation, commit vote to the next leader, exit."""
        if sender != self.leaders.leader_of(msg.view):
            return
        if not self.authority.verify_certificate(msg.cert):
            return
        if msg.view < self.current_view:
            return
        self.record_certificate(msg.cert)
        block = self.block_store.maybe_get(msg.cert.block_hash)
        if block is None:
            self.request_block(msg.cert.block_hash, sender)
            return
        cost = self.costs.proposal_validation_cost(self.config.quorum)

        # Prefix commit rule (Line 22): if P(v) extends P(v-1), commit B_{v-1}.
        parent = self.block_store.parent_of(block)
        if parent is not None and parent.view == block.view - 1:
            cost += self.charged_commit(parent, cost)

        # Speculation (Lines 24-27): Prefix Speculation + No-Gap rules.
        if self.config.speculation_enabled and self.speculation_guard.check_basic(
            block, msg.cert.view, self.current_view
        ):
            cost += self.charged_speculation(block, cost)

        # Commit vote (Lines 28-29) travels with the NewView to the next leader.
        commit_share = self.authority.create_vote(
            self.replica_id, CertKind.COMMIT, block.view, block.slot, block.block_hash
        )
        if not self.behavior.withholds_new_view(self, msg.view):
            new_view = NewView(
                view=msg.view + 1,
                voter=self.replica_id,
                high_cert=self.high_cert,
                share=None,
                voted_block_hash=block.block_hash,
                commit_share=commit_share,
            )
            self.sim.schedule(
                cost + self.costs.vote_cost(), self.send, self.leaders.leader_of(msg.view + 1), new_view
            )
        self.pacemaker.completed_view(msg.view, timed_out=False)
