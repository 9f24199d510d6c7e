"""Streamlined (chained) protocol rules.

One view equals one phase: the leader of view ``v`` collects ``n - f``
NewView messages (which double as votes for the block proposed in view
``v - 1``), forms the certificate ``P(v - 1)``, and broadcasts a proposal
extending its highest known certificate.  Replicas apply the protocol's
commit rule (and, for HotStuff-1, the speculation rules), vote by sending a
NewView message to the leader of view ``v + 1``, and exit the view.

The machinery around these rules — bootstrap, leader trigger, NewView
collection, vote aggregation, proposal broadcast, charged commit and
speculation, the vote-less timeout — is
:class:`~repro.consensus.replica.BaseReplica`'s.  This class owns when a
leader proposes, the proposal checks and vote of Figure 4, and which block
the commit rule picks.  Subclasses configure:

* ``commit_chain_length`` — 3 for HotStuff (three-chain rule), 2 for
  HotStuff-2 and HotStuff-1 (two-chain / prefix-commit rule);
* ``_apply_speculation_rule`` — a no-op here, overridden by streamlined
  HotStuff-1.
"""

from __future__ import annotations

from typing import Optional

from repro.consensus.certificates import CertKind
from repro.consensus.messages import NewView, Propose
from repro.consensus.replica import BaseReplica
from repro.ledger.block import Block


class ChainedReplica(BaseReplica):
    """Base replica for the streamlined one-phase-per-view protocols."""

    protocol_name = "chained-base"
    #: Number of consecutive-view links required before committing (2 or 3).
    commit_chain_length = 2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Highest view this replica proposed in.  Proposals and votes happen
        #: only in ``current_view``, which never decreases, so this watermark
        #: and ``last_voted_view`` are the per-view guards.
        self.last_proposed_view = 0

    # ------------------------------------------------------------ leader role
    def handle_new_view(self, msg: NewView, sender: int) -> None:
        """Collect votes / view-change messages addressed to this leader."""
        self.collect_new_view(msg)
        if self.is_leader_of(msg.view) and self.current_view == msg.view:
            self._try_propose(msg.view)

    def _try_propose(self, view: int, force: bool = False) -> None:
        """Propose for *view* once the Figure 4 leader conditions are met."""
        if self.halted or view <= self.last_proposed_view:
            return
        if self.current_view != view or not self.is_leader_of(view):
            return
        bucket = self._new_view_msgs.get(view, {})
        if len(bucket) < self.config.quorum:
            return
        votes = [(msg.voted_block_hash, msg.share) for msg in bucket.values()]
        formed = self.adopt_formed_certificate(self.aggregate_votes(CertKind.PREPARE, votes))
        if self.halted:
            return  # a crash-point probe fired mid-certificate-formation
        if formed is None and not force and len(bucket) < self.config.n:
            return
        self.last_proposed_view = view
        justify = self.behavior.choose_justify(self, view, self.high_cert)
        _, delay = self.broadcast_proposal(view, 1, justify, justify.block_hash)
        self._maybe_equivocate(view, delay)

    def _maybe_equivocate(self, view: int, delay: float) -> None:
        """Send a second, conflicting proposal if the (Byzantine) behaviour asks for one."""
        plan = self.behavior.equivocal_proposal(self, view, self.high_cert)
        if plan is None:
            return
        alt_justify, alt_targets = plan
        if alt_justify is None or not alt_targets:
            return
        alt_block = Block.build(
            view=view,
            slot=1,
            parent_hash=alt_justify.block_hash,
            proposer=self.replica_id,
            transactions=(),
        )
        self.block_store.add(alt_block)
        alt_proposal = Propose(view=view, slot=1, block=alt_block, justify=alt_justify)
        self.sim.schedule(delay, self.broadcast_replicas, alt_proposal, list(alt_targets))

    # ------------------------------------------------------------ backup role
    def handle_propose(self, msg: Propose, sender: int) -> None:
        """Validate a proposal, apply commit/speculation rules, vote, exit the view."""
        if self.accept_proposal(msg, sender) and msg.view > self.last_voted_view:
            self._process_proposal(msg, sender)

    def _process_proposal(self, msg: Propose, sender: int) -> None:
        """Apply commit rule, speculation rule and voting for an accepted proposal."""
        block = msg.block
        justify = msg.justify
        cost = self.costs.proposal_validation_cost(self.config.quorum)
        cost += self.charged_commit(self._commit_target(self.certified_block(justify)), cost)
        cost += self._apply_speculation_rule(msg, cost)

        vote_ok = justify.position >= self.high_cert.position or self.behavior.votes_unsafely(self, msg)
        share = None
        voted_hash = ""
        if vote_ok and self.behavior.should_vote(self, msg):
            share = self.authority.create_vote(
                self.replica_id, CertKind.PREPARE, block.view, block.slot, block.block_hash
            )
            voted_hash = block.block_hash
            self.note_vote(msg.view, block.slot, block.block_hash)
        if not self.behavior.withholds_new_view(self, msg.view):
            new_view = NewView(
                view=msg.view + 1,
                voter=self.replica_id,
                high_cert=self.high_cert,
                share=share,
                voted_block_hash=voted_hash,
            )
            vote_delay = cost + self.costs.vote_cost()
            self.sim.schedule(vote_delay, self.send, self.leaders.leader_of(msg.view + 1), new_view)
        self.pacemaker.completed_view(msg.view, timed_out=False)

    # ------------------------------------------------------------ commit rule
    def _commit_target(self, certified_block: Optional[Block]) -> Optional[Block]:
        """Walk back ``commit_chain_length - 1`` consecutive-view links from the certified block."""
        block = certified_block
        for _ in range(self.commit_chain_length - 1):
            parent = None if block is None else self.block_store.parent_of(block)
            if parent is None or parent.is_genesis or parent.view != block.view - 1:
                return None
            block = parent
        return block

    # ------------------------------------------------------------ speculation
    def _apply_speculation_rule(self, msg: Propose, accumulated_cost: float) -> float:
        """Hook for HotStuff-1; baselines never speculate."""
        return 0.0
