"""Streamlined (chained) protocol skeleton.

One view equals one phase: the leader of view ``v`` collects ``n - f``
NewView messages (which double as votes for the block proposed in view
``v - 1``), forms the certificate ``P(v - 1)``, and broadcasts a proposal
extending its highest known certificate.  Replicas apply the protocol's
commit rule (and, for HotStuff-1, the speculation rules), vote by sending a
NewView message to the leader of view ``v + 1``, and exit the view.

Subclasses configure:

* ``commit_chain_length`` — 3 for HotStuff (three-chain rule), 2 for
  HotStuff-2 and HotStuff-1 (two-chain / prefix-commit rule);
* ``_apply_speculation_rule`` — a no-op here, overridden by streamlined
  HotStuff-1.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.consensus.certificates import CertKind
from repro.consensus.messages import NewView, Propose
from repro.consensus.replica import HOOK_MID_CERT, BaseReplica
from repro.errors import InvalidCertificateError
from repro.ledger.block import Block


class ChainedReplica(BaseReplica):
    """Base replica for the streamlined one-phase-per-view protocols."""

    protocol_name = "chained-base"
    #: Number of consecutive-view links required before committing (2 or 3).
    commit_chain_length = 2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._new_view_msgs: Dict[int, Dict[int, NewView]] = {}
        self._proposed_views: set = set()
        self._voted_views: set = set()

    # ------------------------------------------------------------- lifecycle
    def restore_vote_state(self, state) -> None:
        """Re-arm the per-view vote guard from the recovered WAL summary."""
        super().restore_vote_state(state)
        self._voted_views.update(state.voted_views)

    def start(self, first_view: int = 1) -> None:
        """Start and bootstrap the first leader with genesis NewView messages."""
        if self.behavior.is_crashed():
            return
        super().start(first_view)
        bootstrap = NewView(
            view=first_view,
            voter=self.replica_id,
            high_cert=self.high_cert,
            share=None,
            voted_block_hash=self.block_store.genesis.block_hash,
        )
        self.send(self.leaders.leader_of(first_view), bootstrap)

    # ------------------------------------------------------------ leader role
    def on_enter_view(self, view: int) -> None:
        super().on_enter_view(view)
        if self.is_leader_of(view):
            self._try_propose(view)
            self.sim.schedule_at(self.pacemaker.share_timer(view), self._try_propose, view, True)

    def handle_new_view(self, msg: NewView, sender: int) -> None:
        """Collect votes / view-change messages addressed to this leader."""
        self.record_certificate(msg.high_cert)
        bucket = self._new_view_msgs.setdefault(msg.view, {})
        bucket[msg.voter] = msg
        if self.is_leader_of(msg.view) and self.current_view == msg.view:
            self._try_propose(msg.view)

    def _try_propose(self, view: int, force: bool = False) -> None:
        """Propose for *view* once the Figure 4 leader conditions are met."""
        if self.halted or view in self._proposed_views:
            return
        if self.current_view != view or not self.is_leader_of(view):
            return
        bucket = self._new_view_msgs.get(view, {})
        if len(bucket) < self.config.quorum:
            return
        formed = self._try_form_previous_certificate(bucket)
        if self.halted:
            return  # a crash-point probe fired mid-certificate-formation
        if not formed and not force and len(bucket) < self.config.n:
            return
        self._propose(view)

    def _try_form_previous_certificate(self, bucket: Dict[int, NewView]) -> bool:
        """Aggregate the votes in *bucket* into ``P(v-1)`` if a quorum agrees."""
        shares_by_block: Dict[str, list] = {}
        for msg in bucket.values():
            if msg.share is not None and msg.voted_block_hash:
                shares_by_block.setdefault(msg.voted_block_hash, []).append(msg.share)
        for block_hash, shares in shares_by_block.items():
            if len(shares) < self.config.quorum:
                continue
            block = self.block_store.maybe_get(block_hash)
            if block is None:
                continue
            try:
                cert = self.authority.form_certificate(
                    CertKind.PREPARE, block.view, block.slot, block_hash, shares
                )
            except InvalidCertificateError:
                continue
            self.record_certificate(cert)
            self.fault_point(HOOK_MID_CERT)
            return True
        return False

    def _propose(self, view: int) -> None:
        """Build and broadcast the proposal for *view*."""
        self._proposed_views.add(view)
        justify = self.behavior.choose_justify(self, view, self.high_cert)
        batch = self.mempool.next_batch(self.config.batch_size)
        block = Block.build(
            view=view,
            slot=1,
            parent_hash=justify.block_hash,
            proposer=self.replica_id,
            transactions=batch,
        )
        self.admit_block(block)
        if self.tracer is not None:
            self.tracer.block_proposed(block, self.mempool.peek_count(), replica=self.replica_id)
        self.justify_of[block.block_hash] = justify
        proposal = Propose(view=view, slot=1, block=block, justify=justify)
        cost = self.costs.certificate_formation_cost(self.config.quorum)
        cost += self.costs.proposal_cost(len(batch), self.config.n)
        delay = self.behavior.propose_delay(self, view)
        targets = self.behavior.proposal_targets(self, view, list(self.config.replica_ids()))
        self.sim.schedule(cost + delay, self.broadcast_replicas, proposal, targets)
        self._maybe_equivocate(view, cost + delay)

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
        self.justify_of[alt_block.block_hash] = alt_justify
        alt_proposal = Propose(view=view, slot=1, block=alt_block, justify=alt_justify)
        self.sim.schedule(delay, self.broadcast_replicas, alt_proposal, list(alt_targets))

    # ------------------------------------------------------------ backup role
    def handle_propose(self, msg: Propose, sender: int) -> None:
        """Validate a proposal, apply commit/speculation rules, vote, exit the view."""
        if sender != self.leaders.leader_of(msg.view):
            return
        if not self.authority.verify_certificate(msg.justify):
            return
        block = msg.block
        if block.parent_hash != msg.justify.block_hash or block.view != msg.view:
            return
        if not msg.justify.is_genesis and msg.justify.block_hash not in self.block_store:
            self.request_block(msg.justify.block_hash, sender, waiting_proposal=msg)
            return
        self.admit_block(block)
        self.justify_of.setdefault(block.block_hash, msg.justify)
        self.record_certificate(msg.justify)
        if msg.view > self.current_view:
            self.pacemaker.force_enter(msg.view)
        if msg.view < self.current_view or msg.view in self._voted_views:
            return
        if self.pacemaker.has_completed(msg.view):
            return
        self._process_proposal(msg, sender)

    def _process_proposal(self, msg: Propose, sender: int) -> None:
        """Apply commit rule, speculation rule and voting for an accepted proposal."""
        block = msg.block
        justify = msg.justify
        cost = self.costs.proposal_validation_cost(self.config.quorum)
        cost += self._apply_commit_rule(msg, cost)
        cost += self._apply_speculation_rule(msg, cost)

        vote_ok = justify.position >= self.high_cert.position or self.behavior.votes_unsafely(self, msg)
        share = None
        voted_hash = ""
        if vote_ok and self.behavior.should_vote(self, msg):
            share = self.authority.create_vote(
                self.replica_id, CertKind.PREPARE, block.view, block.slot, block.block_hash
            )
            voted_hash = block.block_hash
            self._voted_views.add(msg.view)
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

    # -------------------------------------------------------------- timeouts
    def on_view_timeout(self, view: int) -> None:
        """Blame the leader: send a NewView without a vote and move on."""
        if self.report_metrics:
            self.metrics.record_timeout()
        if not self.behavior.withholds_new_view(self, view):
            new_view = NewView(
                view=view + 1,
                voter=self.replica_id,
                high_cert=self.high_cert,
                share=None,
                voted_block_hash="",
            )
            self.send(self.leaders.leader_of(view + 1), new_view)
        self.pacemaker.completed_view(view, timed_out=True)

    # ------------------------------------------------------------ commit rule
    def _apply_commit_rule(self, msg: Propose, accumulated_cost: float) -> float:
        """Commit the chain implied by the proposal's justify certificate.

        Returns the execution cost charged for the newly committed blocks.
        """
        justify = msg.justify
        if justify.is_genesis:
            return 0.0
        certified_block = self.block_store.maybe_get(justify.block_hash)
        if certified_block is None:
            return 0.0
        target = self._commit_target(certified_block)
        if target is None or target.is_genesis or self.ledger.is_committed(target.block_hash):
            return 0.0
        txn_count = self._uncommitted_txn_count(target)
        exec_cost = self.execution_cost_for(txn_count) + self.costs.response_cost(txn_count)
        self.commit_up_to(target, response_delay=accumulated_cost + exec_cost)
        return exec_cost

    def _commit_target(self, certified_block: Block) -> Optional[Block]:
        """Walk back ``commit_chain_length - 1`` consecutive-view links from the certified block."""
        block = certified_block
        for _ in range(self.commit_chain_length - 1):
            parent = self.block_store.parent_of(block)
            if parent is None or parent.is_genesis:
                return None
            if parent.view != block.view - 1:
                return None
            block = parent
        return block

    def _uncommitted_txn_count(self, target: Block) -> int:
        """Count the transactions on the uncommitted path ending at *target*."""
        count = 0
        block: Optional[Block] = target
        while block is not None and not block.is_genesis and not self.ledger.is_committed(block.block_hash):
            if not self.ledger.is_speculated(block.block_hash):
                count += block.txn_count
            block = self.block_store.parent_of(block)
        return count

    # ------------------------------------------------------------ speculation
    def _apply_speculation_rule(self, msg: Propose, accumulated_cost: float) -> float:
        """Hook for HotStuff-1; baselines never speculate."""
        return 0.0
