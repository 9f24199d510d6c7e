"""Streamlined HotStuff-1 with adaptive slotting (§6, Figures 6 and 7).

Each leader drives as many *slots* as fit in its view: it proposes block
``B_{1,v}``, collects ``n - f`` NewSlot votes, forms a New-Slot certificate,
proposes ``B_{2,v}``, and so on until its view timer expires.  View
transitions happen on the timer: every replica sends a NewView message to the
next leader carrying its highest certificate, the hash of its highest voted
block and a New-View signature share over that block.

First-slot proposals must carry a self-contained proof of "no tail-forking"
in one of two ways: (i) extend a New-View certificate formed by the proposing
leader itself, or (ii) extend the leader's highest certificate and *carry*
the lowest uncertified block that extends it (Definition 6.3).  Replicas
enforce this through the ``SafeSlot`` predicate and answer unsafe proposals
with Reject messages; a leader that was misled by its (initially trusted)
predecessor marks it distrusted and falls back to the four waiting
conditions of §6.1.

In this reproduction the carry block is linearised into the hash chain (the
first-slot block's parent *is* the carry block), which preserves the paper's
commit semantics — the carry block commits exactly when the first-slot block
commits — while letting the ordinary chain machinery (ancestry, commit paths,
rollback targets) apply unchanged.

Leaders propose and replicas vote only in their current view, so the leader
state belongs to ``last_proposed_view`` (reset on proposing in a newer view)
and the vote guard is ``last_voted_view`` plus the slots voted in it, like
HotStuff's ``vheight``.  Only ``justify_of`` is kept per block.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.consensus.certificates import Certificate, CertKind
from repro.consensus.config import MAX_SLOTS_PER_VIEW
from repro.consensus.messages import NewSlot, NewView, Propose, Reject
from repro.consensus.replica import BaseReplica
from repro.core.speculation import SpeculationGuard
from repro.ledger.block import Block
from repro.types import NULL_DIGEST, is_null_digest


class SlottedHotStuff1Replica(BaseReplica):
    """Streamlined HotStuff-1 replica with the adaptive slotting mechanism."""

    protocol_name = "hotstuff-1-slotting"
    supports_slotting = True
    #: Consensus half-phases before a (speculative) client response.
    consensus_half_phases = 3
    #: Closed-loop client population, in batches, that keeps the pipeline at its knee.
    client_knee_blocks = 4.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.speculation_guard = SpeculationGuard(self.ledger)
        #: Hash of the highest block this replica has voted for (``B_h``).
        self.highest_voted_hash = self.block_store.genesis.block_hash
        #: Previous leaders this replica has stopped trusting (§6.3).
        self.distrusted_leaders: set = set()
        #: The justify certificate each known block was proposed with.
        self.justify_of: Dict[str, Certificate] = {self.block_store.genesis.block_hash: self.genesis_cert}
        self.slots_proposed_total = 0
        self._start_leader_view(0)
        #: Slots voted in ``last_voted_view``; every earlier view counts as voted.
        self._voted_slots: Set[int] = set()
        #: Blocks of view ``_vouched_view`` this replica voted for or proposed.
        self._vouched_view, self._voted_hashes = 0, set()

    @staticmethod
    def client_quorum(config) -> int:
        """Clients wait for ``n - f`` matching (speculative) responses."""
        return config.quorum

    # ------------------------------------------------------------- lifecycle
    def restore_vote_state(self, state) -> None:
        """Re-arm the vote guard (the slots voted in ``last_voted_view``) and ``B_h`` from the WAL."""
        super().restore_vote_state(state)
        self._voted_slots = {slot for view, slot in state.voted if view == self.last_voted_view}
        if state.highest_voted_hash and state.highest_voted_hash in self.block_store:
            self.highest_voted_hash = state.highest_voted_hash

    def bootstrap_new_view(self, first_view: int) -> NewView:
        """The genesis NewView, with a New-View share over genesis as the highest voted block."""
        genesis = self.block_store.genesis
        share = self.authority.create_vote(
            self.replica_id, CertKind.NEW_VIEW, genesis.view, genesis.slot, genesis.block_hash
        )
        return NewView(
            view=first_view,
            voter=self.replica_id,
            high_cert=self.high_cert,
            share=share,
            voted_block_hash=genesis.block_hash,
            highest_voted_hash=genesis.block_hash,
        )

    def forget_block(self, block_hash: str) -> None:
        """Also drop the block's justify."""
        super().forget_block(block_hash)
        self.justify_of.pop(block_hash, None)

    # ------------------------------------------------------------ leader role
    def _start_leader_view(self, view: int) -> None:
        """Proposing in *view*: empty leader state, all of it *view*'s."""
        #: Highest view this replica proposed in.
        self.last_proposed_view = view
        self._withdraw_proposals()
        #: That view's certified slots, New-Slot votes per slot, and Rejects.
        self._certified_slots: Set[int] = set()
        self._new_slot_msgs: Dict[int, Dict[int, NewSlot]] = {}
        self._reject_msgs: Dict[int, Reject] = {}

    def _withdraw_proposals(self) -> None:
        """Forget the view's highest proposed slot, its block (the parent of
        the next pipelined proposal) and the justify in-flight slots carry."""
        self._proposed_slot, self._proposed_hash = 0, None
        self._pipeline_justify: Optional[Certificate] = None

    def _has_proposed(self, view: int, slot: int) -> bool:
        """``True`` if this leader has a standing proposal for ``(view, slot)``.

        A view's slots are proposed in order, so its highest one stands for all.
        """
        return view == self.last_proposed_view and slot <= self._proposed_slot

    def handle_new_view(self, msg: NewView, sender: int) -> None:
        """Collect NewView messages; use the trusted-previous-leader fast path when possible."""
        self.collect_new_view(msg)
        if not self.is_leader_of(msg.view) or self.current_view != msg.view:
            return
        if self._trusted_fast_path(msg, sender):
            self._propose_first_slot(msg.view, new_view_cert=None)
            return
        self._try_propose(msg.view)

    def _trusted_fast_path(self, msg: NewView, sender: int) -> bool:
        """Figure 6, Line 20: a trusted previous leader reports a certificate formed in its view."""
        previous_leader = self.leaders.leader_of(msg.view - 1)
        if sender != previous_leader or sender in self.distrusted_leaders:
            return False
        if self._has_proposed(msg.view, 1):
            return False
        cert = msg.high_cert
        formed_in_previous = (
            cert.kind is CertKind.NEW_SLOT and cert.view == msg.view - 1
        ) or (cert.kind is CertKind.NEW_VIEW and cert.formed_in_view == msg.view - 1)
        return formed_in_previous

    def _try_propose(self, view: int, force: bool = False) -> None:
        """Figure 6, Lines 4-13: wait for one of the four conditions, then propose slot 1."""
        if self.halted or self._has_proposed(view, 1):
            return
        if self.current_view != view or not self.is_leader_of(view):
            return
        bucket = self._new_view_msgs.get(view, {})
        trusted_message = self._trusted_bucket_message(view, bucket)
        if trusted_message is not None:
            self.record_certificate(trusted_message.high_cert)
            if self._propose_first_slot(view, new_view_cert=None):
                return
        if len(bucket) < self.config.quorum:
            return
        # Condition (1): n−f New-View shares for the same highest voted block.
        votes = [(msg.voted_block_hash, msg.share) for msg in bucket.values()]
        new_view_cert = self.adopt_formed_certificate(
            self.aggregate_votes(CertKind.NEW_VIEW, votes, formed_in_view=view)
        )
        if new_view_cert is not None:
            self._propose_first_slot(view, new_view_cert)
            return
        condition_met = (
            len(bucket) >= self.config.n or force or self._no_higher_votes_condition(bucket)
        )
        if not condition_met:
            return
        self._propose_first_slot(view, None)

    def _trusted_bucket_message(self, view: int, bucket: Dict[int, NewView]) -> Optional[NewView]:
        """Return the previous (trusted) leader's buffered NewView if it enables the fast path."""
        previous_leader = self.leaders.leader_of(view - 1)
        message = bucket.get(previous_leader)
        if message is not None and self._trusted_fast_path(message, previous_leader):
            return message
        return None

    def _no_higher_votes_condition(self, bucket: Dict[int, NewView]) -> bool:
        """Condition (4): with n−k NewViews, fewer than f+1−k votes exist above the highest certificate."""
        received = len(bucket)
        missing = self.config.n - received
        if missing > self.config.f or received < self.config.quorum:
            return False
        higher_votes: Dict[str, int] = {}
        for msg in bucket.values():
            voted = self.block_store.maybe_get(msg.highest_voted_hash or msg.voted_block_hash)
            if voted is None:
                continue
            if voted.position > self.high_cert.position:
                higher_votes[voted.block_hash] = higher_votes.get(voted.block_hash, 0) + 1
        threshold = self.config.f + 1 - missing
        return all(count < threshold for count in higher_votes.values()) if higher_votes else True

    def _propose_first_slot(self, view: int, new_view_cert: Optional[Certificate]) -> bool:
        """Broadcast the well-formed first-slot proposal (way (i) or way (ii)).

        Returns ``True`` if a well-formed proposal could be issued.  Way (ii)
        proposals that require a carry block (Cases 2 and 3) are *not* issued
        while the carry block is still in flight — the caller retries when the
        next NewView (or the missing block itself) arrives.
        """
        if self._has_proposed(view, 1) or self.current_view != view:
            return True
        if new_view_cert is not None:
            justify = new_view_cert
            parent_hash = justify.block_hash
            carry_hash = NULL_DIGEST
        else:
            justify = self.behavior.choose_justify(self, view, self.high_cert)
            carry_block = self._find_carry_block(justify)
            needs_carry = (justify.kind is CertKind.NEW_SLOT) or (
                justify.kind is CertKind.NEW_VIEW and justify.formed_in_view < view
            )
            if carry_block is not None:
                parent_hash = carry_block.block_hash
                carry_hash = carry_block.block_hash
            elif needs_carry:
                return False
            else:
                parent_hash = justify.block_hash
                carry_hash = NULL_DIGEST
        self._broadcast_slot_proposal(view, 1, justify, parent_hash, carry_hash)
        return True

    def _find_carry_block(self, justify: Certificate) -> Optional[Block]:
        """Definition 6.3: the lowest uncertified block that extends *justify*."""
        if justify.is_genesis:
            return None
        if justify.kind is CertKind.NEW_VIEW:
            expected = (justify.formed_in_view, 1)
        else:
            expected = (justify.view, justify.slot + 1)
        for child in self.block_store.children_of(justify.block_hash):
            if (child.view, child.slot) == expected and child.block_hash not in self.certs_by_block:
                return child
        return None

    def handle_new_slot(self, msg: NewSlot, sender: int) -> None:
        """Figure 6, Lines 16-19: form the New-Slot certificate and propose the next slot."""
        if not self.is_leader_of(msg.view):
            return
        self.record_certificate(msg.high_cert)
        if msg.view != self.last_proposed_view:
            return  # a vote for a view this leader has left
        bucket = self._new_slot_msgs.setdefault(msg.slot, {})
        bucket[msg.voter] = msg
        if msg.slot in self._certified_slots or self.current_view != msg.view:
            return
        if self.pacemaker.has_completed(msg.view):
            return
        votes = [(vote.voted_block_hash, vote.share) for vote in bucket.values()]
        cert = self.aggregate_votes(CertKind.NEW_SLOT, votes, position=(msg.view, msg.slot))
        if cert is None:
            return
        highest_certified = max(self._certified_slots, default=0)
        self._certified_slots.add(msg.slot)
        self.adopt_formed_certificate(cert)
        if msg.slot > highest_certified:
            self._pipeline_justify = cert
        if self.config.pipeline_depth > 1:
            self._pump_pipeline()
        elif msg.slot + 1 <= MAX_SLOTS_PER_VIEW:
            self._broadcast_slot_proposal(msg.view, msg.slot + 1, cert, cert.block_hash, NULL_DIGEST)

    def _broadcast_slot_proposal(
        self, view: int, slot: int, justify: Certificate, parent_hash: str, carry_hash: str
    ) -> None:
        """Assemble and broadcast the block for slot ``(slot, view)``."""
        if self.halted:
            return  # a crash-point probe fired mid-certificate-formation
        if self._has_proposed(view, slot) or self.current_view != view:
            return
        if self.pacemaker.has_completed(view):
            return
        if view != self.last_proposed_view:
            self._start_leader_view(view)
        self.slots_proposed_total += 1
        block, _ = self.broadcast_proposal(view, slot, justify, parent_hash, carry_hash=carry_hash)
        self.justify_of[block.block_hash] = justify
        # The proposer vouches for its own block: its self-addressed copy of
        # a deeper pipelined proposal may arrive before it has processed (and
        # voted on) this one, and the SafeSlot ancestry walk must not treat
        # the leader's own chain as unvouched-for.
        self._vouch_for(block)
        self._proposed_slot = slot
        self._proposed_hash = block.block_hash
        if slot == 1 and self._pipeline_justify is None:
            self._pipeline_justify = justify
        if self.config.pipeline_depth > 1:
            self._pump_pipeline()

    def _pump_pipeline(self) -> None:
        """Keep up to ``pipeline_depth`` uncertified slot proposals in flight.

        Called after each proposal and each New-Slot certificate: while the
        in-flight window (proposed minus certified slots) has capacity, the
        leader proposes the next slot immediately — justified by the freshest
        certificate it holds, chained onto its own previous proposal — instead
        of waiting one vote round-trip per slot.  Replicas accept the
        uncertified gap through the pipelined arm of ``SafeSlot``.
        """
        view = self.last_proposed_view
        proposed = self._proposed_slot
        if proposed == 0 or self.current_view != view or self.halted:
            return  # slot 1 must go through its own well-formedness proof
        in_flight = proposed - max(self._certified_slots, default=0)
        if in_flight >= self.config.pipeline_depth:
            return
        if in_flight > 0 and self.mempool.peek_count() == 0:
            # Proposing ahead of an empty mempool just burns fixed per-slot
            # cost on empty blocks.  Keep at most one empty slot in flight
            # (the depth-1 heartbeat that keeps the view alive); the window
            # refills on the next certificate, by which time commits have
            # released closed-loop clients back into the mempool.
            return
        next_slot = proposed + 1
        if next_slot > MAX_SLOTS_PER_VIEW or self.pacemaker.has_completed(view):
            return
        justify = self._pipeline_justify
        parent_hash = self._proposed_hash
        if justify is None or parent_hash is None:
            return
        self._broadcast_slot_proposal(view, next_slot, justify, parent_hash, NULL_DIGEST)

    def handle_reject(self, msg: Reject, sender: int) -> None:
        """Figure 6, Lines 22-24: adopt the higher certificate and distrust the previous leader."""
        if not self.is_leader_of(msg.view):
            return
        if not self.authority.verify_certificate(msg.high_cert):
            return
        previously_highest = self.high_cert
        self.record_certificate(msg.high_cert)
        if msg.high_cert.position > previously_highest.position:
            previous_leader = self.leaders.leader_of(msg.view - 1)
            if msg.high_cert.view == msg.view - 1 or msg.high_cert.formed_in_view == msg.view - 1:
                # The previous leader concealed a certificate formed in its own
                # view from us: stop trusting its NewView reports (§6.3).
                self.distrusted_leaders.add(previous_leader)
        if msg.view != self.last_proposed_view:
            return  # a Reject for a view this leader has left
        self._reject_msgs[msg.voter] = msg
        # Once f+1 correct replicas reject our first slot it can never gather a
        # quorum; withdraw it and re-propose from the freshest certificate.
        # Any pipelined successors extend the withdrawn block and can never
        # certify, so the re-proposed slot 1 restarts the pipeline.
        if (
            self.current_view == msg.view
            and msg.slot == 1
            and len(self._reject_msgs) >= self.config.f + 1
            and 1 not in self._certified_slots
        ):
            self._withdraw_proposals()
            self._try_propose(msg.view, force=True)

    # ------------------------------------------------------------ backup role
    def _has_voted(self, view: int, slot: int) -> bool:
        """``True`` if this replica voted in ``(view, slot)`` or in a later view."""
        return view < self.last_voted_view or (view == self.last_voted_view and slot in self._voted_slots)

    def _vouch_for(self, block: Block) -> None:
        """Record that this replica voted for (or proposed) *block*, of its current view."""
        if block.view != self._vouched_view:
            self._vouched_view, self._voted_hashes = block.view, set()
        self._voted_hashes.add(block.block_hash)

    def handle_propose(self, msg: Propose, sender: int) -> None:
        """Figure 7, Lines 12-26: commit, speculate, SafeSlot check, vote or reject."""
        if sender != self.leaders.leader_of(msg.view):
            return
        if not self.authority.verify_certificate(msg.justify):
            return
        block = msg.block
        if block.view != msg.view or block.slot != msg.slot:
            return
        if not msg.justify.is_genesis and msg.justify.block_hash not in self.block_store:
            self.request_block(msg.justify.block_hash, sender, waiting_proposal=msg)
            return
        if not is_null_digest(msg.carry_hash) and msg.carry_hash not in self.block_store:
            self.request_block(msg.carry_hash, sender, waiting_proposal=msg)
            return
        if (
            self.config.pipeline_depth > 1
            and msg.slot > 1
            and block.parent_hash != msg.justify.block_hash
            and block.parent_hash not in self.block_store
        ):
            # A pipelined proposal can overtake its still-uncertified parent
            # in flight (the simulated network reorders freely; TCP does
            # not).  Park it until the parent arrives rather than rejecting
            # a perfectly safe slot.
            self.request_block(block.parent_hash, sender, waiting_proposal=msg)
            return
        self.admit_block(block)
        self.justify_of.setdefault(block.block_hash, msg.justify)
        self.record_certificate(msg.justify)
        if msg.view > self.current_view:
            self.pacemaker.force_enter(msg.view)
        if msg.view < self.current_view or self._has_voted(msg.view, msg.slot):
            # A late block from the previous view may be exactly the carry
            # block our own pending first-slot proposal is waiting for.
            if self.is_leader_of(self.current_view) and not self._has_proposed(self.current_view, 1):
                self._try_propose(self.current_view)
            return
        if self.pacemaker.has_completed(msg.view):
            return
        self._process_slot_proposal(msg, sender)
        # Now that this block is stored (and our vote on it, if any, is
        # recorded) any pipelined children parked on it can be processed —
        # without waiting for the fetch round-trip that parking started.
        waiting = self._pending_fetch.pop(block.block_hash, None)
        if waiting:
            for child in waiting:
                self.handle_propose(child, sender)

    def _process_slot_proposal(self, msg: Propose, sender: int) -> None:
        block = msg.block
        justify = msg.justify
        cost = self.costs.proposal_validation_cost(self.config.quorum)
        cost += self.charged_commit(self._prefix_commit_target(justify), cost)
        cost += self._apply_speculation(justify, msg.view, msg.slot, cost)

        safe = self._safe_slot(msg)
        not_superseded = self.high_cert.position <= justify.position
        if safe and not_superseded and self.behavior.should_vote(self, msg):
            if msg.view != self.last_voted_view:
                self._voted_slots = set()
            self._voted_slots.add(msg.slot)
            self._vouch_for(block)
            self.note_vote(msg.view, msg.slot, block.block_hash)
            voted_block = self.block_store.maybe_get(self.highest_voted_hash)
            if voted_block is None or block.position > voted_block.position:
                self.highest_voted_hash = block.block_hash
            share = self.authority.create_vote(
                self.replica_id, CertKind.NEW_SLOT, msg.view, msg.slot, block.block_hash
            )
            vote = NewSlot(
                view=msg.view,
                slot=msg.slot,
                voter=self.replica_id,
                high_cert=self.high_cert,
                share=share,
                voted_block_hash=block.block_hash,
            )
            self.sim.schedule(cost + self.costs.vote_cost(), self.send, sender, vote)
        else:
            reject = Reject(
                view=msg.view, slot=msg.slot, voter=self.replica_id, high_cert=self.high_cert
            )
            self.sim.schedule(cost, self.send, sender, reject)

    def _safe_slot(self, msg: Propose) -> bool:
        """The SafeSlot predicate (Figure 7, Lines 1-11) plus structural chain checks."""
        block = msg.block
        justify = msg.justify
        carry_block = None
        if not is_null_digest(msg.carry_hash):
            carry_block = self.block_store.maybe_get(msg.carry_hash)
            if carry_block is None:
                return False
            if block.parent_hash != carry_block.block_hash:
                return False
            if carry_block.parent_hash != justify.block_hash:
                return False
        else:
            if block.parent_hash != justify.block_hash:
                # Pipelined proposals legitimately outrun their justify: the
                # parent is the leader's previous, still-uncertified proposal.
                if (
                    self.config.pipeline_depth > 1
                    and msg.slot > 1
                    and justify.kind in (CertKind.NEW_SLOT, CertKind.NEW_VIEW)
                ):
                    return self._safe_pipelined_slot(msg)
                return False

        if msg.slot == 1 and justify.is_genesis:
            # Bootstrap: the genesis certificate is assumed valid by all replicas.
            return True
        if msg.slot == 1 and justify.kind is CertKind.NEW_VIEW and justify.formed_in_view == msg.view:
            return True  # Case 1
        if (
            msg.slot == 1
            and justify.kind is CertKind.NEW_VIEW
            and justify.formed_in_view < msg.view
            and carry_block is not None
            and carry_block.slot == 1
            and carry_block.view == justify.formed_in_view
        ):
            return True  # Case 2
        if (
            msg.slot == 1
            and justify.kind is CertKind.NEW_SLOT
            and carry_block is not None
            and carry_block.slot == justify.slot + 1
            and carry_block.view == justify.view
        ):
            return True  # Case 3
        if (
            msg.slot > 1
            and justify.kind in (CertKind.NEW_SLOT, CertKind.NEW_VIEW)
            and justify.slot == msg.slot - 1
            and justify.view == msg.view
        ):
            return True  # Case 4
        if msg.slot == 2 and justify.kind is CertKind.NEW_VIEW and justify.formed_in_view == msg.view:
            # The first slot of a view may be certified as a New-View certificate
            # when its votes arrive as New-View shares; treat it like Case 4.
            return True
        return False

    def _safe_pipelined_slot(self, msg: Propose) -> bool:
        """Pipelined arm of SafeSlot (``pipeline_depth > 1`` deployments only).

        Accept slot ``s`` whose uncertified ancestry is a consecutive-slot,
        same-view, same-proposer chain of blocks this replica already voted
        for, rooted either at the block the justify certifies in this view
        (Case 4 at a distance) or at this view's first slot — whose own
        first-slot well-formedness proof (including any carry block) was
        checked when the replica voted for it.  Voting for such a proposal is
        safe for the same reason Case 4 is: every uncertified link is vouched
        for either by the replica's own vote or by a certificate it verified
        (a quorum's endorsement, strictly stronger), so a conflicting chain
        through these slots can never gather a quorum that intersects it.
        """
        justify = msg.justify
        proposer = msg.block.proposer
        ancestor = self.block_store.maybe_get(msg.block.parent_hash)
        hops = 1
        while ancestor is not None and hops <= self.config.pipeline_depth:
            if ancestor.block_hash == justify.block_hash:
                return justify.view == msg.view and justify.slot == msg.slot - hops
            if (
                ancestor.view != msg.view
                or ancestor.proposer != proposer
                or ancestor.slot != msg.slot - hops
                or (
                    ancestor.block_hash not in self._voted_hashes
                    and ancestor.block_hash not in self.certs_by_block
                )
            ):
                return False
            if ancestor.slot == 1:
                return True
            ancestor = self.block_store.maybe_get(ancestor.parent_hash)
            hops += 1
        return False

    # ---------------------------------------------------- commit & speculation
    def _prefix_commit_target(self, justify: Certificate) -> Optional[Block]:
        """Prefix commit rule over the two-dimensional (view, slot) chain."""
        certified_block = self.certified_block(justify)
        if certified_block is None:
            return None
        previous_justify = self.justify_of.get(certified_block.block_hash)
        if previous_justify is None:
            return None
        same_view_adjacent = (
            previous_justify.view == justify.view and not previous_justify.is_genesis
        )
        first_slot_adjacent = certified_block.slot == 1 and (
            previous_justify.view == justify.view - 1 or previous_justify.is_genesis
        )
        if not (same_view_adjacent or first_slot_adjacent):
            return None
        return self.block_store.maybe_get(previous_justify.block_hash)

    def _apply_speculation(
        self, justify: Certificate, proposal_view: int, proposal_slot: int, accumulated_cost: float
    ) -> float:
        """Speculate on the block certified by *justify* when the §6 rules allow it."""
        block = self.certified_block(justify)
        if not self.config.speculation_enabled or block is None or self.ledger.is_speculated(block.block_hash):
            return 0.0
        if not self.speculation_guard.check_slotted(block, proposal_view, proposal_slot):
            return 0.0
        return self.charged_speculation(block, accumulated_cost)

    # -------------------------------------------------------------- timeouts
    def on_view_timeout(self, view: int) -> None:
        """Normal view transition: send the New-View vote for the highest voted block."""
        voted_block = self.block_store.maybe_get(self.highest_voted_hash)
        if voted_block is None:
            voted_block = self.block_store.genesis
        share = self.authority.create_vote(
            self.replica_id, CertKind.NEW_VIEW, voted_block.view, voted_block.slot, voted_block.block_hash
        )
        if not self.behavior.withholds_new_view(self, view):
            new_view = NewView(
                view=view + 1,
                voter=self.replica_id,
                high_cert=self.high_cert,
                share=share,
                voted_block_hash=voted_block.block_hash,
                highest_voted_hash=voted_block.block_hash,
            )
            self.send(self.leaders.leader_of(view + 1), new_view)
        # Every slotted view ends on its timer, so every epoch boundary keeps
        # the Wish/TC exchange.
        self.pacemaker.completed_view(view, timed_out=True)
