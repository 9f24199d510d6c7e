"""Byzantine replica behaviours used by the failure-resiliency experiments.

The evaluation (§7.3) injects three attacks:

* **leader slowness** — a rational leader delays its proposal until just
  before its view expires;
* **tail-forking** — a faulty leader ignores the freshest certificate and
  extends an older one, discarding the previous correct leader's block;
* **rollback forcing** — a faulty leader discloses a certificate (inside its
  proposal) to only a subset of correct replicas so their speculative
  executions are later superseded and must be rolled back.

Behaviours are strategy objects consulted by a replica at well-defined
points; a replica with the default :class:`HonestBehavior` follows the
protocol exactly.  Behaviours know whether the hosting protocol has slotting
(``replica.supports_slotting``) because the paper's point is precisely that
slotting blunts these attacks: a slotted leader has no incentive to delay, a
slotted tail-forker can only withhold its NewView message, and rollbacks are
confined to the last slot of the previous view.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.consensus.certificates import Certificate
from repro.consensus.messages import ClientResponseBatch, ResponseEntry
from repro.crypto.hashing import hash_text


class ReplicaBehavior:
    """Honest default behaviour; subclasses override selected decision points."""

    name = "honest"
    is_byzantine = False

    def is_crashed(self) -> bool:
        """Return ``True`` if the replica should ignore all traffic."""
        return False

    def propose_delay(self, replica, view: int) -> float:
        """Extra delay (seconds) before the leader sends its proposal for *view*."""
        return 0.0

    def choose_justify(self, replica, view: int, default: Certificate) -> Certificate:
        """The certificate the leader extends (honest leaders use the highest known)."""
        return default

    def proposal_targets(self, replica, view: int, targets: Sequence[int]) -> List[int]:
        """The replicas the proposal is sent to (honest leaders broadcast to all)."""
        return list(targets)

    def should_vote(self, replica, proposal) -> bool:
        """Whether the replica votes for a valid proposal (honest replicas always do)."""
        return True

    def withholds_new_view(self, replica, view: int) -> bool:
        """Whether the replica suppresses its NewView message at the end of *view*."""
        return False

    def equivocal_proposal(self, replica, view: int, highest: Certificate):
        """Optionally return ``(alternate_justify, targets)`` for a second, conflicting proposal.

        Honest leaders never equivocate.  The rollback attack uses this hook to
        disclose the freshest certificate to a small set of victims (who then
        speculate on it) while the rest of the system is steered onto a fork.
        """
        return None

    def votes_unsafely(self, replica, proposal) -> bool:
        """Whether the replica votes even when the proposal extends a stale certificate.

        Correct replicas never do; Byzantine colluders vote for their own forks
        so that the fork can reach a quorum despite the colluders' own higher
        certificates.
        """
        return False

    def outgoing_response(self, replica, batch: ClientResponseBatch) -> ClientResponseBatch:
        """The response batch the replica sends its clients (honest: as built)."""
        return batch


class HonestBehavior(ReplicaBehavior):
    """Explicit alias of the base honest behaviour."""


class CrashBehavior(ReplicaBehavior):
    """The replica is crashed: it ignores every message and never sends any."""

    name = "crash"
    is_byzantine = True

    def is_crashed(self) -> bool:
        return True


class SlowLeaderBehavior(ReplicaBehavior):
    """Leader-slowness (D6): delay proposing until just before the view deadline.

    For protocols *with* slotting, the incentive to delay disappears (every
    extra slot is extra reward), so the behaviour degrades to a small initial
    hold representing residual fee-sniping on the first slot.
    """

    name = "slow-leader"
    is_byzantine = True

    def __init__(self, margin: float = 0.002, slotted_hold: float = 0.0005) -> None:
        self.margin = float(margin)
        self.slotted_hold = float(slotted_hold)

    def propose_delay(self, replica, view: int) -> float:
        if replica.supports_slotting:
            return self.slotted_hold
        deadline = replica.pacemaker.view_deadline(view)
        remaining = deadline - replica.sim.now
        return max(0.0, remaining - self.margin)


class TailForkingBehavior(ReplicaBehavior):
    """Tail-forking (D7): extend the certificate of view ``v-2`` instead of ``v-1``.

    With slotting the attack surface shrinks to withholding the attacker's own
    NewView message so the next leader cannot use the trusted-previous-leader
    fast path; the well-formedness rules (SafeSlot) force the attacker to
    carry the previous leader's last slot in any proposal correct replicas
    will accept.
    """

    name = "tail-forking"
    is_byzantine = True

    def choose_justify(self, replica, view: int, default: Certificate) -> Certificate:
        if replica.supports_slotting:
            return default
        older = replica.certificate_for_parent_of(default)
        return older if older is not None else default

    def votes_unsafely(self, replica, proposal) -> bool:
        return not replica.supports_slotting

    def withholds_new_view(self, replica, view: int) -> bool:
        return bool(replica.supports_slotting)


class RollbackAttackBehavior(ReplicaBehavior):
    """Rollback forcing via equivocation and certificate withholding (Appendix A.2).

    As leader of view ``v`` the attacker forms the certificate ``P(v-1)`` but
    discloses it only to a small set of *victims*: they receive a well-formed
    proposal extending ``P(v-1)``, satisfy the speculation rules, execute the
    previous leader's block speculatively and answer their clients.  Everyone
    else receives a conflicting proposal that extends the older certificate
    ``P(v-2)`` (a tail fork), which is what the rest of the system certifies.
    When the fork commits, the victims must roll back their speculated block.

    Against HotStuff-1 *with slotting* the attack collapses: the SafeSlot rules
    force any accepted first-slot proposal to protect the previous leader's
    last slot, so the behaviour degrades to honest participation (the paper's
    "a faulty leader can only force rollbacks of the last slot").
    """

    name = "rollback-attack"
    is_byzantine = True

    def __init__(self, victims: Sequence[int], colluders: Sequence[int] = ()) -> None:
        self.victims = list(victims)
        self.colluders = list(colluders)

    def choose_justify(self, replica, view: int, default: Certificate) -> Certificate:
        if replica.supports_slotting:
            return default
        older = replica.certificate_for_parent_of(default)
        return older if older is not None else default

    def proposal_targets(self, replica, view: int, targets: Sequence[int]) -> List[int]:
        if replica.supports_slotting:
            return list(targets)
        excluded = set(self.victims)
        return [target for target in targets if target not in excluded]

    def equivocal_proposal(self, replica, view: int, highest: Certificate):
        if replica.supports_slotting or not self.victims:
            return None
        older = replica.certificate_for_parent_of(highest)
        if older is None:
            return None
        return highest, list(self.victims)

    def votes_unsafely(self, replica, proposal) -> bool:
        return not replica.supports_slotting


class ForgedResponseBehavior(ReplicaBehavior):
    """Follows the protocol among replicas but mis-states results to clients,
    in each way block-level result roots allow (colluders share a *mode*, so
    their votes add up — to at most ``f``): ``foreign-txn`` appends an entry
    for a transaction of the block's *child* (pending at the client, executed
    by nobody yet) to the honest batch; ``flip-success`` inverts every success
    bit under the honest root; ``own-root`` puts the honest entries under a
    root of its own; ``entry-digest`` sets the reserved per-entry digest.
    None finalises anything (:mod:`repro.consensus.client`, "Matching responses").
    """

    name = "forged-response"
    is_byzantine = True
    MODES = ("foreign-txn", "flip-success", "own-root", "entry-digest")

    def __init__(self, mode: str) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown forgery mode {mode!r}; available: {self.MODES}")
        self.mode = mode

    def outgoing_response(self, replica, batch: ClientResponseBatch) -> ClientResponseBatch:
        forge = dataclasses.replace
        if self.mode == "own-root":
            return forge(batch, results_root=hash_text("forged:" + batch.results_root))
        if self.mode == "foreign-txn":
            pending = [txn for child in replica.block_store.children_of(batch.block_hash) for txn in child.transactions]
            return forge(batch, entries=batch.entries + tuple(ResponseEntry(t.txn_id, t.client_id) for t in pending[:1]))
        if self.mode == "flip-success":
            return forge(batch, entries=tuple(entry._replace(success=not entry.success) for entry in batch.entries))
        return forge(batch, entries=tuple(entry._replace(result_digest=batch.results_root) for entry in batch.entries))
