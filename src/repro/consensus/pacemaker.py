"""Epoch pacemaker (Figure 3) with a self-stabilising view synchroniser.

The pacemaker keeps at least ``n - f`` correct replicas in the same view so
leaders can collect quorums.  Views are grouped into epochs of ``f + 1``
consecutive views; at every epoch boundary replicas run a Wish / timeout
certificate (TC) exchange to re-synchronise, and inside an epoch views advance
locally (at network speed in the happy path, or on the view timer when the
leader stalls).  As in Figure 3, the exchange runs at every boundary, also
after views that certified at network speed.

The pacemaker exposes exactly the calls the paper's pseudocode uses:

* ``enter_view`` / ``completed_view`` — view lifecycle,
* ``share_timer(v)`` — the time (``start + 3 * delta``) after which a leader
  that could not form the previous view's certificate proposes anyway,
* ``view_deadline(v)`` — when the view timer for ``v`` fires.

The replica provides two callbacks: ``on_enter_view(view)`` and
``on_view_timeout(view)``.

View synchronisation after ``> f`` crashes
------------------------------------------
The Wish/TC exchange alone is not self-stabilising: if more than ``f``
replicas crash at once, survivors park at the next epoch boundary while the
recovered replicas resume at lower views, and a quorum wishing for the *same*
view never re-forms.  Three PBFT-style mechanisms close the gap:

* every pacemaker message (Wish, TC, the ``ViewSync`` beacon) carries the
  sender's current view and highest certificate, and every replica keeps a
  per-sender **view table** (:meth:`note_peer_view`);
* a replica that sees ``f + 1`` distinct senders report views above its own
  **jumps** to the ``(f + 1)``-th highest reported view — at least one honest
  replica reached it, so adopting it is safe (:meth:`_maybe_jump`);
* Wishes are **retransmitted** (and a ``ViewSync`` beacon broadcast) every
  ``view_timeout`` while the replica is parked at an epoch boundary, so
  epoch leaders that were down when the first Wish flew still collect a
  quorum after they restart.

The view table survives crashes: jumps snapshot it into the WAL and
:class:`~repro.storage.recovery.RecoveryManager` primes the restarted
pacemaker with it before :meth:`start` applies the evidence again.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Set

from repro.consensus.certificates import CertificateAuthority, CertKind
from repro.consensus.config import ProtocolConfig
from repro.consensus.leader import RoundRobinLeaderElection
from repro.consensus.messages import TimeoutCertificateMsg, ViewSync, Wish
from repro.crypto.threshold import SignatureShare
from repro.sim.process import Timer
from repro.sim.scheduler import Simulator


class Pacemaker:
    """Per-replica view synchroniser."""

    def __init__(
        self,
        sim: Simulator,
        replica,
        config: ProtocolConfig,
        authority: CertificateAuthority,
        leader_election: RoundRobinLeaderElection,
    ) -> None:
        self.sim = sim
        self.replica = replica
        self.config = config
        self.authority = authority
        self.leaders = leader_election
        self.current_view = 0
        self._highest_completed = 0
        self.start_time: Dict[int, float] = {}
        self._scheduled_start: Dict[int, float] = {}
        self._view_timer = Timer(sim, self._on_view_timer)
        self._wish_shares: Dict[int, Dict[int, SignatureShare]] = {}
        #: Our own timeout-vote share per wished view: retransmission ticks
        #: reuse it instead of redoing the threshold-signing work.
        self._sent_wish_shares: Dict[int, SignatureShare] = {}
        self._tc_formed: Set[int] = set()
        self._tc_entered: Set[int] = set()
        self._started = False
        self.stopped = False
        #: Highest view each peer has reported through pacemaker messages.
        self.view_table: Dict[int, int] = {}
        #: Epoch-boundary view whose Wish is outstanding (awaiting a TC).
        self._pending_wish: Optional[int] = None
        self._sync_timer = Timer(sim, self._on_sync_timer)
        #: Number of evidence-driven view jumps taken (diagnostics).
        self.jumps = 0

    # ------------------------------------------------------------ lifecycle
    def start(self, first_view: int = 1) -> None:
        """Begin operating; every replica calls this at simulation start."""
        if self.stopped:
            return
        self._started = True
        if first_view % self.config.epoch_length == 0:
            self.synchronize_epoch(first_view)
        else:
            self.enter_view(first_view)
        # A recovered replica may have been primed with pre-crash view
        # evidence (restore_view_table); apply it now that the loop runs.
        self._maybe_jump()

    def stop(self) -> None:
        """Stop for good: cancel the view timer and ignore all future activity.

        Called when the hosting replica is halted (crashed); a stopped
        pacemaker never re-arms, so scheduler callbacks left over from before
        the crash cannot make a dead replica cycle through views.
        """
        self.stopped = True
        self._view_timer.cancel()
        self._sync_timer.cancel()

    def enter_view(self, view: int) -> None:
        """Enter *view* (monotonic: entering an older view is a no-op)."""
        if self.stopped or view <= self.current_view:
            return
        self.current_view = view
        self._highest_completed = max(self._highest_completed, view - 1)
        if self._pending_wish is not None and view >= self._pending_wish:
            self._pending_wish = None
            self._sync_timer.cancel()
        self._prune_below(view)
        now = self.sim.now
        self.start_time[view] = now
        deadline = self._scheduled_start.get(view + 1, now + self.config.view_timeout)
        deadline = max(deadline, now + self.config.view_timeout * 0.25)
        self._view_timer.start_at(deadline, view)
        self.replica.on_enter_view(view)

    def _prune_below(self, view: int) -> None:
        """Drop per-view synchronisation state that *view*'s entry obsoletes.

        Wish aggregation buckets, our own cached Wish shares, the TC
        formed/entered sets and the per-sender view table all key on views;
        entries at or below the current view can never matter again (views
        are monotonic, jumps only target higher views), so without pruning
        they grow for the lifetime of the replica.  Stale reports that
        re-arrive later re-insert harmless ``<= current_view`` entries.
        """
        for table in (self._wish_shares, self._sent_wish_shares):
            for stale in [v for v in table if v <= view]:
                del table[stale]
        self._tc_formed = {v for v in self._tc_formed if v > view}
        self._tc_entered = {v for v in self._tc_entered if v > view}
        for sender in [s for s, reported in self.view_table.items() if reported <= view]:
            del self.view_table[sender]

    def has_completed(self, view: int) -> bool:
        """``True`` once the replica has exited *view* (voting in it is disabled)."""
        return view <= self._highest_completed

    def completed_view(self, view: int) -> None:
        """Called by the replica when it exits *view* (Figure 3, CompletedView)."""
        self._highest_completed = max(self._highest_completed, view)
        next_view = view + 1
        if next_view <= self.current_view:
            return
        if next_view % self.config.epoch_length == 0:
            self.synchronize_epoch(next_view)
        else:
            self.enter_view(next_view)

    def force_enter(self, view: int) -> None:
        """Catch up to *view* directly (used when a proposal for a higher view arrives)."""
        if view > self.current_view:
            self.enter_view(view)

    # --------------------------------------------------------------- timers
    def view_deadline(self, view: int) -> float:
        """Absolute simulated time at which the timer for *view* fires."""
        if view == self.current_view and self._view_timer.deadline is not None:
            return self._view_timer.deadline
        return self.start_time.get(view, self.sim.now) + self.config.view_timeout

    def share_timer(self, view: int) -> float:
        """``StartTime[view] + 3 * delta`` (Figure 3, ShareTimer)."""
        return self.start_time.get(view, self.sim.now) + 3.0 * self.config.delta

    def _on_view_timer(self, view: int) -> None:
        if self.stopped or view != self.current_view:
            return
        self.replica.on_view_timeout(view)
        # A timeout means the view is not making progress; advertise where we
        # are so lagging peers can accumulate jump evidence.
        self.broadcast_view_sync()

    # ----------------------------------------------------- view synchronisation
    def note_peer_view(self, sender: int, view: int) -> None:
        """Fold *sender*'s reported *view* into the view table, jumping if warranted.

        Callers pass the network-attributed sender (never a message field), so
        a single Byzantine replica cannot fabricate ``f + 1`` distinct
        reports.  Reports are monotonic per sender.
        """
        if self.stopped or view < 1:
            return
        if not 0 <= sender < self.config.n or sender == self.replica.replica_id:
            return
        if view <= self.view_table.get(sender, 0):
            return
        self.view_table[sender] = view
        self._maybe_jump()

    def _maybe_jump(self) -> None:
        """Adopt the ``(f + 1)``-th highest reported view once enough peers are ahead."""
        if self.stopped or not self._started:
            return
        f = self.config.f
        reports = sorted(self.view_table.values(), reverse=True)
        if len(reports) <= f:
            return
        target = reports[f]
        if target <= self.current_view:
            return
        # f + 1 distinct senders reached `target` or beyond, so at least one
        # honest replica did: adopting it cannot outrun the honest frontier.
        self.jumps += 1
        if self.replica.store is not None:
            self.replica.store.record_peer_views(self.view_table)
        self.enter_view(target)

    def restore_view_table(self, peer_views: Mapping[int, int]) -> None:
        """Prime the view table from a recovered WAL snapshot (no jump yet).

        Called by :class:`~repro.storage.recovery.RecoveryManager` before the
        replica starts; :meth:`start` applies the evidence once the view loop
        is live.  Views are monotonic, so pre-crash evidence is still valid.
        """
        for sender, view in peer_views.items():
            if 0 <= int(sender) < self.config.n and int(sender) != self.replica.replica_id:
                self.view_table[int(sender)] = max(
                    self.view_table.get(int(sender), 0), int(view)
                )

    def broadcast_view_sync(self) -> None:
        """Advertise our current view and highest certificate to every replica."""
        if self.stopped or self.current_view < 1:
            return
        beacon = ViewSync(
            view=self.current_view,
            voter=self.replica.replica_id,
            high_cert=self.replica.high_cert,
        )
        self.replica.broadcast_replicas(beacon)

    def handle_view_sync(self, msg: ViewSync, sender: int) -> None:
        """React to a peer's beacon (its evidence was already tabled by the replica).

        A sender behind our own view gets our beacon back directly, so a
        single recovered replica starts accumulating jump evidence without
        waiting for the whole cluster's timers.
        """
        if self.stopped or sender == self.replica.replica_id:
            return
        if msg.view < self.current_view:
            self.replica.send(
                sender,
                ViewSync(
                    view=self.current_view,
                    voter=self.replica.replica_id,
                    high_cert=self.replica.high_cert,
                ),
            )

    def _on_sync_timer(self) -> None:
        """Retry tick while parked at an epoch boundary awaiting a TC."""
        if self.stopped or self._pending_wish is None:
            return
        if self.current_view >= self._pending_wish:
            self._pending_wish = None
            return
        self._send_wish(self._pending_wish)
        self.broadcast_view_sync()
        self._sync_timer.start(self.config.view_timeout)

    # -------------------------------------------------- epoch synchronisation
    def epoch_leaders(self, view: int) -> list:
        """The ``f + 1`` leaders of the epoch starting at *view*."""
        return [self.leaders.leader_of(view + k) for k in range(self.config.f + 1)]

    def synchronize_epoch(self, view: int) -> None:
        """Send a Wish for *view* to the next epoch's leaders (Figure 3, lines 8-10).

        The Wish is retransmitted every ``view_timeout`` until the view is
        entered (via the TC, or a jump past it): the first transmission can
        land on crashed epoch leaders, and without retries the quorum for
        *view* would never re-form once they restart.
        """
        if self.stopped:
            return
        self._pending_wish = view
        self._send_wish(view)
        self._sync_timer.start(self.config.view_timeout)

    def _send_wish(self, view: int) -> None:
        # The share for a wished view is immutable; cache it so retransmission
        # ticks (every view_timeout while parked) skip the threshold-signing
        # work, which matters at large n.
        share = self._sent_wish_shares.get(view)
        if share is None:
            share = self.authority.create_timeout_vote(self.replica.replica_id, view)
            self._sent_wish_shares[view] = share
        wish = Wish(
            view=view,
            voter=self.replica.replica_id,
            share=share,
            current_view=self.current_view,
            high_cert=self.replica.high_cert,
        )
        for leader in self.epoch_leaders(view):
            self.replica.send(leader, wish)

    def handle_wish(self, msg: Wish) -> None:
        """Epoch-leader role: aggregate Wish shares into a timeout certificate."""
        if msg.view in self._tc_formed or msg.view <= self.current_view:
            return
        if self.replica.replica_id not in self.epoch_leaders(msg.view):
            return
        if not self.authority.verify_vote(msg.share, CertKind.TIMEOUT, msg.view, 0, ""):
            return
        shares = self._wish_shares.setdefault(msg.view, {})
        shares[msg.voter] = msg.share
        if len(shares) >= self.config.quorum:
            tc = self.authority.form_timeout_certificate(msg.view, list(shares.values()))
            self._tc_formed.add(msg.view)
            self.replica.broadcast_replicas(
                TimeoutCertificateMsg(
                    view=msg.view,
                    cert=tc,
                    sender_view=self.current_view,
                    high_cert=self.replica.high_cert,
                )
            )

    def handle_timeout_certificate(self, msg: TimeoutCertificateMsg) -> None:
        """Backup role: relay the TC, schedule the epoch's view start times, enter."""
        if msg.view in self._tc_entered or msg.view <= self.current_view:
            return
        if not self.authority.verify_certificate(msg.cert):
            return
        self._tc_entered.add(msg.view)
        now = self.sim.now
        relay = TimeoutCertificateMsg(
            view=msg.view,
            cert=msg.cert,
            sender_view=msg.view,  # we enter msg.view below, in this same step
            high_cert=self.replica.high_cert,
        )
        for leader in self.epoch_leaders(msg.view):
            self.replica.send(leader, relay)
        for k in range(self.config.f + 1):
            self._scheduled_start[msg.view + k] = now + k * self.config.view_timeout
        self.enter_view(msg.view)
