"""Replica base class shared by every protocol variant.

:class:`BaseReplica` wires together the substrates (network endpoint,
certificates, block store, speculative ledger, mempool, pacemaker, cost model,
Byzantine behaviour) and provides the operations protocol subclasses build
on:

* message dispatch with simulated processing costs,
* certificate tracking (highest known certificate, certificate per block),
* committing a chain through the speculative ledger and responding to
  clients,
* the recovery path for missing blocks (fetch from the proposal sender).

Protocol logic itself — when to propose, how to vote, which commit and
speculation rules apply — lives in the subclasses
(:mod:`repro.consensus.protocols` and :mod:`repro.core`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.consensus.byzantine import HonestBehavior, ReplicaBehavior
from repro.consensus.certificates import Certificate, CertificateAuthority, CertKind
from repro.consensus.client import CLIENT_POOL_NODE_ID
from repro.consensus.config import ProtocolConfig
from repro.consensus.costs import CostModel
from repro.consensus.leader import RoundRobinLeaderElection
from repro.consensus.mempool import Mempool
from repro.consensus.messages import (
    ClientRequest,
    ClientRequestBatch,
    ClientResponseBatch,
    FetchRequest,
    FetchResponse,
    NewSlot,
    NewView,
    Prepare,
    Propose,
    ProposeVote,
    Reject,
    ResponseEntry,
    SnapshotRequest,
    SnapshotResponse,
    TimeoutCertificateMsg,
    ViewSync,
    Wish,
)
from repro.consensus.metrics import MetricsCollector
from repro.consensus.pacemaker import Pacemaker
from repro.crypto.hashing import combine_digests
from repro.ledger.block import Block
from repro.ledger.blockstore import BlockStore
from repro.ledger.speculative import CommitOutcome, SpeculativeLedger
from repro.ledger.state_machine import StateMachine
from repro.net.message import Envelope
from repro.net.network import SimNetwork
from repro.sim.scheduler import Simulator
from repro.types import is_null_digest

#: Crash-point hooks instrumented in the consensus layer.  The fuzzing
#: injector (:mod:`repro.faults.crashpoints`) installs a probe that may halt
#: the replica when one of these fires; they are defined here so the
#: consensus layer stays import-free of the faults package.
HOOK_BEFORE_VOTE_WAL = "before-vote-wal"
HOOK_AFTER_VOTE_WAL = "after-vote-wal"
HOOK_MID_CERT = "mid-cert-formation"


class BaseReplica:
    """Common machinery for HotStuff-family replicas."""

    #: Human-readable protocol name, overridden by subclasses.
    protocol_name = "base"
    #: Whether the protocol uses the slotting design of §6.
    supports_slotting = False
    #: Consensus half-phases between a proposal and the client-visible response.
    consensus_half_phases = 5
    #: Closed-loop client population, in batches, that keeps the pipeline at its knee.
    client_knee_blocks = 4.0

    @staticmethod
    def client_quorum(config) -> int:
        """Matching responses a client needs; overridden per protocol."""
        return config.f + 1

    def __init__(
        self,
        replica_id: int,
        sim: Simulator,
        network: SimNetwork,
        config: ProtocolConfig,
        authority: CertificateAuthority,
        leader_election: RoundRobinLeaderElection,
        state_machine: StateMachine,
        mempool: Mempool,
        metrics: MetricsCollector,
        costs: Optional[CostModel] = None,
        behavior: Optional[ReplicaBehavior] = None,
        block_store: Optional[BlockStore] = None,
        client_node_ids: Sequence[int] = (CLIENT_POOL_NODE_ID,),
        store=None,
    ) -> None:
        self.replica_id = int(replica_id)
        self.node_id = int(replica_id)
        self.sim = sim
        self.network = network
        self.config = config
        self.authority = authority
        self.leaders = leader_election
        self.mempool = mempool
        self.metrics = metrics
        self.costs = costs or CostModel()
        self.behavior = behavior or HonestBehavior()
        self.block_store = block_store or BlockStore()
        self.ledger = SpeculativeLedger(state_machine, self.block_store)
        self.client_node_ids = list(client_node_ids)

        genesis = self.block_store.genesis
        self.genesis_cert = CertificateAuthority.genesis_certificate(genesis)
        #: Highest known certificate (the paper's ``P(v_lp)`` / ``P(s_lp, v_lp)``).
        self.high_cert: Certificate = self.genesis_cert
        #: Certificate known for each certified block hash.
        self.certs_by_block: Dict[str, Certificate] = {genesis.block_hash: self.genesis_cert}
        #: The justify certificate each known block was proposed with.
        self.justify_of: Dict[str, Certificate] = {genesis.block_hash: self.genesis_cert}

        self.pacemaker = Pacemaker(sim, self, config, authority, leader_election)
        #: Whether this replica reports global counters (set for one replica per run).
        self.report_metrics = False
        self._pending_fetch: Dict[str, List[Propose]] = {}
        #: Durable store (:class:`~repro.storage.store.ReplicaStore`) for WAL'd
        #: votes / certificates / commits; ``None`` disables persistence.
        self.store = store
        #: Set by :meth:`halt` when the chaos engine crashes this replica.
        self.halted = False
        #: Highest view a vote was ever cast in (restored across restarts).
        self.last_voted_view = 0
        #: Optional hook ``(block, now)`` fired on every newly committed block
        #: (the chaos engine uses it to time restart-to-first-commit).
        self.commit_listener: Optional[Callable[[Block, float], None]] = None
        #: Optional crash-point probe ``(replica, hook)`` installed by the
        #: fuzzing injector; it may halt the replica mid-handler.
        self.crash_probe: Optional[Callable[["BaseReplica", str], None]] = None
        #: Optional :class:`~repro.checkpoint.manager.CheckpointManager`
        #: taking periodic snapshots; ``None`` disables checkpointing.
        self.checkpointer = None
        #: Optional :class:`~repro.obs.trace.TraceRecorder` shared by the
        #: whole deployment; ``None`` keeps every hot path allocation-free.
        self.tracer = None
        #: State-transfer outcomes (diagnostics and report columns).
        self.snapshots_installed = 0
        self.snapshots_rejected = 0
        #: Snapshots we refused to *send* because the encoded response would
        #: overflow ``MAX_FRAME_BYTES`` (the requester falls back to block
        #: fetch instead of losing the frame mid-transfer).
        self.snapshots_declined_oversize = 0

        network.register(self)

    # ------------------------------------------------------------- lifecycle
    def start(self, first_view: int = 1) -> None:
        """Start participating in consensus."""
        if self.behavior.is_crashed():
            return
        self.pacemaker.start(first_view)

    def halt(self) -> None:
        """Crash this replica object: drop all traffic and stop its timers.

        Used by the chaos engine; everything not in the durable store is lost
        with this object and a restarted incarnation is rebuilt from the
        store by :class:`~repro.storage.recovery.RecoveryManager`.
        """
        self.halted = True
        self.pacemaker.stop()

    @property
    def current_view(self) -> int:
        """The replica's current view."""
        return self.pacemaker.current_view

    def is_leader_of(self, view: int) -> bool:
        """Return ``True`` if this replica leads *view*."""
        return self.leaders.is_leader(self.replica_id, view)

    # ------------------------------------------------------------ networking
    def deliver(self, envelope: Envelope) -> None:
        """Network entry point: dispatch a message to the matching handler.

        View-bearing messages first feed the pacemaker's per-sender view
        table (keyed by the network-attributed sender, so evidence cannot be
        forged by message fields); ``f + 1`` distinct ahead-of-us reports make
        the pacemaker jump forward before the message itself is handled.
        """
        if self.halted or self.behavior.is_crashed():
            return
        payload = envelope.payload
        sender = envelope.sender
        if isinstance(payload, Propose):
            self.handle_propose(payload, sender)
        elif isinstance(payload, NewView):
            # A NewView for view v means the sender completed v - 1 (it may
            # still be parked before v waiting for an epoch TC).
            self.pacemaker.note_peer_view(sender, payload.view - 1)
            self.handle_new_view(payload, sender)
        elif isinstance(payload, NewSlot):
            self.pacemaker.note_peer_view(sender, payload.view)
            self.handle_new_slot(payload, sender)
        elif isinstance(payload, ProposeVote):
            self.pacemaker.note_peer_view(sender, payload.view)
            self.handle_propose_vote(payload, sender)
        elif isinstance(payload, Prepare):
            self.handle_prepare(payload, sender)
        elif isinstance(payload, Reject):
            self.handle_reject(payload, sender)
        elif isinstance(payload, ClientRequest):
            self.handle_client_request(payload, sender)
        elif isinstance(payload, ClientRequestBatch):
            self.handle_client_request_batch(payload, sender)
        elif isinstance(payload, Wish):
            self.pacemaker.note_peer_view(
                sender, max(payload.current_view, payload.view - 1)
            )
            if payload.high_cert is not None:
                self.record_certificate(payload.high_cert)
            self.pacemaker.handle_wish(payload)
        elif isinstance(payload, TimeoutCertificateMsg):
            self.pacemaker.note_peer_view(sender, payload.sender_view)
            if payload.high_cert is not None:
                self.record_certificate(payload.high_cert)
            self.pacemaker.handle_timeout_certificate(payload)
        elif isinstance(payload, ViewSync):
            self.pacemaker.note_peer_view(sender, payload.view)
            self.handle_view_sync(payload, sender)
        elif isinstance(payload, FetchRequest):
            self.handle_fetch_request(payload, sender)
        elif isinstance(payload, FetchResponse):
            self.handle_fetch_response(payload, sender)
        elif isinstance(payload, SnapshotRequest):
            self.handle_snapshot_request(payload, sender)
        elif isinstance(payload, SnapshotResponse):
            self.handle_snapshot_response(payload, sender)

    def handle_view_sync(self, msg: ViewSync, sender: int) -> None:
        """Absorb a view-sync beacon: track its certificate, catch up, reply.

        The certificate lets a recovering replica learn how far the cluster
        got while it was down; if the certified block is unknown the chained
        fetch path is primed from the beacon's sender.
        """
        if msg.high_cert is not None and self.record_certificate(msg.high_cert):
            if (
                not msg.high_cert.is_genesis
                and msg.high_cert.block_hash not in self.block_store
            ):
                self.request_block(msg.high_cert.block_hash, sender)
        self.pacemaker.handle_view_sync(msg, sender)

    def send(self, target: int, payload, size_bytes: Optional[int] = None) -> None:
        """Send *payload* to a single node (sized by the wire codec by default).

        A halted (crashed) replica sends nothing: callbacks scheduled before
        the crash may still fire, but their messages die here.
        """
        if self.halted:
            return
        self.network.send(self.node_id, target, payload, size_bytes=size_bytes)

    def broadcast_replicas(
        self, payload, targets: Optional[Iterable[int]] = None, size_bytes: Optional[int] = None
    ) -> None:
        """Send *payload* to every replica (or the given subset), including ourselves."""
        if self.halted:
            return
        receivers = list(targets) if targets is not None else list(self.config.replica_ids())
        self.network.broadcast(self.node_id, payload, receivers=receivers, size_bytes=size_bytes)

    # ----------------------------------------------------------- client side
    def handle_client_request(self, msg: ClientRequest, sender: int) -> None:
        """Admit a client transaction into the (shared) mempool."""
        self.mempool.add(msg.txn)

    def handle_client_request_batch(self, msg: ClientRequestBatch, sender: int) -> None:
        """Admit a coalesced frame of client transactions into the mempool."""
        for txn in msg.txns:
            self.mempool.add(txn)

    def respond_to_clients(self, block: Block, results, speculative: bool, delay: float = 0.0) -> None:
        """Send one response batch per client pool for *block*'s transactions.

        ``delay`` models the simulated CPU time spent executing the block and
        assembling the responses before they leave the replica.
        """
        if not block.transactions or not results:
            return
        batch = ClientResponseBatch(
            replica_id=self.replica_id,
            view=block.view,
            slot=block.slot,
            block_hash=block.block_hash,
            speculative=speculative,
            entries=tuple(
                ResponseEntry(txn_id=result.txn_id, client_id=txn.client_id, success=result.success)
                for txn, result in zip(block.transactions, results)
            ),
            # One digest for the block's whole execution (each result digest
            # binds its txn id, success and output) instead of one per entry.
            results_root=combine_digests(
                [block.block_hash, *[result.result_digest for result in results]]
            ),
        )
        batch = self.behavior.outgoing_response(self, batch)
        for client_node in self.client_node_ids:
            if delay > 0:
                self.sim.schedule(delay, self.send, client_node, batch)
            else:
                self.send(client_node, batch)

    # ----------------------------------------------------------- certificates
    def record_certificate(self, cert: Certificate) -> bool:
        """Track *cert*; update the highest known certificate if it is higher.

        Returns ``True`` if the certificate was accepted (valid and not
        already superseded by an identical record).
        """
        if cert.is_genesis:
            return True
        if not self.authority.verify_certificate(cert):
            return False
        if cert.block_hash not in self.certs_by_block:
            self.certs_by_block[cert.block_hash] = cert
            if self.tracer is not None:
                self.tracer.block_certified(
                    cert, self.block_store.maybe_get(cert.block_hash), replica=self.replica_id
                )
        if cert.position > self.high_cert.position:
            self.high_cert = cert
            if self.store is not None:
                self.store.record_high_cert(cert)
        return True

    def certificate_for_block(self, block_hash: str) -> Optional[Certificate]:
        """Return the certificate known for *block_hash*, if any."""
        return self.certs_by_block.get(block_hash)

    def certificate_for_parent_of(self, cert: Certificate) -> Optional[Certificate]:
        """Return the certificate of the parent of *cert*'s block (used by tail-forking)."""
        block = self.block_store.maybe_get(cert.block_hash)
        if block is None or block.is_genesis:
            return None
        return self.certs_by_block.get(block.parent_hash)

    # ---------------------------------------------------------------- commits
    def commit_up_to(self, block: Block, response_delay: float = 0.0) -> List[CommitOutcome]:
        """Commit *block* and all its uncommitted ancestors, responding to clients.

        Responses are only sent for blocks that were *not* already answered
        speculatively, matching the paper's "sends a response to a client if R
        had not sent a speculative response".  ``response_delay`` charges the
        simulated execution cost before responses leave the replica.

        A replica that is catching up (e.g. rejoining after a crash) may know
        a commit target whose ancestry has gaps still being fetched; the
        commit is then deferred — the gap fetch is (re)issued and a later
        proposal commits the whole suffix once the chain connects.
        """
        if not self._ancestry_connected(block):
            return []
        outcomes = self.ledger.commit_chain(block)
        for outcome in outcomes:
            if self.tracer is not None:
                self.tracer.block_committed(outcome.block, replica=self.replica_id)
            self.mempool.mark_committed(txn.txn_id for txn in outcome.block.transactions)
            if self.store is not None:
                self.store.record_commit(outcome.block.block_hash)
            if not outcome.was_speculated:
                self.respond_to_clients(
                    outcome.block, outcome.results, speculative=False, delay=response_delay
                )
            if self.report_metrics:
                self.metrics.record_consensus_commit(outcome.block.txn_count)
            self._requeue_forked_siblings(outcome.block)
            self._prune_forks(outcome.block)
            if self.commit_listener is not None:
                self.commit_listener(outcome.block, self.sim.now)
        if outcomes and self.checkpointer is not None:
            self.checkpointer.maybe_checkpoint()
        return outcomes

    def _ancestry_connected(self, block: Block) -> bool:
        """``True`` if *block*'s parent chain reaches a committed block.

        When a parent is missing (the replica is behind), the gap block is
        requested from its child's proposer so catch-up keeps making progress
        even if an earlier fetch response was lost.
        """
        current = block
        while not self.ledger.is_committed(current.block_hash):
            if self.ledger.is_committed(current.parent_hash):
                # The parent is committed by hash — possibly a checkpointed
                # position whose block object is no longer materialised.
                return True
            parent = self.block_store.parent_of(current)
            if parent is not None:
                current = parent
                continue
            if current.is_genesis or is_null_digest(current.parent_hash):
                return True  # reached the root; let the ledger rule on it
            proposer = current.proposer
            if 0 <= proposer < self.config.n and proposer != self.replica_id:
                self.request_block(current.parent_hash, proposer)
            return False
        return True

    def speculate_block(self, block: Block, response_delay: float = 0.0) -> None:
        """Speculatively execute *block* and send early finality confirmations."""
        if self.ledger.is_committed(block.block_hash) or self.ledger.is_speculated(block.block_hash):
            return
        results = self.ledger.speculate(block)
        if self.tracer is not None:
            self.tracer.block_speculated(block, replica=self.replica_id)
        self.respond_to_clients(block, results, speculative=True, delay=response_delay)
        if self.report_metrics:
            self.metrics.record_speculative_execution(block.txn_count)

    def execution_cost_for(self, txn_count: int) -> float:
        """Simulated CPU cost of executing *txn_count* transactions on this replica."""
        per_txn_state_cost = getattr(self.ledger.state_machine, "execution_cost", 1e-6)
        return self.costs.execution_cost(txn_count, per_txn_state_cost)

    def admit_block(self, block: Block) -> None:
        """Add *block* to the local tree and retire its transactions from the pool.

        The single chokepoint every proposal path goes through (own proposal,
        accepted proposal, fetched catch-up block): marking the transactions
        in-flight is what lets a *different* replica's pool — fed by client
        broadcast in a distributed-mempool deployment — avoid re-proposing
        work that is already riding in an uncommitted block it has seen.
        Shared pools get the same guard against retry re-admission.
        """
        self.block_store.add(block)
        if block.transactions:
            self.mempool.note_proposed(block.block_hash, block.transactions)

    def _requeue_forked_siblings(self, committed_block: Block) -> None:
        """Requeue transactions of sibling blocks abandoned by the committed chain."""
        parent_hash = committed_block.parent_hash
        for sibling in self.block_store.children_of(parent_hash):
            if sibling.block_hash == committed_block.block_hash:
                continue
            pending = [txn for txn in sibling.transactions if not self.mempool.is_committed(txn.txn_id)]
            if pending:
                self.mempool.requeue(pending)

    def _prune_forks(self, committed_block: Block) -> None:
        """Drop fork branches superseded by *committed_block*, plus their metadata.

        Orphaned siblings can never commit once a conflicting block is final;
        without pruning they (and their certificates) accumulate for the whole
        run.  Runs after :meth:`_requeue_forked_siblings` so abandoned
        transactions are rescued before their blocks disappear.
        """
        for pruned_hash in self.block_store.prune_siblings_of(committed_block):
            # Rescue in-flight transactions of deeper fork descendants the
            # direct-sibling requeue above never saw.
            self.mempool.release_block(pruned_hash)
            self.certs_by_block.pop(pruned_hash, None)
            self.justify_of.pop(pruned_hash, None)
            self._pending_fetch.pop(pruned_hash, None)

    # -------------------------------------------------------------- vote WAL
    def restore_vote_state(self, state) -> None:
        """Restore the vote-dedup guards from a recovered WAL summary.

        ``state`` is a :class:`~repro.storage.wal.WalState` (duck-typed here
        to keep the consensus layer import-free of storage): it carries
        ``last_voted_view``, ``voted_views``, ``voted`` (view, slot) pairs and
        ``highest_voted_hash``.  Subclasses that keep their own per-view or
        per-slot vote guards MUST extend this — it is what stops a restarted
        replica from voting twice in a view it voted in before the crash.
        """
        self.last_voted_view = max(self.last_voted_view, int(state.last_voted_view))

    def note_vote(self, view: int, slot: int, block_hash: str) -> None:
        """Record that a vote for ``(view, slot)`` is about to be sent.

        Must be called *before* the vote leaves the replica: the WAL entry is
        what stops a restarted incarnation from voting twice in the same
        view/slot (equivocation).  The crash-point probes bracket the append —
        a fuzzer can kill the replica with the decision made but not
        persisted, or persisted but never sent (the send is muted once the
        replica is halted).
        """
        self.fault_point(HOOK_BEFORE_VOTE_WAL)
        if self.halted:
            return
        if self.tracer is not None:
            self.tracer.block_voted(
                view, slot, self.block_store.maybe_get(block_hash), replica=self.replica_id
            )
        self.last_voted_view = max(self.last_voted_view, int(view))
        if self.store is not None:
            self.store.record_vote(view, slot, block_hash)
            self.fault_point(HOOK_AFTER_VOTE_WAL)

    def fault_point(self, hook: str) -> None:
        """Fire the crash-point probe for *hook*, if one is installed."""
        if self.crash_probe is not None and not self.halted:
            self.crash_probe(self, hook)

    # ------------------------------------------------------------------ fetch
    def handle_fetch_request(self, msg: FetchRequest, sender: int) -> None:
        """Serve a block another replica is missing.

        A block that left our tree through checkpoint compaction can no
        longer be served — but the snapshot that covers it can.  Answering
        with the snapshot instead of silence is what keeps a rejoiner's
        chained ancestor walk alive when peers compact faster than the walk
        progresses: the requester installs the newer checkpoint and resumes
        fetching above it.
        """
        block = self.block_store.maybe_get(msg.block_hash)
        if block is not None:
            self.send(msg.requester, FetchResponse(block=block))
            return
        snapshot = self.store.latest_snapshot() if self.store is not None else None
        if snapshot is not None and msg.block_hash in snapshot.covered():
            self.send(msg.requester, self._snapshot_response(snapshot))

    def handle_fetch_response(self, msg: FetchResponse, sender: int) -> None:
        """Store a fetched block, walk its ancestry, retry parked proposals.

        Insertion is idempotent: a response for a block already held (peers
        can answer the same request twice, or several peers answer one gap)
        neither re-inserts the block nor re-fires the parked proposals a
        previous copy already released.

        Catch-up is chained: if the fetched block's parent is also unknown,
        the parent is requested from the same peer, so a replica that fell
        arbitrarily far behind (e.g. rejoining after a crash) walks the
        missing chain back to its last known block; the normal commit rule
        then folds the whole suffix in at once.
        """
        block = msg.block
        waiting = self._pending_fetch.pop(block.block_hash, [])
        if block.block_hash in self.block_store:
            if not waiting:
                return
        else:
            self.admit_block(block)
            parent_hash = block.parent_hash
            if (
                not block.is_genesis
                and not is_null_digest(parent_hash)
                and parent_hash not in self.block_store
            ):
                self.request_block(parent_hash, sender)
        for proposal in waiting:
            self.handle_propose(proposal, sender)

    def request_block(self, block_hash: str, ask: int, waiting_proposal: Optional[Propose] = None) -> None:
        """Ask replica *ask* for a missing block, optionally parking a proposal until it arrives."""
        if waiting_proposal is not None:
            self._pending_fetch.setdefault(block_hash, []).append(waiting_proposal)
        self.send(ask, FetchRequest(block_hash=block_hash, requester=self.replica_id))

    # --------------------------------------------------------- state transfer
    def request_snapshot(self, ask: int) -> None:
        """Ask replica *ask* for a checkpoint newer than our committed height."""
        self.send(
            ask,
            SnapshotRequest(
                requester=self.replica_id, have_height=len(self.ledger.committed)
            ),
        )

    def handle_snapshot_request(self, msg: SnapshotRequest, sender: int) -> None:
        """Serve our newest durable snapshot — or an empty response.

        An empty response (no snapshot, or nothing beyond the requester's own
        height) tells the requester to fall back to block-by-block fetch
        immediately instead of waiting on a timer.
        """
        snapshot = self.store.latest_snapshot() if self.store is not None else None
        if snapshot is not None and snapshot.height <= msg.have_height:
            snapshot = None
        self.send(msg.requester, self._snapshot_response(snapshot))

    def _snapshot_response(self, snapshot) -> "SnapshotResponse":
        """Wrap *snapshot* for the wire, declining it if it cannot be framed.

        A state payload past ``MAX_FRAME_BYTES`` would raise
        ``FrameTooLargeError`` inside the transport — the frame is dropped,
        the run records a delivery error, and the requester waits forever.
        Declining (an empty response) instead tells the requester to fall
        back to block-by-block fetch immediately.
        """
        from repro.live.codec import message_fits_frame

        response = SnapshotResponse(responder=self.replica_id, snapshot=snapshot)
        if snapshot is not None and not message_fits_frame(response):
            self.snapshots_declined_oversize += 1
            return SnapshotResponse(responder=self.replica_id, snapshot=None)
        return response

    def handle_snapshot_response(self, msg: SnapshotResponse, sender: int) -> None:
        """Verify a transferred snapshot and adopt it, or fall back to fetch.

        Adoption requires every check a receiver can make without trusting
        the sender: a valid threshold certificate over exactly the checkpoint
        block, a hash chain ending at that block, a state payload that
        re-digests to the sealed digest, and our own committed prefix being a
        prefix of the snapshot's chain.  Any failure keeps the replica on the
        existing ``FetchRequest`` catch-up path — slower, but independently
        verified block by block.
        """
        from repro.checkpoint.snapshot import verify_snapshot

        snapshot = msg.snapshot
        reason = verify_snapshot(snapshot, self.authority)
        if reason is None and snapshot.height <= len(self.ledger.committed):
            reason = "not ahead of our committed height"
        if reason is None:
            mine = self.ledger.committed.hashes()
            if mine != snapshot.committed_hashes[: len(mine)]:
                reason = "our committed prefix conflicts with the snapshot chain"
        if reason is not None:
            if snapshot is not None:
                self.snapshots_rejected += 1
            self._fallback_block_fetch(sender)
            return
        self.ledger.install_snapshot(snapshot.committed_hashes, snapshot.state)
        self.block_store.add(snapshot.block)
        self.record_certificate(snapshot.cert)
        # Everything at or below the snapshot's txn-id horizon committed below
        # the checkpoint; prune our own pool so a rejoined leader never
        # re-proposes it (no-op for the shared, perfectly-disseminated pool).
        self.mempool.prune_below(snapshot.txn_horizon)
        if self.store is not None:
            # Make the transferred checkpoint our own durable baseline, so a
            # later crash recovers from it instead of re-transferring.
            self.store.save_snapshot(snapshot)
            self.store.compact_below(snapshot)
        if self.checkpointer is not None:
            self.checkpointer.note_installed(snapshot.height)
        self.snapshots_installed += 1
        # The cluster may have moved past the snapshot while it travelled;
        # prime the chained block fetch for the remaining suffix.
        self._fallback_block_fetch(sender)

    def _fallback_block_fetch(self, ask: int) -> None:
        """Resume block-by-block catch-up toward our highest known certificate."""
        cert = self.high_cert
        if not cert.is_genesis and cert.block_hash not in self.block_store:
            self.request_block(cert.block_hash, ask)

    # ----------------------------------------------------- protocol interface
    def on_enter_view(self, view: int) -> None:
        """Pacemaker callback: the replica entered *view*.

        The entered view is WAL'd so a restarted incarnation resumes past it
        even if it never voted there — a replica that cycled to a high view
        on timeouts must not rejoin at the last view it voted in, which may
        be arbitrarily far behind the surviving cluster.
        """
        if self.store is not None:
            self.store.record_entered_view(view)
        if self.tracer is not None:
            self.tracer.view_entered(view, replica=self.replica_id)
        if self.report_metrics:
            self.metrics.record_view_change()

    def on_view_timeout(self, view: int) -> None:
        """Pacemaker callback: the timer for *view* expired."""
        raise NotImplementedError

    def handle_propose(self, msg: Propose, sender: int) -> None:
        """Handle a leader proposal."""
        raise NotImplementedError

    def handle_new_view(self, msg: NewView, sender: int) -> None:
        """Handle a NewView (vote / view-change) message."""
        raise NotImplementedError

    def handle_new_slot(self, msg: NewSlot, sender: int) -> None:
        """Handle a NewSlot vote (slotting design only)."""

    def handle_propose_vote(self, msg: ProposeVote, sender: int) -> None:
        """Handle a first-phase vote (basic HotStuff-1 only)."""

    def handle_prepare(self, msg: Prepare, sender: int) -> None:
        """Handle a Prepare broadcast (basic HotStuff-1 only)."""

    def handle_reject(self, msg: Reject, sender: int) -> None:
        """Handle a Reject message (slotting design only)."""

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(id={self.replica_id}, view={self.current_view}, "
            f"high={self.high_cert.position})"
        )


def honest_committed_chains(replicas: Sequence["BaseReplica"]) -> List[List[str]]:
    """Committed block-hash chains of the honest replicas, in replica order.

    Shared by the run-level safety check
    (:func:`repro.experiments.runner.verify`) and the chaos
    report's prefix-agreement computation, so the two can never apply
    different notions of "same committed prefix".  Chains span checkpointed
    prefixes (hash-only positions below a snapshot), so a replica restored
    from a snapshot still compares over its full history.
    """
    return [
        replica.ledger.committed.hashes()
        for replica in replicas
        if not replica.behavior.is_byzantine
    ]


def chains_prefix_consistent(chains: Sequence[List[str]]) -> bool:
    """``True`` iff every chain is a prefix of the longest one."""
    reference = max(chains, key=len, default=[])
    return all(chain == reference[: len(chain)] for chain in chains)
