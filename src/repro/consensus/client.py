"""Client pool.

HotStuff-1 treats clients as first-class citizens of consensus: they receive
commit-votes (speculative responses) directly from replicas and declare a
transaction final once a *matching quorum* of responses arrives — ``n - f``
for HotStuff-1 (speculative responses only prove preparation) versus
``f + 1`` for HotStuff / HotStuff-2 (post-commit responses).

:class:`ClientPool` models a population of logical closed-loop clients in a
single network node: each logical client keeps one request outstanding,
submits it to a replica over the network (one hop), collects responses (one
hop each), applies the quorum rule, records latency, and immediately issues
its next request.  A retry timer resubmits requests whose block was abandoned
by a faulty leader (tail-forking) so the system never deadlocks.

Matching responses
------------------
A replica answers a block with one :class:`ClientResponseBatch`: the block
hash, one ``results_root`` and, per transaction, its id and success bit.

* **What the root covers.**  ``results_root = combine_digests([block_hash,
  *result digests in block order])``, each result digest a hash of ``(txn_id,
  success, output)``: the block and the outcome of every transaction in it.
* **Honest replicas agree on the root iff they agree on every entry.**  The
  block hash fixes the whole ancestry and execution is deterministic, so
  replicas that executed the same block computed the same results and root;
  equal roots mean (collision resistance) the same block and result list.
  One root says strictly more than a digest per transaction.
* **Counting stays per transaction.**  The matching key of a response for
  transaction *t* is everything the batch states about it — ``(block_hash,
  results_root, entry.result_digest, entry.success)`` — and a replica counts
  for *t* only if its *own* batch lists *t*.  A key reaches the quorum
  (``n - f`` speculative, ``f + 1`` committed) only with an honest replica in
  it, which lists *t* under a root only if *t* is in that block with that
  outcome.  A faulty replica keeps exactly the power it had with a digest per
  transaction: add its one vote to a key honest replicas also state, or state
  anything else (a foreign transaction, a flipped success bit, its own root,
  a per-entry digest) and gather at most ``f`` votes there.
* **Rollback and tail-forking attacks change nothing.**  A victim of
  :class:`~repro.consensus.byzantine.RollbackAttackBehavior` or
  :class:`~repro.consensus.byzantine.TailForkingBehavior` speculated a block
  the rest never execute; its speculative root counts only towards that
  block's key, as its per-transaction digests did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.consensus.config import ProtocolConfig
from repro.consensus.messages import ClientRequest, ClientResponseBatch
from repro.consensus.metrics import MetricsCollector
from repro.ledger.transaction import Transaction
from repro.net.message import Envelope
from repro.net.network import SimNetwork
from repro.sim.process import PeriodicTimer
from repro.sim.scheduler import Simulator
from repro.workloads.base import Workload

#: Default network node id of the client pool (outside the replica id range).
CLIENT_POOL_NODE_ID = -1


@dataclass
class OutstandingRequest:
    """Book-keeping for a request that has not yet reached its quorum."""

    txn: Transaction
    logical_client: int
    submitted_at: float
    last_sent_at: float
    #: Matching key -> the replicas that stated it -> whether speculatively.
    responders: Dict[Tuple[str, str, str, bool], Dict[int, bool]] = field(default_factory=dict)


class ClientPool:
    """A population of logical closed-loop clients sharing one network endpoint."""

    def __init__(
        self,
        sim: Simulator,
        network: SimNetwork,
        workload: Workload,
        config: ProtocolConfig,
        metrics: MetricsCollector,
        num_clients: int = 64,
        required_quorum: Optional[int] = None,
        node_id: int = CLIENT_POOL_NODE_ID,
        target_replicas: Optional[Sequence[int]] = None,
        retry_timeout: Optional[float] = None,
        broadcast_requests: bool = False,
    ) -> None:
        self.sim = sim
        self.network = network
        self.workload = workload
        self.config = config
        self.metrics = metrics
        self.num_clients = int(num_clients)
        self.required_quorum = int(required_quorum if required_quorum is not None else config.f + 1)
        self.node_id = int(node_id)
        self.target_replicas = list(target_replicas) if target_replicas else list(config.replica_ids())
        #: ``True`` fans every request out to all target replicas (the
        #: distributed-mempool dissemination model); ``False`` round-robins.
        self.broadcast_requests = bool(broadcast_requests)
        self.retry_timeout = retry_timeout if retry_timeout is not None else max(10 * config.view_timeout, 0.05)
        self.outstanding: Dict[int, OutstandingRequest] = {}
        self.completed_count = 0
        self.retries = 0
        #: Optional :class:`~repro.obs.trace.TraceRecorder`; ``None`` keeps
        #: the submission/completion paths allocation-free.
        self.tracer = None
        self._rng = sim.rng.fork("clients")
        self._next_target = 0
        self._retry_timer = PeriodicTimer(sim, max(self.retry_timeout / 2.0, config.view_timeout), self._check_retries)
        network.register(self)

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Issue the first request of every logical client and arm the retry timer."""
        for logical_client in range(self.num_clients):
            self._submit_new(logical_client)
        self._retry_timer.start()

    def stop(self) -> None:
        """Stop issuing new requests (used at the end of a measurement window)."""
        self._retry_timer.stop()

    # ------------------------------------------------------------ networking
    def deliver(self, envelope: Envelope) -> None:
        """Handle a :class:`ClientResponseBatch` from a replica."""
        payload = envelope.payload
        if isinstance(payload, ClientResponseBatch):
            self._handle_response_batch(payload)

    # -------------------------------------------------------------- requests
    def _submit_new(self, logical_client: int) -> None:
        txn = self.workload.next_transaction(
            client_id=self._client_id(logical_client), rng=self._rng, now=self.sim.now
        )
        request = OutstandingRequest(
            txn=txn,
            logical_client=logical_client,
            submitted_at=self.sim.now,
            last_sent_at=self.sim.now,
        )
        self.outstanding[txn.txn_id] = request
        if self.tracer is not None:
            self.tracer.txn_submitted(txn.txn_id)
        self._send_request(request)

    def _send_request(self, request: OutstandingRequest) -> None:
        request.last_sent_at = self.sim.now
        if self.broadcast_requests:
            # Distributed mempool: every replica needs its own copy so any
            # leader can propose the transaction; per-pool dedup keeps it from
            # committing more than once.
            for target in self.target_replicas:
                self._dispatch_request(target, request.txn)
            return
        target = self.target_replicas[self._next_target % len(self.target_replicas)]
        self._next_target += 1
        self._dispatch_request(target, request.txn)

    def _dispatch_request(self, target: int, txn: Transaction) -> None:
        """Put one transaction on the wire.  The live load generator overrides
        this to coalesce a burst of submissions into one frame per target."""
        self.network.send(self.node_id, target, ClientRequest(txn=txn))

    def _client_id(self, logical_client: int) -> int:
        return self.node_id * 1_000_000 - logical_client

    # ------------------------------------------------------------- responses
    def _handle_response_batch(self, batch: ClientResponseBatch) -> None:
        block_hash, root = batch.block_hash, batch.results_root
        replica_id, speculative = batch.replica_id, batch.speculative
        for entry in batch.entries:
            request = self.outstanding.get(entry.txn_id)
            if request is None:
                continue
            key = (block_hash, root, entry.result_digest, entry.success)
            responders = request.responders.setdefault(key, {})
            responders[replica_id] = speculative or responders.get(replica_id, False)
            if len(responders) >= self.required_quorum:
                # Speculative iff the quorum that finalised it holds a
                # speculative response: a stray one under another key is not.
                self._complete(request, speculative=any(responders.values()))

    def _complete(self, request: OutstandingRequest, speculative: bool) -> None:
        self.outstanding.pop(request.txn.txn_id, None)
        self.completed_count += 1
        if self.tracer is not None:
            self.tracer.txn_responded(request.txn.txn_id, request.submitted_at, speculative)
        self.metrics.record_completion(
            txn_id=request.txn.txn_id,
            submitted_at=request.submitted_at,
            completed_at=self.sim.now,
            speculative=speculative,
        )
        self._after_completion(request)

    def _after_completion(self, request: OutstandingRequest) -> None:
        """Closed-loop behaviour: immediately issue the logical client's next request.

        Open-loop load generators (live mode) override this to decouple
        injection from completion.
        """
        self._submit_new(request.logical_client)

    # ---------------------------------------------------------------- retries
    def _check_retries(self) -> None:
        now = self.sim.now
        for request in list(self.outstanding.values()):
            if now - request.last_sent_at >= self.retry_timeout:
                self.retries += 1
                self._send_request(request)
