"""Test helpers for constructing standalone replicas and small deployments."""

from __future__ import annotations

from repro.consensus.certificates import CertificateAuthority
from repro.consensus.config import ProtocolConfig
from repro.consensus.costs import CostModel
from repro.consensus.leader import RoundRobinLeaderElection
from repro.consensus.mempool import Mempool
from repro.consensus.metrics import MetricsCollector
from repro.crypto.threshold import ThresholdScheme
from repro.ledger.kvstore import KVStateMachine
from repro.net.latency import ConstantLatency
from repro.net.network import SimNetwork
from repro.sim.scheduler import Simulator


class ReplicaHarness:
    """A single replica wired to a private simulator and network.

    Handler methods can be invoked directly with crafted messages, which makes
    it easy to unit-test voting rules, SafeSlot cases and commit rules without
    running a full deployment.
    """

    def __init__(self, replica_class, replica_id=0, n=4, batch_size=10, view_timeout=0.01, seed=3):
        self.sim = Simulator(seed=seed)
        self.config = ProtocolConfig(n=n, batch_size=batch_size, view_timeout=view_timeout, delta=0.001)
        self.network = SimNetwork(self.sim, latency=ConstantLatency(0.0005))
        self.scheme = ThresholdScheme(n=n, threshold=self.config.quorum, seed=seed)
        self.authority = CertificateAuthority(self.scheme)
        self.leaders = RoundRobinLeaderElection(n)
        self.mempool = Mempool()
        self.metrics = MetricsCollector()
        self.replica = replica_class(
            replica_id,
            self.sim,
            self.network,
            self.config,
            self.authority,
            self.leaders,
            KVStateMachine(),
            self.mempool,
            self.metrics,
            costs=CostModel(),
        )

    def vote_shares(self, kind, block, voters=None):
        """Create a quorum of vote shares for *block*."""
        voters = range(self.config.quorum) if voters is None else voters
        return [
            self.authority.create_vote(voter, kind, block.view, block.slot, block.block_hash)
            for voter in voters
        ]

    def certificate(self, kind, block, formed_in_view=None, voters=None):
        """Create a valid certificate of *kind* for *block*."""
        shares = self.vote_shares(kind, block, voters)
        return self.authority.form_certificate(
            kind, block.view, block.slot, block.block_hash, shares, formed_in_view=formed_in_view
        )

    def run(self, duration=0.05):
        """Drain the simulator for *duration* simulated seconds."""
        self.sim.run(until=self.sim.now + duration)


def binary_round_trip(txn):
    """``(opcode on the wire, decoded transaction)`` of *txn* sent in a batch
    (opcode 0: the self-describing escape); asserts the batch decodes equal."""
    from repro.consensus.messages import ClientRequestBatch
    from repro.live import codec

    message = ClientRequestBatch(txns=(txn, txn))
    wire = codec.encode_message(message)
    decoded = codec.decode_message(wire)
    assert decoded == message
    header = codec._TXN_WIDE if wire[2] else codec._TXN_NARROW  # type tag, count, then the header
    return wire[1 + header.size], decoded.txns[1]

