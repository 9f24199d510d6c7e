"""Streamlined HotStuff-1 (Figure 4).

The protocol shares the chained skeleton with HotStuff-2 (one phase per view,
prefix commit rule) and adds one-phase speculation: when the proposal of view
``v`` carries the certificate ``P(v-1)``, each replica that satisfies the
No-Gap and Prefix Speculation rules speculatively executes the block of view
``v-1``, appends the result to its local ledger and sends the client an early
finality confirmation.  Clients treat ``n - f`` matching speculative
responses as finality (3 consensus half-phases; 5 including the request and
response hops).
"""

from __future__ import annotations

from repro.consensus.protocols.chained_base import ChainedReplica
from repro.consensus.messages import Propose
from repro.core.speculation import SpeculationGuard


class HotStuff1Replica(ChainedReplica):
    """Streamlined HotStuff-1 replica: two-chain commit plus one-phase speculation."""

    protocol_name = "hotstuff-1"
    commit_chain_length = 2
    #: Consensus half-phases before a (speculative) client response.
    consensus_half_phases = 3
    #: Closed-loop client population, in batches, that keeps the pipeline at its knee.
    client_knee_blocks = 3.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.speculation_guard = SpeculationGuard(self.ledger)

    @staticmethod
    def client_quorum(config) -> int:
        """Clients wait for ``n - f`` matching (speculative) responses."""
        return config.quorum

    # ------------------------------------------------------------ speculation
    def _apply_speculation_rule(self, msg: Propose, accumulated_cost: float) -> float:
        """Speculatively execute the block certified by the proposal's justify.

        Runs after the commit rule (so the prefix check sees the freshest
        global ledger) and returns the execution cost charged for the
        speculated block.
        """
        block = self.certified_block(msg.justify)
        if not self.config.speculation_enabled or block is None or self.ledger.is_speculated(block.block_hash):
            return 0.0
        if not self.speculation_guard.check_streamlined(block, msg.view):
            return 0.0
        return self.charged_speculation(block, accumulated_cost)
