"""Baseline: HotStuff-2 (two-phase, streamlined form).

HotStuff-2 [Malkhi & Nayak, 2023] removes one phase from HotStuff: a block
commits once a certificate from the immediately following view extends its own
certificate (the two-chain / prefix-commit rule).  A transaction proposed in
view ``v`` is executed when the proposal of view ``v + 2`` arrives
(5 consensus half-phases; 7 including the client request and response hops).
The paper notes that published HotStuff-2 is not streamlined; like the paper's
evaluation we use the chained form so that all baselines share the same
message pattern per view.
"""

from __future__ import annotations

from repro.consensus.protocols.chained_base import ChainedReplica


class HotStuff2Replica(ChainedReplica):
    """Chained HotStuff-2 replica with the two-chain commit rule."""

    protocol_name = "hotstuff-2"
    commit_chain_length = 2
    #: Consensus half-phases before a client response (used for client sizing).
    consensus_half_phases = 5
    #: Closed-loop client population, in batches, that keeps the pipeline at its knee.
    client_knee_blocks = 4.0
