"""Baseline: streamlined (chained) HotStuff.

HotStuff [Yin et al., PODC 2019] commits a block once it heads a *three-chain*
of certificates formed in consecutive views.  From a client's perspective a
transaction proposed in view ``v`` is executed when the proposal of view
``v + 3`` arrives (7 consensus half-phases; 9 including the client request
and response hops), and the client accepts the result after ``f + 1`` matching
post-commit responses.
"""

from __future__ import annotations

from repro.consensus.protocols.chained_base import ChainedReplica


class HotStuffReplica(ChainedReplica):
    """Chained HotStuff replica with the three-chain commit rule."""

    protocol_name = "hotstuff"
    commit_chain_length = 3
    #: Consensus half-phases before a client response (used for client sizing).
    consensus_half_phases = 7
    #: Closed-loop client population, in batches, that keeps the pipeline at its knee.
    client_knee_blocks = 5.0
