"""Baseline protocols the paper compares HotStuff-1 against.

* :class:`~repro.consensus.protocols.hotstuff.HotStuffReplica` — streamlined
  (chained) HotStuff with the three-chain commit rule; 7 consensus
  half-phases before a client response.
* :class:`~repro.consensus.protocols.hotstuff2.HotStuff2Replica` — HotStuff-2
  with the two-chain commit rule; 5 consensus half-phases.

Both are built on :class:`~repro.consensus.protocols.chained_base.ChainedReplica`,
which holds the streamlined one-phase-per-view rules (when to propose, the
vote to the next leader, which block the commit rule picks) shared with
streamlined HotStuff-1, on the skeleton every protocol shares in
:class:`~repro.consensus.replica.BaseReplica`.
"""

from repro.consensus.protocols.chained_base import ChainedReplica
from repro.consensus.protocols.hotstuff import HotStuffReplica
from repro.consensus.protocols.hotstuff2 import HotStuff2Replica

__all__ = ["ChainedReplica", "HotStuff2Replica", "HotStuffReplica"]
