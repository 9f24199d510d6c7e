"""HotStuff-1: the paper's core contribution.

Three protocol variants are implemented, message-for-message from the paper's
pseudocode:

* :class:`~repro.core.basic.BasicHotStuff1Replica` — basic (non-streamlined)
  HotStuff-1 (Figure 2): two phases per view, speculation on the Prepare
  broadcast, traditional + prefix commit rules.
* :class:`~repro.core.streamlined.HotStuff1Replica` — streamlined HotStuff-1
  (Figure 4): one phase per view, speculation when the next view's proposal
  carries the fresh certificate, prefix commit rule only.
* :class:`~repro.core.slotting.SlottedHotStuff1Replica` — streamlined
  HotStuff-1 with adaptive slotting (Figures 6–7): multiple slots per view,
  New-View / New-Slot dual certificates, carry blocks, SafeSlot
  well-formedness, Reject messages and trusted/distrusted previous leaders.

The variants hold only their rules.  The speculation safety rules (Prefix
Speculation rule, No-Gap rule) are factored into
:mod:`repro.core.speculation` so they can be tested in isolation and reused
by all variants; the machinery around them — certificate aggregation, the
charged commit and speculation, proposal broadcast, the leader trigger,
bootstrap and timeout — is written once in
:class:`~repro.consensus.replica.BaseReplica`, shared with the HotStuff and
HotStuff-2 baselines.  :mod:`repro.core.registry` maps protocol names to
replica classes and client quorum rules for the experiment harness.
"""

from repro.core.basic import BasicHotStuff1Replica
from repro.core.registry import PROTOCOLS, client_quorum_for, replica_class_for
from repro.core.slotting import SlottedHotStuff1Replica
from repro.core.speculation import SpeculationDecision, SpeculationGuard
from repro.core.streamlined import HotStuff1Replica

__all__ = [
    "BasicHotStuff1Replica",
    "HotStuff1Replica",
    "PROTOCOLS",
    "SlottedHotStuff1Replica",
    "SpeculationDecision",
    "SpeculationGuard",
    "client_quorum_for",
    "replica_class_for",
]
