"""Simulated network substrate.

The paper's evaluation runs on AWS machines within and across regions, with
injected message delays and geographic splits.  This package reproduces that
substrate on top of the discrete-event simulator:

* :class:`~repro.net.network.SimNetwork` delivers point-to-point and broadcast
  messages between registered nodes with per-link latencies,
* latency models (:mod:`repro.net.latency`) cover the LAN case (constant /
  jittered) and the geo case (region assignment plus an inter-region RTT
  matrix derived from public measurements),
* :class:`~repro.net.faults.FaultInjector` reproduces the evaluation's fault
  knobs: added delay for a chosen set of replicas (Fig. 9), node drops and
  network partitions.

Partial synchrony is modelled by making every latency sample finite and
bounded; a Global Stabilisation Time can be expressed by clearing fault rules
at a chosen simulated time.
"""

from repro.net.faults import FaultInjector
from repro.net.latency import (
    ConstantLatency,
    GeoLatencyModel,
    JitteredLatency,
    LatencyModel,
    REGION_RTT_MS,
)
from repro.net.message import Envelope
from repro.net.network import SimNetwork

__all__ = [
    "ConstantLatency",
    "Envelope",
    "FaultInjector",
    "GeoLatencyModel",
    "JitteredLatency",
    "LatencyModel",
    "REGION_RTT_MS",
    "SimNetwork",
]
