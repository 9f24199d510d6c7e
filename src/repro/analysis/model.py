"""Closed-form performance model for the streamlined protocols.

The paper reasons about latency in *half-phases*: a transaction proposed in
view ``v`` is answered after 3 (HotStuff-1), 5 (HotStuff-2) or 7 (HotStuff)
consensus half-phases plus the client request and response hops.  Throughput
of the streamlined protocols is one batch per view, where a view lasts two
network hops plus the leader's and replicas' processing time.

:class:`AnalyticalModel` evaluates those formulas from the same
:class:`~repro.consensus.costs.CostModel` and latency parameters the
simulator uses, which makes it useful for

* predicting where the batching curve saturates (Fig. 8 c),
* explaining the measured latency ratios (5 : 7 : 9),
* sizing closed-loop client populations (the pipeline knee).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus.config import ProtocolConfig
from repro.consensus.costs import CostModel
from repro.core.registry import replica_class_for


@dataclass(frozen=True)
class PredictedPerformance:
    """Model output for one (protocol, configuration) pair."""

    protocol: str
    view_duration: float
    saturation_throughput: float
    client_latency: float
    consensus_half_phases: int
    knee_clients: int

    def as_dict(self) -> dict:
        """Plain-dict view (seconds / tps)."""
        return {
            "protocol": self.protocol,
            "view_duration_ms": self.view_duration * 1000.0,
            "saturation_throughput_tps": self.saturation_throughput,
            "client_latency_ms": self.client_latency * 1000.0,
            "consensus_half_phases": self.consensus_half_phases,
            "knee_clients": self.knee_clients,
        }


class AnalyticalModel:
    """Analytic throughput / latency estimates for the streamlined protocols.

    Parameters
    ----------
    config:
        The deployment configuration (n, batch size).
    hop_latency:
        One-way network delay between replicas (seconds).
    costs:
        The CPU cost model; defaults to the simulator's defaults.
    execution_cost_per_txn:
        State-machine execution cost per transaction (YCSB ≈ 1 µs, TPC-C ≈ 4 µs).
    """

    def __init__(
        self,
        config: ProtocolConfig,
        hop_latency: float = 0.0005,
        costs: CostModel | None = None,
        execution_cost_per_txn: float = 1e-6,
    ) -> None:
        self.config = config
        self.hop_latency = float(hop_latency)
        self.costs = costs or CostModel()
        self.execution_cost_per_txn = float(execution_cost_per_txn)

    # ------------------------------------------------------------- components
    def leader_work(self, batch_size: int) -> float:
        """Leader-side processing per view: form the certificate, build the proposal."""
        return self.costs.certificate_formation_cost(self.config.quorum) + self.costs.proposal_cost(
            batch_size, self.config.n
        )

    def replica_work(self, batch_size: int) -> float:
        """Replica-side processing per view: validate, execute, respond, vote."""
        return (
            self.costs.proposal_validation_cost(self.config.quorum)
            + self.costs.execution_cost(batch_size, self.execution_cost_per_txn)
            + self.costs.response_cost(batch_size)
            + self.costs.vote_cost()
        )

    def view_duration(self, batch_size: int | None = None) -> float:
        """Duration of one streamlined view: two hops plus processing."""
        batch = self.config.batch_size if batch_size is None else batch_size
        return 2 * self.hop_latency + self.leader_work(batch) + self.replica_work(batch)

    # ------------------------------------------------------------ predictions
    def predict(self, protocol: str, batch_size: int | None = None) -> PredictedPerformance:
        """Predict view duration, saturation throughput and client latency."""
        batch = self.config.batch_size if batch_size is None else batch_size
        replica_class = replica_class_for(protocol)
        half_phases = replica_class.consensus_half_phases
        phases_per_decision = replica_class.phases_per_decision
        view = self.view_duration(batch)
        throughput = batch / (view * phases_per_decision)
        # Client latency: request hop + average mempool wait (half a view) +
        # the consensus half-phases (each roughly half a view) + response hop.
        latency = (
            2 * self.hop_latency
            + 0.5 * view
            + (half_phases / 2.0) * view * phases_per_decision
        )
        knee = max(16, int(round(throughput * latency)))
        return PredictedPerformance(
            protocol=protocol,
            view_duration=view,
            saturation_throughput=throughput,
            client_latency=latency,
            consensus_half_phases=half_phases,
            knee_clients=knee,
        )

    def latency_ratio(self, protocol_a: str, protocol_b: str) -> float:
        """Predicted latency of *protocol_a* relative to *protocol_b* (e.g. 5/9)."""
        a = self.predict(protocol_a).client_latency
        b = self.predict(protocol_b).client_latency
        return a / b if b > 0 else float("inf")

    def saturation_batch(self, protocol: str = "hotstuff-1", tolerance: float = 0.9) -> int:
        """Smallest batch size whose marginal throughput gain falls below *tolerance*.

        Doubling the batch below saturation should almost double throughput;
        the returned batch is where the gain of doubling drops under
        ``tolerance * 2``.
        """
        batch = 100
        while batch < 1_000_000:
            current = self.predict(protocol, batch).saturation_throughput
            doubled = self.predict(protocol, batch * 2).saturation_throughput
            if doubled / current < tolerance * 2:
                return batch
            batch *= 2
        return batch
