"""Protocol and deployment configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Upper bound on slots per view for the slotting design: a safety valve for
#: the simulation (the adaptive mechanism usually stops earlier, when the
#: view timer expires) and the cap on ``pipeline_depth``.
MAX_SLOTS_PER_VIEW = 64


@dataclass
class ProtocolConfig:
    """Static configuration shared by every replica in a deployment.

    Attributes
    ----------
    n:
        Total number of replicas; must satisfy ``n >= 3f + 1``.
    batch_size:
        Maximum number of transactions batched per block (the paper's default
        is 100).
    view_timeout:
        The pacemaker timer length ``tau`` (seconds): the maximum time a
        replica waits in a view before blaming the leader.
    delta:
        The presumed network transmission-delay bound used by the pacemaker's
        ``ShareTimer`` (``start_time + 3 * delta``).
    pipeline_depth:
        How many uncertified slot proposals a slotted leader keeps in flight
        at once.  The default 1 reproduces the paper's one-round-trip-at-a-
        time slotting exactly; deeper pipelines overlap proposal dissemination
        with vote aggregation (multi-pipeline HotStuff style) and pay off once
        real network/IO latency dominates, i.e. in the live runtime.  At most
        :data:`MAX_SLOTS_PER_VIEW`.
    speculation_enabled:
        Whether HotStuff-1 replicas speculatively execute (disabling it turns
        HotStuff-1 into a useful ablation baseline).
    seed:
        Deployment seed for crypto and workload randomness.
    """

    n: int
    batch_size: int = 100
    view_timeout: float = 0.010
    delta: float = 0.001
    pipeline_depth: int = 1
    speculation_enabled: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ConfigurationError(f"a BFT deployment needs at least 4 replicas, got {self.n}")
        if self.n < 3 * self.f + 1:
            raise ConfigurationError(f"n={self.n} violates n >= 3f+1")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.view_timeout <= 0:
            raise ConfigurationError("view_timeout must be positive")
        if self.delta <= 0:
            raise ConfigurationError("delta must be positive")
        if self.pipeline_depth < 1:
            raise ConfigurationError(f"pipeline_depth must be >= 1, got {self.pipeline_depth}")
        if self.pipeline_depth > MAX_SLOTS_PER_VIEW:
            raise ConfigurationError(
                f"pipeline_depth must be <= {MAX_SLOTS_PER_VIEW}, got {self.pipeline_depth}"
            )

    # ------------------------------------------------------------ quorums
    @property
    def f(self) -> int:
        """Maximum number of faulty replicas tolerated."""
        return (self.n - 1) // 3

    @property
    def quorum(self) -> int:
        """Certificate quorum size ``n - f``."""
        return self.n - self.f

    @property
    def epoch_length(self) -> int:
        """Number of views per pacemaker epoch (``f + 1``, Figure 3)."""
        return self.f + 1

    def replica_ids(self) -> range:
        """All replica ids in this deployment."""
        return range(self.n)

    def describe(self) -> str:
        """One-line human readable summary for experiment reports."""
        return (
            f"n={self.n} f={self.f} quorum={self.quorum} batch={self.batch_size} "
            f"timeout={self.view_timeout * 1000:.1f}ms"
        )
