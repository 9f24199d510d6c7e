"""Exception hierarchy shared across the HotStuff-1 reproduction.

Every package-specific error derives from :class:`ReproError`, so callers can
catch one base class when they do not care about the specific failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulator is used incorrectly."""


class CryptoError(ReproError):
    """Raised when a threshold-signature operation fails."""


class ThresholdError(CryptoError):
    """Raised when aggregation is attempted with too few or invalid shares."""


class NetworkError(ReproError):
    """Raised for invalid network configuration or delivery to unknown nodes."""


class LedgerError(ReproError):
    """Raised for malformed blocks or inconsistent ledger operations."""


class UnknownBlockError(LedgerError):
    """Raised when a block hash is not present in the block store."""


class ForkError(LedgerError):
    """Raised when a commit would contradict an already committed block."""


class SpeculationError(LedgerError):
    """Raised when the speculative ledger is asked to violate its rules."""


class ExecutionError(LedgerError):
    """Raised when a transaction cannot be applied to the state machine."""


class ConsensusError(ReproError):
    """Raised for protocol-level violations detected by a correct replica."""


class InvalidCertificateError(ConsensusError):
    """Raised when a certificate fails structural or cryptographic checks."""


class SafetyViolationError(ConsensusError):
    """Raised by invariant checkers when two correct replicas diverge."""


class ConfigurationError(ReproError):
    """Raised when an experiment or protocol configuration is inconsistent."""


class WorkloadError(ReproError):
    """Raised when a workload generator is configured or used incorrectly."""
