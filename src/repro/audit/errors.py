"""Typed error taxonomy for the runtime invariant auditor.

Every invariant class the auditor enforces has its own exception type,
all rooted at :class:`AuditError`, so callers can catch the whole
family or one specific violation kind.  Each class carries a ``check``
slug -- the same key the auditor uses for its violation counters, the
``repro top`` audit section, and journal records.

:class:`ConfigError` doubles as a :class:`ValueError` so construction-
time validation of configs (:class:`~repro.faults.chaos.ChaosConfig`,
:class:`~repro.faults.plan.FaultPlan`, sweep/hardware knobs) stays
backward compatible with callers that catch ``ValueError``.

:class:`WatchdogExceeded` is raised by a
:class:`~repro.audit.watchdog.Watchdog` when a simulation exceeds its
step or wall-clock budget; the engine converts it into a typed partial
result (``ServingReport.watchdog_reason``) instead of losing the run.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "AuditError",
    "ClockError",
    "CollectiveAuditError",
    "ConfigError",
    "FleetConservationError",
    "FleetDrainError",
    "FleetRoutingError",
    "JournalError",
    "KvConservationError",
    "LifecycleError",
    "MemoEquivalenceError",
    "ReportConsistencyError",
    "TokenConservationError",
    "WatchdogExceeded",
    "WorkerRetryExhausted",
]


class AuditError(RuntimeError):
    """Base of the invariant-violation taxonomy."""

    #: Counter slug for this violation class.
    check = "audit"


class KvConservationError(AuditError):
    """KV blocks leaked, double-freed, or double-counted."""

    check = "kv_conservation"


class LifecycleError(AuditError):
    """A request took an illegal state transition."""

    check = "lifecycle"


class ClockError(AuditError):
    """The virtual clock moved backwards within one run."""

    check = "clock"


class TokenConservationError(AuditError):
    """Tokens held by requests disagree with tokens emitted by steps."""

    check = "token_conservation"


class ReportConsistencyError(AuditError):
    """A report's aggregates are internally inconsistent."""

    check = "report_consistency"


class MemoEquivalenceError(AuditError):
    """A sampled cache hit did not match its recomputed value."""

    check = "memo_equivalence"


class CollectiveAuditError(AuditError):
    """A collective reported an impossible cost or participant count."""

    check = "collective"


class ConfigError(AuditError, ValueError):
    """A config field is out of its legal range (names the field)."""

    check = "config"


class WatchdogExceeded(AuditError):
    """A simulation exceeded its per-point step or wall budget."""

    check = "watchdog"

    def __init__(
        self,
        message: str,
        steps: Optional[int] = None,
        wall_seconds: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.steps = steps
        self.wall_seconds = wall_seconds


class FleetRoutingError(AuditError):
    """The gateway dispatched a request to an unroutable node."""

    check = "fleet_routing"


class FleetConservationError(AuditError):
    """Fleet request accounting broke: admitted requests were lost,
    double-served, or double-counted across failover."""

    check = "fleet_conservation"


class FleetDrainError(AuditError):
    """A node drain or rolling upgrade lost in-flight work: a drained
    node retained attempts, or an upgrade schedule never completed."""

    check = "fleet_drain"


class JournalError(AuditError):
    """A run journal is unreadable or inconsistent with its request."""

    check = "journal"


class WorkerRetryExhausted(AuditError):
    """A process-pool task kept dying past the retry budget."""

    check = "worker_retry"
