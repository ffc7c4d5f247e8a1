"""Runtime invariant auditing, typed failure taxonomy, and watchdogs.

See :mod:`repro.audit.auditor` for the invariant catalogue and modes
(``REPRO_AUDIT=off|sample|strict``), :mod:`repro.audit.errors` for the
:class:`AuditError` taxonomy, and :mod:`repro.audit.watchdog` for the
per-point step/wall watchdog that converts wedged simulations into
typed partial results.
"""

from repro.audit.auditor import (
    AuditMode,
    Auditor,
    RunAudit,
    audit_scope,
    configure,
    get_auditor,
    resolve_mode,
)
from repro.audit.errors import (
    AuditError,
    ClockError,
    CollectiveAuditError,
    ConfigError,
    FleetConservationError,
    FleetDrainError,
    FleetRoutingError,
    JournalError,
    KvConservationError,
    LifecycleError,
    MemoEquivalenceError,
    ReportConsistencyError,
    TokenConservationError,
    WatchdogExceeded,
    WorkerRetryExhausted,
)
from repro.audit.watchdog import Watchdog

__all__ = [
    "AuditError",
    "AuditMode",
    "Auditor",
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
    "RunAudit",
    "TokenConservationError",
    "Watchdog",
    "WatchdogExceeded",
    "WorkerRetryExhausted",
    "audit_scope",
    "configure",
    "get_auditor",
    "resolve_mode",
]
