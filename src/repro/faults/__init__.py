"""Deterministic fault injection for the serving stack.

The paper's HLS-Gaudi-2 mesh loses interconnect bandwidth *linearly*
when devices drop out -- only ``3 * (alive - 1)`` of each survivor's 21
RoCE ports stay usable (Section 2, Figure 10).  This package lets the
simulators explore exactly that regime: a seeded
:class:`~repro.faults.plan.FaultPlan` schedules timed fault events
(device failure/recovery, link degradation and flaps, HBM thermal
throttling, straggler TPCs, transient kernel failures), a
:class:`~repro.faults.injector.FaultInjector` replays them against the
engine's virtual clock while mutating a shared
:class:`~repro.comm.FabricHealth`, and
:func:`~repro.faults.chaos.run_chaos` drives a full serving run under
the plan, summarized as a byte-identical-per-seed
:class:`~repro.faults.report.ResilienceReport`.
"""

from repro.faults.events import FaultEvent, FaultKind
from repro.faults.injector import AdvanceSummary, FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.report import GATEWAY_SHED_PREFIX, ResilienceReport, shed_reason_counts
from repro.faults.chaos import ChaosConfig, run_chaos

__all__ = [
    "AdvanceSummary",
    "ChaosConfig",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "GATEWAY_SHED_PREFIX",
    "ResilienceReport",
    "run_chaos",
    "shed_reason_counts",
]
