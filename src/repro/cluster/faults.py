"""Node-level fault vocabulary for fleet simulations.

Device-level chaos (:mod:`repro.faults`) mutates one box; a fleet run
instead schedules *node*-level events against named nodes: hard
crashes (with optional recovery), slow-node brownouts, fabric-link
degradation inside the node's box (re-priced through the node's own
:class:`~repro.comm.FabricHealth` on the Figure 10 port model), and
transient unavailability blips that make a node unroutable without
losing its in-flight work.

A :class:`NodeFaultPlan` is built programmatically (builder methods
chain) or parsed from the compact ``repro fleet --chaos`` spec, a
semicolon-separated list of events::

    crash:gaudi2-1@t=2,recover=6
    brownout:a100-0@t=1,factor=0.5,until=4
    fabric:gaudi2-0@t=3,factor=0.25,until=5
    blip:gaudi2-2@t=2.5,duration=1
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.audit import ConfigError
from repro.core.spec import split_items
from repro.faults.events import check_after, check_link_factor
from repro.faults.plan import FAULT_GRAMMAR

__all__ = ["NodeFaultEvent", "NodeFaultKind", "NodeFaultPlan"]


class NodeFaultKind(enum.Enum):
    #: Hard node loss: every in-flight request on the node fails over.
    NODE_CRASH = "node_crash"
    #: A crashed node comes back (through RECOVERING, then HEALTHY).
    NODE_RECOVER = "node_recover"
    #: Slow node: every engine step runs at ``1 / factor`` speed.
    BROWNOUT = "brownout"
    BROWNOUT_CLEAR = "brownout_clear"
    #: One intra-node fabric link drops to ``factor`` bandwidth.
    FABRIC_DEGRADE = "fabric_degrade"
    FABRIC_RESTORE = "fabric_restore"
    #: Transient unavailability: unroutable, but in-flight work survives.
    BLIP = "blip"
    BLIP_CLEAR = "blip_clear"


@dataclass(frozen=True)
class NodeFaultEvent:
    """One scheduled node-level event."""

    time: float
    kind: NodeFaultKind
    node: str
    factor: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.time < math.inf:
            raise ConfigError(f"event time must be finite and >= 0, got {self.time!r}")
        if not self.node:
            raise ConfigError("event must name a node")
        # Checked here rather than in the builders, so a plan decoded
        # from a journal is held to the same bounds as a parsed one.
        factor = self.factor
        if self.kind is NodeFaultKind.FABRIC_DEGRADE:
            if factor is None:
                raise ConfigError("fabric_degrade event needs a factor")
            check_link_factor("fabric factor", factor, healthy_ok=False)
        elif self.kind is NodeFaultKind.BROWNOUT:
            if factor is None or not 0.0 < factor <= 1.0:
                raise ConfigError(f"brownout factor must be in (0, 1], got {factor!r}")
        elif factor is not None:
            raise ConfigError(
                f"{self.kind.value} event takes no factor, got {factor!r}"
            )

    def describe(self) -> str:
        parts = [f"t={self.time:g}", self.kind.value, self.node]
        if self.factor is not None:
            parts.append(f"factor={self.factor:g}")
        return " ".join(parts)


#: ``--chaos`` event kind -> the :class:`NodeFaultPlan` builder it calls.
_SPEC_BUILDERS = {
    "crash": "crash", "brownout": "brownout", "fabric": "degrade_fabric", "blip": "blip",
}


@dataclass
class NodeFaultPlan:
    """An ordered schedule of node-level fault events."""

    events: List[NodeFaultEvent] = field(default_factory=list)

    # -- builders ------------------------------------------------------
    def add(self, event: NodeFaultEvent) -> "NodeFaultPlan":
        self.events.append(event)
        return self

    def crash(
        self, node: str, at: float, recover_at: Optional[float] = None
    ) -> "NodeFaultPlan":
        """Hard-crash ``node`` at ``at``; optionally recover later."""
        self.add(NodeFaultEvent(at, NodeFaultKind.NODE_CRASH, node))
        if recover_at is not None:
            check_after("recover_at", recover_at, at)
            self.add(NodeFaultEvent(recover_at, NodeFaultKind.NODE_RECOVER, node))
        return self

    def brownout(
        self, node: str, factor: float, at: float, until: Optional[float] = None
    ) -> "NodeFaultPlan":
        """Slow ``node`` to ``factor`` of its speed from ``at``."""
        self.add(NodeFaultEvent(at, NodeFaultKind.BROWNOUT, node, factor=factor))
        if until is not None:
            check_after("until", until, at)
            self.add(NodeFaultEvent(until, NodeFaultKind.BROWNOUT_CLEAR, node))
        return self

    def degrade_fabric(
        self, node: str, factor: float, at: float, until: Optional[float] = None
    ) -> "NodeFaultPlan":
        """Degrade one intra-node fabric link to ``factor`` bandwidth."""
        self.add(NodeFaultEvent(at, NodeFaultKind.FABRIC_DEGRADE, node, factor=factor))
        if until is not None:
            check_after("until", until, at)
            self.add(NodeFaultEvent(until, NodeFaultKind.FABRIC_RESTORE, node))
        return self

    def blip(self, node: str, at: float, duration: float) -> "NodeFaultPlan":
        """Make ``node`` unroutable for ``duration`` seconds."""
        if not duration > 0:
            raise ConfigError(f"blip duration must be positive, got {duration!r}")
        self.add(NodeFaultEvent(at, NodeFaultKind.BLIP, node))
        self.add(NodeFaultEvent(at + duration, NodeFaultKind.BLIP_CLEAR, node))
        return self

    # -- queries -------------------------------------------------------
    def scheduled(self) -> List[NodeFaultEvent]:
        """Events in replay order (stable sort by fire time)."""
        return sorted(self.events, key=lambda e: e.time)

    @property
    def empty(self) -> bool:
        return not self.events

    # -- CLI spec parsing ----------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "NodeFaultPlan":
        """Parse a ``--chaos`` string: ``;``-separated event specs of
        the form ``kind:node@t=T[,key=value...]`` (see module doc)."""
        plan = cls()
        for item in split_items(spec):
            kind, rest = FAULT_GRAMMAR.split_kind(item, _SPEC_BUILDERS, where="--chaos: ")
            FAULT_GRAMMAR.bind(
                getattr(plan, _SPEC_BUILDERS[kind]), rest,
                where=f"--chaos {kind}: ", head=("node",),
            )
        return plan
