"""Seeded, declarative schedules of fault events.

A :class:`FaultPlan` is built either programmatically (builder methods
chain) or from the compact CLI specs used by ``python -m repro chaos``::

    --fail-device  3@t=2.0            # kill device 3 at t=2s
    --fail-device  3@t=2.0,recover=5  # ...and bring it back at t=5s
    --degrade-link 0-1@t=1.0,factor=0.5,until=3.0
    --flap-link    0-1@t=1.0,period=0.5,cycles=4
    --throttle-hbm 0.7@t=1.5,until=4.0
    --straggler    2@t=1.0,factor=0.5

Everything is deterministic: the plan's ``seed`` drives the transient
kernel-fault RNG, and events replay in (time, insertion) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.audit import ConfigError
from repro.core.spec import Grammar
from repro.faults.events import FaultEvent, FaultKind, check_after

#: The fault-spec grammar, shared with ``repro fleet --chaos``
#: (:class:`~repro.cluster.faults.NodeFaultPlan`).
FAULT_GRAMMAR = Grammar("fault", {"t": "at", "recover": "recover_at"})

#: Most cycles one flap may schedule: each adds two events, so an
#: unbounded count from a spec would exhaust memory building the plan.
MAX_FLAP_CYCLES = 1000


@dataclass
class FaultPlan:
    """An ordered, seeded schedule of fault events."""

    seed: int = 0
    #: Per-decode-step probability of a transient kernel failure.
    kernel_fault_rate: float = 0.0
    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.kernel_fault_rate < 1.0:
            raise ConfigError(
                f"kernel_fault_rate must be in [0, 1), got {self.kernel_fault_rate!r}"
            )

    # -- builders ------------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def fail_device(
        self, device: int, at: float, recover_at: Optional[float] = None
    ) -> "FaultPlan":
        """Hard device failure, optionally followed by recovery."""
        self.add(FaultEvent(at, FaultKind.DEVICE_FAIL, device=device))
        if recover_at is not None:
            check_after("recover_at", recover_at, at)
            self.add(FaultEvent(recover_at, FaultKind.DEVICE_RECOVER, device=device))
        return self

    def degrade_link(
        self, a: int, b: int, factor: float, at: float, until: Optional[float] = None
    ) -> "FaultPlan":
        """Reduce one P2P link to ``factor`` of its bandwidth."""
        self.add(FaultEvent(at, FaultKind.LINK_DEGRADE, device=a, peer=b, factor=factor))
        if until is not None:
            check_after("until", until, at)
            self.add(FaultEvent(until, FaultKind.LINK_RESTORE, device=a, peer=b))
        return self

    def flap_link(
        self, a: int, b: int, at: float, period: float, cycles: int
    ) -> "FaultPlan":
        """A flapping link: down for ``period / 2``, up for ``period / 2``."""
        # No event carries ``cycles``, so no __post_init__ can check it.
        if not 1 <= cycles <= MAX_FLAP_CYCLES:
            raise ConfigError(f"cycles must be in 1..{MAX_FLAP_CYCLES}, got {cycles}")
        for i in range(cycles):
            start = at + i * period
            self.degrade_link(a, b, 0.0, start, until=start + period / 2)
        return self

    def throttle_hbm(
        self, factor: float, at: float, until: Optional[float] = None
    ) -> "FaultPlan":
        """Thermal HBM throttling: memory bandwidth drops to ``factor``."""
        self.add(FaultEvent(at, FaultKind.HBM_THROTTLE, factor=factor))
        if until is not None:
            check_after("until", until, at)
            self.add(FaultEvent(until, FaultKind.HBM_RESTORE))
        return self

    def straggler(
        self, device: int, factor: float, at: float, until: Optional[float] = None
    ) -> "FaultPlan":
        """One device's TPCs run at ``factor`` speed (batch-synchronous
        steps slow to the straggler's pace)."""
        self.add(FaultEvent(at, FaultKind.TPC_STRAGGLER, device=device, factor=factor))
        if until is not None:
            check_after("until", until, at)
            self.add(FaultEvent(until, FaultKind.STRAGGLER_CLEAR, device=device))
        return self

    def kernel_fault_at(self, at: float) -> "FaultPlan":
        """Force one transient kernel failure at a specific time."""
        self.add(FaultEvent(at, FaultKind.KERNEL_FAULT))
        return self

    # -- queries -------------------------------------------------------
    def scheduled(self) -> List[FaultEvent]:
        """Events in replay order (stable sort by fire time)."""
        return sorted(self.events, key=lambda e: e.time)

    @property
    def empty(self) -> bool:
        return not self.events and self.kernel_fault_rate == 0.0

    # -- CLI spec parsing ----------------------------------------------
    @classmethod
    def from_specs(
        cls,
        seed: int = 0,
        fail_device: Sequence[str] = (),
        degrade_link: Sequence[str] = (),
        flap_link: Sequence[str] = (),
        throttle_hbm: Sequence[str] = (),
        straggler: Sequence[str] = (),
        kernel_fault_rate: float = 0.0,
    ) -> "FaultPlan":
        """Build a plan from ``repro chaos`` flag values.

        A malformed spec raises a :class:`ConfigError` naming its flag.
        """
        plan = cls(seed=seed, kernel_fault_rate=kernel_fault_rate)
        for flag, specs, builder, head in (
            ("--fail-device", fail_device, plan.fail_device, ("device",)),
            ("--degrade-link", degrade_link, plan.degrade_link, ("a", "b")),
            ("--flap-link", flap_link, plan.flap_link, ("a", "b")),
            ("--throttle-hbm", throttle_hbm, plan.throttle_hbm, ("factor",)),
            ("--straggler", straggler, plan.straggler, ("device",)),
        ):
            for spec in specs:
                FAULT_GRAMMAR.bind(builder, spec, where=f"{flag}: ", head=head)
        return plan
