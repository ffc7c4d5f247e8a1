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

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.audit import ConfigError
from repro.faults.events import FaultEvent, FaultKind

#: Smallest usable fraction of a degraded link's bandwidth.  Factor 0
#: is a severed link, which the fabric relays at its residual rate; a
#: tiny positive factor would stretch every collective without bound
#: (a fleet draining a node would poll it forever), so factors in
#: ``(0, MIN_LINK_FACTOR)`` are rejected.
MIN_LINK_FACTOR = 0.01


def check_link_factor(what: str, factor: float, healthy_ok: bool) -> None:
    """Raise :class:`ConfigError` naming ``what`` unless ``factor`` is 0
    or in ``[MIN_LINK_FACTOR, 1)`` (``1`` included when ``healthy_ok``)."""
    if not (
        factor == 0.0
        or MIN_LINK_FACTOR <= factor < 1.0
        or (healthy_ok and factor == 1.0)
    ):
        bracket = "]" if healthy_ok else ")"
        raise ConfigError(
            f"{what} must be 0 or in [{MIN_LINK_FACTOR:g}, 1{bracket}, got {factor!r}"
        )


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
        if device < 0:
            raise ConfigError(f"device must be >= 0, got {device}")
        if at < 0:
            raise ConfigError(f"failure time must be >= 0, got {at!r}")
        self.add(FaultEvent(at, FaultKind.DEVICE_FAIL, device=device))
        if recover_at is not None:
            if recover_at <= at:
                raise ConfigError(
                    f"recovery (recover_at={recover_at!r}) must come after "
                    f"the failure (at={at!r})"
                )
            self.add(FaultEvent(recover_at, FaultKind.DEVICE_RECOVER, device=device))
        return self

    def degrade_link(
        self, a: int, b: int, factor: float, at: float, until: Optional[float] = None
    ) -> "FaultPlan":
        """Reduce one P2P link to ``factor`` of its bandwidth."""
        if a < 0 or b < 0:
            raise ConfigError(f"link devices must be >= 0, got {a}-{b}")
        if a == b:
            raise ConfigError(f"link endpoints must differ, got {a}-{b}")
        check_link_factor("link factor", factor, healthy_ok=True)
        self.add(FaultEvent(at, FaultKind.LINK_DEGRADE, device=a, peer=b, factor=factor))
        if until is not None:
            if until <= at:
                raise ConfigError(
                    f"restore (until={until!r}) must come after the "
                    f"degradation (at={at!r})"
                )
            self.add(FaultEvent(until, FaultKind.LINK_RESTORE, device=a, peer=b))
        return self

    def flap_link(
        self, a: int, b: int, at: float, period: float, cycles: int
    ) -> "FaultPlan":
        """A flapping link: down for ``period / 2``, up for ``period / 2``."""
        if period <= 0:
            raise ConfigError(f"period must be positive, got {period!r}")
        if cycles < 1:
            raise ConfigError(f"cycles must be >= 1, got {cycles}")
        for i in range(cycles):
            start = at + i * period
            self.degrade_link(a, b, 0.0, start, until=start + period / 2)
        return self

    def throttle_hbm(
        self, factor: float, at: float, until: Optional[float] = None
    ) -> "FaultPlan":
        """Thermal HBM throttling: memory bandwidth drops to ``factor``."""
        if not 0.0 < factor <= 1.0:
            raise ConfigError(f"HBM throttle factor must be in (0, 1], got {factor!r}")
        self.add(FaultEvent(at, FaultKind.HBM_THROTTLE, factor=factor))
        if until is not None:
            if until <= at:
                raise ConfigError(
                    f"restore (until={until!r}) must come after the "
                    f"throttle (at={at!r})"
                )
            self.add(FaultEvent(until, FaultKind.HBM_RESTORE))
        return self

    def straggler(
        self, device: int, factor: float, at: float, until: Optional[float] = None
    ) -> "FaultPlan":
        """One device's TPCs run at ``factor`` speed (batch-synchronous
        steps slow to the straggler's pace)."""
        if device < 0:
            raise ConfigError(f"device must be >= 0, got {device}")
        if not 0.0 < factor <= 1.0:
            raise ConfigError(f"straggler factor must be in (0, 1], got {factor!r}")
        self.add(FaultEvent(at, FaultKind.TPC_STRAGGLER, device=device, factor=factor))
        if until is not None:
            if until <= at:
                raise ConfigError(
                    f"clear (until={until!r}) must come after the "
                    f"slowdown (at={at!r})"
                )
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
        for spec in fail_device:
            with _flag_errors("--fail-device"):
                head, kv = _parse_spec(spec, required=("t",), optional=("recover",))
                plan.fail_device(int(head), kv["t"], recover_at=kv.get("recover"))
        for spec in degrade_link:
            with _flag_errors("--degrade-link"):
                head, kv = _parse_spec(spec, required=("t", "factor"), optional=("until",))
                a, b = _parse_link(head)
                plan.degrade_link(a, b, kv["factor"], kv["t"], until=kv.get("until"))
        for spec in flap_link:
            with _flag_errors("--flap-link"):
                head, kv = _parse_spec(spec, required=("t", "period", "cycles"))
                a, b = _parse_link(head)
                plan.flap_link(a, b, kv["t"], kv["period"], int(kv["cycles"]))
        for spec in throttle_hbm:
            with _flag_errors("--throttle-hbm"):
                head, kv = _parse_spec(spec, required=("t",), optional=("until",))
                plan.throttle_hbm(float(head), kv["t"], until=kv.get("until"))
        for spec in straggler:
            with _flag_errors("--straggler"):
                head, kv = _parse_spec(spec, required=("t", "factor"), optional=("until",))
                plan.straggler(int(head), kv["factor"], kv["t"], until=kv.get("until"))
        return plan


@contextmanager
def _flag_errors(flag: str) -> Iterator[None]:
    """Re-raise a spec's ``ValueError`` as a ConfigError naming ``flag``."""
    try:
        yield
    except ValueError as error:
        raise ConfigError(f"{flag}: {error}") from None


def _parse_spec(
    spec: str,
    required: Tuple[str, ...] = (),
    optional: Tuple[str, ...] = (),
) -> Tuple[str, Dict[str, float]]:
    """Parse ``HEAD@key=value,key=value`` fault specs."""
    head, sep, rest = spec.partition("@")
    if not sep or not head:
        raise ValueError(f"bad fault spec {spec!r}: expected HEAD@t=TIME[,...]")
    kv: Dict[str, float] = {}
    for item in rest.split(","):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"bad fault spec {spec!r}: {item!r} is not key=value")
        try:
            kv[key.strip()] = float(value)
        except ValueError:
            raise ValueError(f"bad fault spec {spec!r}: {value!r} is not a number") from None
    for key in required:
        if key not in kv:
            raise ValueError(f"bad fault spec {spec!r}: missing {key}=")
    allowed = set(required) | set(optional)
    extra = set(kv) - allowed
    if extra:
        raise ValueError(f"bad fault spec {spec!r}: unknown keys {sorted(extra)}")
    return head.strip(), kv


def _parse_link(head: str) -> Tuple[int, int]:
    a, sep, b = head.partition("-")
    if not sep:
        raise ValueError(f"bad link {head!r}: expected A-B device pair")
    return int(a), int(b)
