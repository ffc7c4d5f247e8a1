"""Timed fault events against the serving engine's virtual clock."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.audit import ConfigError

#: Smallest usable fraction of a degraded link's bandwidth.  Factor 0
#: is a severed link, which the fabric relays at its residual rate; a
#: tiny positive factor would stretch every collective without bound
#: (a fleet draining a node would poll it forever), so factors in
#: ``(0, MIN_LINK_FACTOR)`` are rejected.
MIN_LINK_FACTOR = 0.01


def check_link_factor(what: str, factor: float, healthy_ok: bool) -> None:
    """Raise :class:`ConfigError` naming ``what`` unless ``factor`` is 0
    or in ``[MIN_LINK_FACTOR, 1)`` (``1`` included when ``healthy_ok``)."""
    if not (factor == 0.0 or MIN_LINK_FACTOR <= factor < 1.0 or (healthy_ok and factor == 1.0)):
        bracket = "]" if healthy_ok else ")"
        raise ConfigError(
            f"{what} must be 0 or in [{MIN_LINK_FACTOR:g}, 1{bracket}, got {factor!r}"
        )


def check_after(what: str, end: float, at: float) -> None:
    """The builders' one pairing check: the ``what`` event that ends a
    fault (``until``, ``recover_at``) must come after its start ``at``."""
    if not end > at:
        raise ConfigError(f"{what}={end!r} must come after at={at!r}")


class FaultKind(enum.Enum):
    """What goes wrong (or comes back) at an event's fire time."""

    DEVICE_FAIL = "device-fail"
    DEVICE_RECOVER = "device-recover"
    LINK_DEGRADE = "link-degrade"
    LINK_RESTORE = "link-restore"
    HBM_THROTTLE = "hbm-throttle"
    HBM_RESTORE = "hbm-restore"
    TPC_STRAGGLER = "tpc-straggler"
    STRAGGLER_CLEAR = "straggler-clear"
    KERNEL_FAULT = "kernel-fault"


#: Kinds that target a device, and those that target a link to ``peer``.
_DEVICE_KINDS = frozenset({
    FaultKind.DEVICE_FAIL, FaultKind.DEVICE_RECOVER, FaultKind.TPC_STRAGGLER,
    FaultKind.STRAGGLER_CLEAR, FaultKind.LINK_DEGRADE, FaultKind.LINK_RESTORE,
})
_LINK_KINDS = frozenset({FaultKind.LINK_DEGRADE, FaultKind.LINK_RESTORE})
#: Kinds whose ``factor`` is a remaining fraction in (0, 1].
_FRACTION_KINDS = {FaultKind.HBM_THROTTLE: "HBM throttle", FaultKind.TPC_STRAGGLER: "straggler"}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault transition.

    ``device``/``peer`` identify the affected device or link endpoints
    (-1 = not applicable).  ``factor`` is the remaining-capacity
    fraction for degradations (link bandwidth, HBM bandwidth, TPC
    speed): 1.0 is healthy, 0.0 is fully down.
    """

    time: float
    kind: FaultKind
    device: int = -1
    peer: int = -1
    factor: float = 1.0

    def __post_init__(self) -> None:
        # Checked per kind here rather than in the builders, so a plan
        # is held to the same bounds however it was built.
        kind, device, peer, factor = self.kind, self.device, self.peer, self.factor
        if not 0.0 <= self.time < math.inf:
            raise ConfigError(f"event time must be finite and >= 0, got {self.time!r}")
        if kind in _DEVICE_KINDS and device < 0:
            raise ConfigError(f"device must be >= 0, got {device}")
        if kind in _LINK_KINDS and (peer < 0 or peer == device):
            raise ConfigError(f"link needs two distinct devices >= 0, got {device}-{peer}")
        if kind is FaultKind.LINK_DEGRADE:
            check_link_factor("link factor", factor, healthy_ok=True)
        elif kind in _FRACTION_KINDS and not 0.0 < factor <= 1.0:
            raise ConfigError(
                f"{_FRACTION_KINDS[kind]} factor must be in (0, 1], got {factor!r}"
            )
        elif kind not in _FRACTION_KINDS and factor != 1.0:
            raise ConfigError(f"{kind.value} event takes no factor, got {factor!r}")

    def describe(self) -> str:
        """Stable one-line rendering (used by the resilience report)."""
        parts = [f"t={self.time:g}", self.kind.value]
        if self.device >= 0:
            target = f"dev{self.device}"
            if self.peer >= 0:
                target += f"-dev{self.peer}"
            parts.append(target)
        if self.kind is FaultKind.LINK_DEGRADE or self.kind in _FRACTION_KINDS:
            parts.append(f"factor={self.factor:g}")
        return " ".join(parts)
