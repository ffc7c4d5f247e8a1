"""``hl-smi`` / ``nvidia-smi`` analogs.

Section 3.1: "each system's power consumption is measured using
nvidia-smi for A100 and hl-smi for Gaudi-2".  These helpers produce the
same style of readout from an :class:`~repro.hw.power.ActivityProfile`
(or a workload estimate carrying one), so experiments report power the
way the paper's scripts did.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.power import ActivityProfile, PowerModel
from repro.hw.spec import DeviceSpec


@dataclass(frozen=True)
class SmiSample:
    """One management-interface sample."""

    device: str
    power_watts: float
    power_limit_watts: float
    matrix_utilization_pct: float
    vector_utilization_pct: float
    memory_utilization_pct: float

    @property
    def power_fraction(self) -> float:
        return self.power_watts / self.power_limit_watts

    def render(self) -> str:
        """The one-line readout both CLIs print."""
        return (
            f"{self.device:8s}  pwr {self.power_watts:5.0f}W / "
            f"{self.power_limit_watts:.0f}W  "
            f"mme/tc {self.matrix_utilization_pct:3.0f}%  "
            f"tpc/sm {self.vector_utilization_pct:3.0f}%  "
            f"mem {self.memory_utilization_pct:3.0f}%"
        )


def _sample(spec: DeviceSpec, activity: ActivityProfile) -> SmiSample:
    power = PowerModel(spec.power).power(activity)
    return SmiSample(
        device=spec.name,
        power_watts=power,
        power_limit_watts=spec.power.tdp_watts,
        matrix_utilization_pct=100.0 * activity.matrix_busy,
        vector_utilization_pct=100.0 * activity.vector_busy,
        memory_utilization_pct=100.0 * activity.memory_util,
    )


def hl_smi(activity: ActivityProfile, spec: DeviceSpec) -> SmiSample:
    """Gaudi's System Management Interface readout."""
    if spec.vendor != "Intel":
        raise ValueError("hl-smi reads Gaudi devices; use nvidia_smi for GPUs")
    return _sample(spec, activity)


def nvidia_smi(activity: ActivityProfile, spec: DeviceSpec) -> SmiSample:
    """NVIDIA's System Management Interface readout."""
    if spec.vendor != "NVIDIA":
        raise ValueError("nvidia-smi reads NVIDIA devices; use hl_smi for Gaudi")
    return _sample(spec, activity)


def smi(device, activity: ActivityProfile) -> SmiSample:
    """Backend-dispatched readout: whichever smi the platform ships.

    Reads the backend's ``smi_style`` capability ("hl-smi" or
    "nvidia-smi"), so any registered backend renders its native tool's
    output without callers branching on vendor.
    """
    style = getattr(device, "smi_style", "hl-smi")
    impl = hl_smi if style == "hl-smi" else nvidia_smi
    return impl(activity, device.spec)
