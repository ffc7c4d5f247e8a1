"""Measurement tooling analogs.

The paper's methodology leans on three tools we model here:

* :mod:`repro.tools.profiler` -- the Intel Gaudi Profiler analog used
  in Section 3.2 to reverse-engineer how the graph compiler configures
  the MME (the Figure 7(a) geometry map).
* :mod:`repro.tools.smi` -- ``hl-smi`` / ``nvidia-smi`` analogs: board
  power and engine-utilization readouts for a workload phase
  (Section 3.1's energy methodology).
"""

from repro.tools.profiler import GaudiProfiler
from repro.tools.smi import SmiSample, hl_smi, nvidia_smi, smi

__all__ = [
    "GaudiProfiler",
    "SmiSample",
    "hl_smi",
    "nvidia_smi",
    "smi",
]
