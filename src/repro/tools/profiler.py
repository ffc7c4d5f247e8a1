"""Gaudi Profiler analog.

Section 3.2 of the paper: "we use the Intel Gaudi Profiler to
reverse-engineer how the graph compiler and runtime system manages
MME's GEMM execution, which provide hints on how the MME geometry is
dynamically configured".  :meth:`GaudiProfiler.reverse_engineer_mme`
does the same against the model: it sweeps GEMM shapes and tabulates
the geometry the compiler picked per shape, i.e. regenerates
Figure 7(a) the way the authors did.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.hw.device import Gaudi2Device
from repro.hw.spec import DType


class GaudiProfiler:
    """The model-level equivalent of the Intel Gaudi Profiler."""

    def __init__(self, device: Gaudi2Device) -> None:
        self.device = device

    # ------------------------------------------------------------------
    def reverse_engineer_mme(
        self,
        m_sizes: Sequence[int],
        n_sizes: Sequence[int],
        k: int = 16384,
        dtype: DType = DType.BF16,
    ) -> List[dict]:
        """Regenerate the Figure 7(a) geometry map.

        Returns one record per (M, N) with the chosen geometry label,
        whether it power-gates the array, and the achieved utilization.
        """
        if not m_sizes or not n_sizes:
            raise ValueError("need at least one M and one N size")
        records = []
        for m in m_sizes:
            for n in n_sizes:
                config = self.device.mme.select_config(m, k, n, dtype)
                estimate = self.device.mme.gemm(m, k, n, dtype)
                records.append(
                    {
                        "m": m,
                        "n": n,
                        "k": k,
                        "geometry": config.geometry.label,
                        "power_gated": config.power_gated,
                        "utilization": estimate.utilization,
                    }
                )
        return records

    def geometry_map(
        self, m_sizes: Sequence[int], n_sizes: Sequence[int], k: int = 16384
    ) -> Dict[str, List[tuple]]:
        """Group the reverse-engineered grid by geometry label."""
        grouped: Dict[str, List[tuple]] = {}
        for record in self.reverse_engineer_mme(m_sizes, n_sizes, k):
            grouped.setdefault(record["geometry"], []).append(
                (record["m"], record["n"])
            )
        return grouped
