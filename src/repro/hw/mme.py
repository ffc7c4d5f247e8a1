"""Gaudi-2 Matrix Multiplication Engine (MME) model.

The MME is modelled as a pool of ``2 x 256 x 256`` MAC units that the
graph compiler reshapes at kernel-launch time into one of a fixed set of
output-stationary geometries (Section 2.1 and Figure 6(b) of the
paper).  Figure 7(a)'s reverse engineering shows two families:

* *full-array* geometries that use all 131,072 MACs -- the native
  ``256x256x2`` pair plus merged shapes such as ``512x256`` and
  ``1024x128``; and
* *power-gated* geometries (gray in Figure 7(a)) that activate only a
  subset of the array for small GEMMs, trading peak throughput for
  energy.

The GEMM time model additionally applies a memory-bandwidth bound from
the SRAM-blocked tiling traffic (:func:`repro.hw.systolic.blocked_gemm_traffic`)
so tall-skinny "irregular" GEMMs come out memory bound, as in the
roofline of Figure 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.memo import CostCache
from repro.hw.spec import DeviceSpec, DType, GAUDI2_SPEC
from repro.hw.systolic import (
    SystolicArray,
    SystolicGeometry,
    best_geometry,
    blocked_gemm_traffic,
    blocked_gemm_traffic_row,
)

#: Geometry set recovered from Figure 7(a).  Full-array shapes first,
#: then the power-gated subsets used for small GEMMs.
DEFAULT_GEOMETRIES: Sequence[SystolicGeometry] = (
    SystolicGeometry(256, 256, 2),
    SystolicGeometry(512, 256, 1),
    SystolicGeometry(256, 512, 1),
    SystolicGeometry(1024, 128, 1),
    SystolicGeometry(128, 1024, 1),
    SystolicGeometry(2048, 64, 1),
    SystolicGeometry(64, 2048, 1),
    SystolicGeometry(4096, 32, 1),
    SystolicGeometry(32, 4096, 1),
    # Power-gated subsets (gray configurations in Figure 7(a)).
    SystolicGeometry(256, 256, 1),
    SystolicGeometry(512, 128, 1),
    SystolicGeometry(128, 512, 1),
    SystolicGeometry(128, 256, 1),
    SystolicGeometry(256, 128, 1),
    SystolicGeometry(128, 128, 1),
    SystolicGeometry(64, 128, 1),
    SystolicGeometry(128, 64, 1),
    SystolicGeometry(64, 64, 1),
)

#: Fixed pipeline/dispatch efficiency of the MME datapath; calibrated to
#: the 99.3 % peak utilization the paper measures at M=K=N=8192.
MME_PIPELINE_EFFICIENCY = 0.997


@dataclass(frozen=True)
class MmeConfig:
    """The configuration the compiler chose for one GEMM."""

    geometry: SystolicGeometry
    compute_time: float
    memory_time: float

    @property
    def time(self) -> float:
        return max(self.compute_time, self.memory_time)

    @property
    def memory_bound(self) -> bool:
        return self.memory_time > self.compute_time

    @property
    def power_gated(self) -> bool:
        return self.geometry.active_macs < GAUDI2_SPEC.matrix.total_macs


@dataclass(frozen=True)
class GemmEstimate:
    """Performance estimate for one GEMM execution."""

    m: int
    k: int
    n: int
    dtype: DType
    time: float
    achieved_flops: float
    utilization: float
    config_label: str
    memory_bound: bool
    active_mac_fraction: float


class MmeModel:
    """Performance model of the reconfigurable Gaudi-2 MME."""

    def __init__(
        self,
        spec: DeviceSpec = GAUDI2_SPEC,
        geometries: Sequence[SystolicGeometry] = DEFAULT_GEOMETRIES,
        configurable: Optional[bool] = None,
    ) -> None:
        self.spec = spec
        self._configurable = (
            spec.matrix.configurable if configurable is None else configurable
        )
        if self._configurable:
            self.geometries: List[SystolicGeometry] = list(geometries)
        else:
            # The Figure 7(c) baseline: a fixed, non-configurable
            # 256x256x2 output-stationary array with the same peak.
            self.geometries = [SystolicGeometry(256, 256, 2)]
        # The geometry search sees m and n only through ceil(m / h) and
        # ceil(n / w) per geometry.  Every height and width is a
        # multiple of the set's gcd, and ceil(m / (g * a)) ==
        # ceil(ceil(m / g) / a), so shapes with equal ceil(m / g_h),
        # ceil(n / g_w), k and dtype pick the same geometry in the same
        # cycles: the search memoizes on that quotient class.
        self._tile_h = math.gcd(*(geo.height for geo in self.geometries))
        self._tile_w = math.gcd(*(geo.width for geo in self.geometries))
        self._config_cache = CostCache(f"mme.select_config[{spec.name}]", maxsize=8192)

    # ------------------------------------------------------------------
    def select_config(self, m: int, k: int, n: int, dtype: DType = DType.BF16) -> MmeConfig:
        """Choose the geometry the graph compiler would pick.

        The compiler minimizes compute cycles, breaking ties toward the
        configuration with fewer active MACs (power gating).
        """
        geo, compute_time = self._class_search(m, k, n, dtype)
        # The memory term depends on the exact shape, not its class.
        traffic = blocked_gemm_traffic(
            m, k, n, dtype.itemsize, self.spec.memory.sram_bytes
        )
        mem_bw = self.spec.memory.bandwidth * self.spec.memory.stream_efficiency
        return MmeConfig(geometry=geo, compute_time=compute_time, memory_time=traffic / mem_bw)

    def _class_search(
        self, m: int, k: int, n: int, dtype: DType
    ) -> Tuple[SystolicGeometry, float]:
        """:meth:`_search_geometry` memoized on the shape's quotient
        class."""
        key = (-(-m // self._tile_h), k, -(-n // self._tile_w), dtype)
        search = self._config_cache.get(key)
        if search is None:
            search = self._search_geometry(m, k, n, dtype)
            self._config_cache.put(key, search)
        return search

    def _search_geometry(
        self, m: int, k: int, n: int, dtype: DType
    ) -> Tuple[SystolicGeometry, float]:
        """(geometry, compute seconds) of the compiler's pick."""
        geo, timing = best_geometry(self.geometries, m, k, n)
        clock = self.spec.matrix.clock_hz
        dtype_scale = self.spec.matrix.peak(dtype) / self.spec.matrix.peak(DType.BF16)
        return geo, timing.cycles / (clock * MME_PIPELINE_EFFICIENCY * dtype_scale)

    def gemm(self, m: int, k: int, n: int, dtype: DType = DType.BF16) -> GemmEstimate:
        """Estimate one GEMM's execution time and utilization."""
        config = self.select_config(m, k, n, dtype)
        flops = 2.0 * m * k * n
        time = config.time
        achieved = flops / time
        utilization = achieved / self.spec.matrix.peak(dtype)
        return GemmEstimate(
            m=m,
            k=k,
            n=n,
            dtype=dtype,
            time=time,
            achieved_flops=achieved,
            utilization=utilization,
            config_label=config.geometry.label,
            memory_bound=config.memory_bound,
            active_mac_fraction=(
                config.geometry.active_macs / self.spec.matrix.total_macs
            ),
        )

    def gemm_time(self, m: int, k: int, n: int, dtype: DType = DType.BF16) -> float:
        return self.gemm(m, k, n, dtype).time

    def row(
        self, k: int, n: int, dtype: DType = DType.BF16
    ) -> Callable[[int], Tuple[float, float]]:
        """:meth:`gemm` with ``m`` left free, as ``price(m) -> (time,
        active_mac_fraction)`` without building result objects.

        The row keeps its own table of the geometry search per
        ``ceil(m / tile_h)`` class (see ``__init__``); only the memory
        term is evaluated per ``m``.  Bit-identical to :meth:`gemm`.
        """
        traffic = blocked_gemm_traffic_row(
            k, n, dtype.itemsize, self.spec.memory.sram_bytes
        )
        mem_bw = self.spec.memory.bandwidth * self.spec.memory.stream_efficiency
        total_macs = self.spec.matrix.total_macs
        tile_h = self._tile_h
        table: Dict[int, Tuple[float, float]] = {}

        def price(m: int) -> Tuple[float, float]:
            entry = table.get(-(-m // tile_h))
            if entry is None:
                geo, compute_time = self._class_search(m, k, n, dtype)
                entry = table[-(-m // tile_h)] = (
                    compute_time, geo.active_macs / total_macs
                )
            compute_time, fraction = entry
            return max(compute_time, traffic(m) / mem_bw), fraction

        return price

    # ------------------------------------------------------------------
    def fixed_array_utilization(self, m: int, k: int, n: int) -> float:
        """Utilization of the non-configurable baseline (Figure 7(c)).

        Same peak FLOPS, but the geometry is pinned to ``256x256x2``.
        """
        array = SystolicArray(SystolicGeometry(256, 256, 2), self.spec.matrix.clock_hz)
        return (
            array.utilization(m, k, n, self.spec.matrix.total_macs)
            * MME_PIPELINE_EFFICIENCY
        )

    def batched_gemm(
        self, batch: int, m: int, k: int, n: int, dtype: DType = DType.BF16
    ) -> GemmEstimate:
        """Batched GEMM: independent problems fill the tile pipeline.

        The graph compiler flattens a batched GEMM into a stream of
        tiles, so the fill cost is paid once and M is effectively
        ``batch * m`` for utilization purposes (each problem still tiles
        separately in M).
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        config = self.select_config(m, k, n, dtype)
        geo = config.geometry
        tiles = batch * math.ceil(m / geo.height) * math.ceil(n / geo.width)
        passes = math.ceil(tiles / geo.engines)
        cycles = passes * k + geo.height + geo.width
        clock = self.spec.matrix.clock_hz
        dtype_scale = self.spec.matrix.peak(dtype) / self.spec.matrix.peak(DType.BF16)
        compute_time = cycles / (clock * MME_PIPELINE_EFFICIENCY * dtype_scale)
        traffic = batch * blocked_gemm_traffic(
            m, k, n, dtype.itemsize, self.spec.memory.sram_bytes
        )
        mem_bw = self.spec.memory.bandwidth * self.spec.memory.stream_efficiency
        time = max(compute_time, traffic / mem_bw)
        flops = 2.0 * batch * m * k * n
        achieved = flops / time
        return GemmEstimate(
            m=m,
            k=k,
            n=n,
            dtype=dtype,
            time=time,
            achieved_flops=achieved,
            utilization=achieved / self.spec.matrix.peak(dtype),
            config_label=geo.label,
            memory_bound=traffic / mem_bw > compute_time,
            active_mac_fraction=geo.active_macs / self.spec.matrix.total_macs,
        )
