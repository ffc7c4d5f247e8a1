"""A100 Tensor Core GEMM model.

cuBLAS executes a GEMM as a grid of CTA tiles; each of the 108 SMs
processes one CTA tile at a time, so the grid executes in *waves* of up
to 108 tiles.  Two quantization effects therefore govern utilization:

* **tile quantization** -- partial tiles at the M/N edges waste MACs;
* **wave quantization** -- a grid of, say, 256 tiles takes 3 waves on
  108 SMs, leaving the last wave mostly idle.

Unlike the Gaudi MME, the tiling is *not* reconfigurable to arbitrary
geometries: cuBLAS picks the best kernel from a small set of CTA tile
shapes, which is what keeps A100's utilization below Gaudi-2's for
awkward shapes (Figures 4, 5 of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from repro.hw.spec import A100_SPEC, DeviceSpec, DType
from repro.hw.systolic import blocked_gemm_traffic, blocked_gemm_traffic_row

#: CTA tile shapes cuBLAS chooses from, (tile_m, tile_n).
DEFAULT_CTA_TILES: Sequence[Tuple[int, int]] = (
    (256, 128),
    (128, 256),
    (128, 128),
    (128, 64),
    (64, 128),
    (64, 64),
)

#: Tensor Core pipeline efficiency (instruction issue, epilogue, sync
#: overheads); calibrated so large square GEMMs land around 90 % of
#: peak, a few points below Gaudi-2 as measured in Figure 5.
TC_PIPELINE_EFFICIENCY = 0.91

#: MACs one SM retires per clock with Tensor Cores (BF16).
_MACS_PER_SM = 1024

#: DRAM-efficiency derate for skinny (GEMV-like) shapes, ``min(m, n)
#: < 128`` (see ``TensorCoreModel._memory_time``).
_SKINNY_EFFICIENCY = 0.88

#: Fixed per-tile prologue/epilogue cost in cycles (smem staging,
#: fragment load/store); dominates tiny-K tiles.
_TILE_OVERHEAD_CYCLES = 96


@dataclass(frozen=True)
class TcEstimate:
    """Performance estimate for one GEMM execution on Tensor Cores."""

    m: int
    k: int
    n: int
    dtype: DType
    time: float
    achieved_flops: float
    utilization: float
    tile: Tuple[int, int]
    waves: int
    memory_bound: bool


class TensorCoreModel:
    """Performance model of A100 Tensor Core GEMM execution."""

    def __init__(
        self,
        spec: DeviceSpec = A100_SPEC,
        cta_tiles: Sequence[Tuple[int, int]] = DEFAULT_CTA_TILES,
    ) -> None:
        self.spec = spec
        self.cta_tiles = list(cta_tiles)
        self.sm_count = spec.vector.num_cores
        self.clock_hz = spec.matrix.clock_hz

    # ------------------------------------------------------------------
    def _tile_cycles(self, tile: Tuple[int, int], k: int) -> float:
        tm, tn = tile
        mac_cycles = (tm * tn * k) / _MACS_PER_SM
        return mac_cycles + _TILE_OVERHEAD_CYCLES

    def _compute_time(self, tile: Tuple[int, int], m: int, k: int, n: int) -> float:
        tm, tn = tile
        tiles = math.ceil(m / tm) * math.ceil(n / tn)
        waves = math.ceil(tiles / self.sm_count)
        cycles = waves * self._tile_cycles(tile, k)
        return cycles / (self.clock_hz * TC_PIPELINE_EFFICIENCY)

    def _memory_time(self, m: int, k: int, n: int, dtype: DType) -> float:
        # Operand panels are blocked through the 40 MB L2, exactly like
        # the Gaudi graph compiler blocks through its shared SRAM.
        traffic = blocked_gemm_traffic(
            m, k, n, dtype.itemsize, self.spec.memory.sram_bytes
        )
        efficiency = self.spec.memory.stream_efficiency
        # Skinny (GEMV-like) shapes stream the big operand through CTA
        # tiles narrower than a full DRAM burst pattern; measured cuBLAS
        # decode-GEMM bandwidth sits well below STREAM levels.  This is
        # the flip side of the reconfigurable-MME advantage the paper
        # credits for Gaudi-2's decode speedups (Section 3.5).
        if min(m, n) < 128:
            efficiency *= _SKINNY_EFFICIENCY
        bw = self.spec.memory.bandwidth * efficiency
        return traffic / bw

    # ------------------------------------------------------------------
    def select_tile(self, m: int, k: int, n: int) -> Tuple[int, int]:
        """Pick the CTA tile cuBLAS's heuristic would choose."""
        return min(
            self.cta_tiles,
            key=lambda tile: self._compute_time(tile, m, k, n),
        )

    def gemm(self, m: int, k: int, n: int, dtype: DType = DType.BF16) -> TcEstimate:
        if min(m, k, n) <= 0:
            raise ValueError(f"GEMM dims must be positive, got {(m, k, n)}")
        tile = self.select_tile(m, k, n)
        dtype_scale = self.spec.matrix.peak(dtype) / self.spec.matrix.peak(DType.BF16)
        compute_time = self._compute_time(tile, m, k, n) / dtype_scale
        memory_time = self._memory_time(m, k, n, dtype)
        time = max(compute_time, memory_time)
        flops = 2.0 * m * k * n
        achieved = flops / time
        tm, tn = tile
        tiles = math.ceil(m / tm) * math.ceil(n / tn)
        return TcEstimate(
            m=m,
            k=k,
            n=n,
            dtype=dtype,
            time=time,
            achieved_flops=achieved,
            utilization=achieved / self.spec.matrix.peak(dtype),
            tile=tile,
            waves=math.ceil(tiles / self.sm_count),
            memory_bound=memory_time > compute_time,
        )

    def gemm_time(self, m: int, k: int, n: int, dtype: DType = DType.BF16) -> float:
        return self.gemm(m, k, n, dtype).time

    def row(
        self, k: int, n: int, dtype: DType = DType.BF16
    ) -> Callable[[int], Tuple[float, float]]:
        """:meth:`gemm` with ``m`` left free, as ``price(m) -> (time,
        1.0)`` without building result objects.

        Every tile height is a multiple of their gcd ``g``, and
        ``ceil(m / tm) == ceil(ceil(m / g) / (tm / g))``, so the tile
        search and the compute time depend on ``m`` only through
        ``ceil(m / g)``: the row tabulates them per class and evaluates
        the memory term (with its skinny-shape derate) per ``m``.
        Bit-identical to :meth:`gemm`.
        """
        if min(k, n) <= 0:
            raise ValueError(f"GEMM dims must be positive, got {(k, n)}")
        grain = math.gcd(*(tm for tm, _ in self.cta_tiles))
        dtype_scale = self.spec.matrix.peak(dtype) / self.spec.matrix.peak(DType.BF16)
        traffic = blocked_gemm_traffic_row(
            k, n, dtype.itemsize, self.spec.memory.sram_bytes
        )
        memory = self.spec.memory
        wide_bw = memory.bandwidth * memory.stream_efficiency
        skinny_bw = memory.bandwidth * (memory.stream_efficiency * _SKINNY_EFFICIENCY)
        narrow_n = n < 128
        table: Dict[int, float] = {}

        def price(m: int) -> Tuple[float, float]:
            compute_time = table.get(-(-m // grain))
            if compute_time is None:
                if m <= 0:
                    raise ValueError(f"GEMM dims must be positive, got {(m, k, n)}")
                tile = self.select_tile(m, k, n)
                compute_time = table[-(-m // grain)] = (
                    self._compute_time(tile, m, k, n) / dtype_scale
                )
            bw = skinny_bw if narrow_n or m < 128 else wide_bw
            return max(compute_time, traffic(m) / bw), 1.0

        return price

    def batched_gemm(
        self, batch: int, m: int, k: int, n: int, dtype: DType = DType.BF16
    ) -> TcEstimate:
        """Batched GEMM: the batch dimension fills SM waves."""
        if batch <= 0:
            raise ValueError("batch must be positive")
        tile = self.select_tile(m, k, n)
        tm, tn = tile
        tiles = batch * math.ceil(m / tm) * math.ceil(n / tn)
        waves = math.ceil(tiles / self.sm_count)
        dtype_scale = self.spec.matrix.peak(dtype) / self.spec.matrix.peak(DType.BF16)
        compute_time = (
            waves
            * self._tile_cycles(tile, k)
            / (self.clock_hz * TC_PIPELINE_EFFICIENCY * dtype_scale)
        )
        memory_time = batch * self._memory_time(m, k, n, dtype)
        time = max(compute_time, memory_time)
        flops = 2.0 * batch * m * k * n
        achieved = flops / time
        return TcEstimate(
            m=m,
            k=k,
            n=n,
            dtype=dtype,
            time=time,
            achieved_flops=achieved,
            utilization=achieved / self.spec.matrix.peak(dtype),
            tile=tile,
            waves=waves,
            memory_bound=memory_time > compute_time,
        )
