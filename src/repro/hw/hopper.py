"""H100 (Hopper) backend: tile-based tensor-core GEMM.

The third contender of the N-way comparison.  The spec sheet follows
the public H100 SXM5 numbers, and the GEMM model follows the tile-based
execution model evaluated in "Evaluating CUDA Tile for AI Workloads on
Hopper and Blackwell GPUs" (PAPERS.md): a GEMM is a grid of *tiles*
processed by warpgroup MMA instructions, with three Hopper-specific
departures from the A100's CTA-wave model
(:mod:`repro.hw.tensorcore`):

* **TMA bulk copies** -- the Tensor Memory Accelerator streams operand
  tiles asynchronously in 128 B boxes, hiding most of the per-tile
  prologue (a far smaller fixed tile overhead) and keeping skinny
  GEMMs close to streaming DRAM efficiency;
* **thread-block clusters** -- pairs of tiles share operand fetches
  through distributed shared memory, shaving a fixed fraction of the
  off-chip operand traffic;
* **stream-K tail scheduling** -- the persistent tile scheduler splits
  the K-dimension of the tail tiles across otherwise-idle SMs, so the
  last partial wave costs ``rem/SMs`` of a wave rather than a full
  one.  This softens the wave-quantization cliff that governs A100
  utilization at awkward shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from repro.hw.device import Device, MatmulResult
from repro.hw.spec import (
    GIGA,
    GIB,
    MIB,
    TERA,
    DeviceSpec,
    DType,
    InterconnectSpec,
    MatrixEngineSpec,
    MemorySpec,
    PowerSpec,
    VectorEngineSpec,
    register_spec,
)
from repro.hw.systolic import blocked_gemm_traffic, blocked_gemm_traffic_row

#: Warpgroup-MMA tile shapes the tile compiler chooses from,
#: ``(tile_m, tile_n)`` -- the Hopper CUTLASS/CUDA-Tile kernel set.
DEFAULT_TILE_SHAPES: Sequence[Tuple[int, int]] = (
    (128, 256),
    (256, 128),
    (256, 64),
    (64, 256),
    (128, 128),
    (128, 64),
    (64, 128),
    (64, 64),
)

#: TMA box granularity, bytes (the async bulk-copy unit).
TMA_BOX_BYTES = 128

#: Tile pipeline efficiency: wgmma issue + epilogue on top of TMA
#: prefetch; Hopper's async pipeline sits a couple of points above the
#: A100's 0.91 in the CUDA-Tile measurements.
TILE_PIPELINE_EFFICIENCY = 0.93

#: MACs one SM retires per clock through warpgroup MMA (BF16).
_MACS_PER_SM = 2048

#: Fixed per-tile cycles not hidden by TMA (mainbody entry, epilogue).
_TILE_OVERHEAD_CYCLES = 40

#: Extra cycles of the stream-K fixup reduction when a tail exists.
_STREAMK_FIXUP_CYCLES = 24

#: Fraction of operand traffic a cluster of two tiles shares through
#: distributed shared memory.
_CLUSTER_REUSE = 0.12

#: DRAM-efficiency derate for skinny (GEMV-like) shapes; TMA keeps the
#: penalty well below the A100's 0.88 factor.
_SKINNY_EFFICIENCY = 0.95


def _h100_spec() -> DeviceSpec:
    sm_count = 132
    tc_peak_bf16 = 989.5 * TERA
    macs = sm_count * _MACS_PER_SM
    sm_clock = tc_peak_bf16 / (2.0 * macs)
    simd_peak_fp32 = 67 * TERA
    return DeviceSpec(
        name="H100",
        vendor="NVIDIA",
        process_node="TSMC 4N",
        matrix=MatrixEngineSpec(
            name="Tensor Cores (Hopper)",
            # FP32 matmuls route through the TF32 tensor-core path.
            peak_flops={
                DType.BF16: tc_peak_bf16,
                DType.FP16: tc_peak_bf16,
                DType.FP32: 494.7 * TERA,
                DType.INT8: 2.0 * tc_peak_bf16,
            },
            total_macs=macs,
            clock_hz=sm_clock,
            configurable=False,
        ),
        vector=VectorEngineSpec(
            name="SIMD Cores (Hopper)",
            peak_flops={
                DType.BF16: 2.0 * simd_peak_fp32,
                DType.FP16: 2.0 * simd_peak_fp32,
                DType.FP32: simd_peak_fp32,
                DType.INT8: 4.0 * simd_peak_fp32,
            },
            num_cores=sm_count,
            clock_hz=sm_clock,
            simd_width_bits=2048,
            instruction_latency=4,
            # TMA-fed SMs sustain more streaming bandwidth per core than
            # A100's LDG path; ~30 SMs saturate HBM3.
            per_core_stream_bw=110 * GIGA,
            max_outstanding_loads=384,
            random_load_latency=450,
        ),
        memory=MemorySpec(
            hbm_type="HBM3",
            capacity_bytes=80 * GIB,
            bandwidth=3.35 * TERA,
            min_access_bytes=32,
            stream_efficiency=0.92,
            stream_conflict_penalty=0.03,
            random_efficiency=0.72,
            # More LSU/TMA concurrency than A100: transaction-rate
            # limited only below ~64 B.
            max_random_transactions=20e9,
            sram_bytes=50 * MIB,
            sram_is_cache=True,
            scatter_rmw=False,
        ),
        interconnect=InterconnectSpec(
            kind="switch",
            per_device_bandwidth=450 * GIGA,
            links_per_pair=0,
            link_bandwidth=25 * GIGA,
            base_latency=1.3e-6,
            protocol_efficiency=0.78,
        ),
        power=PowerSpec(
            tdp_watts=700.0,
            idle_watts=100.0,
            matrix_watts=300.0,
            vector_watts=60.0,
            memory_watts=180.0,
            comm_watts=60.0,
            matrix_power_gating=False,
        ),
        kernel_launch_overhead=4e-6,
        graph_dispatch_overhead=10e-6,
    )


H100_SPEC: DeviceSpec = _h100_spec()
register_spec("h100", H100_SPEC)


@dataclass(frozen=True)
class TileEstimate:
    """Performance estimate of one GEMM under the tile model."""

    m: int
    k: int
    n: int
    dtype: DType
    time: float
    achieved_flops: float
    utilization: float
    tile: Tuple[int, int]
    #: Fractional waves: full waves plus the stream-K smoothed tail.
    waves: float
    memory_bound: bool


class TileGemmModel:
    """Tile-based tensor-core GEMM model (Hopper / CUDA Tile)."""

    def __init__(
        self,
        spec: DeviceSpec = H100_SPEC,
        tile_shapes: Sequence[Tuple[int, int]] = DEFAULT_TILE_SHAPES,
    ) -> None:
        self.spec = spec
        self.tile_shapes = list(tile_shapes)
        self.sm_count = spec.vector.num_cores
        self.clock_hz = spec.matrix.clock_hz

    # ------------------------------------------------------------------
    def _tile_cycles(self, tile: Tuple[int, int], k: int) -> float:
        tm, tn = tile
        return (tm * tn * k) / _MACS_PER_SM + _TILE_OVERHEAD_CYCLES

    def _grid_cycles(self, tile: Tuple[int, int], tiles: int, k: int) -> float:
        """Cycles for ``tiles`` output tiles under stream-K scheduling:
        full waves plus a fractional tail (plus its fixup reduction)."""
        full, rem = divmod(tiles, self.sm_count)
        waves = full + rem / self.sm_count
        cycles = waves * self._tile_cycles(tile, k)
        if rem:
            cycles += _STREAMK_FIXUP_CYCLES
        return cycles

    def _compute_time(
        self, tile: Tuple[int, int], m: int, k: int, n: int, batch: int = 1
    ) -> float:
        tm, tn = tile
        tiles = batch * math.ceil(m / tm) * math.ceil(n / tn)
        cycles = self._grid_cycles(tile, tiles, k)
        return cycles / (self.clock_hz * TILE_PIPELINE_EFFICIENCY)

    def _memory_time(self, m: int, k: int, n: int, dtype: DType) -> float:
        traffic = blocked_gemm_traffic(
            m, k, n, dtype.itemsize, self.spec.memory.sram_bytes
        )
        # Cluster pairs share operand fetches through distributed
        # shared memory; TMA moves whole boxes either way.
        traffic = max(traffic * (1.0 - _CLUSTER_REUSE), TMA_BOX_BYTES)
        efficiency = self.spec.memory.stream_efficiency
        if min(m, n) < 128:
            efficiency *= _SKINNY_EFFICIENCY
        return traffic / (self.spec.memory.bandwidth * efficiency)

    # ------------------------------------------------------------------
    def select_tile(self, m: int, k: int, n: int) -> Tuple[int, int]:
        """The tile shape the tile compiler's heuristic would pick."""
        return min(
            self.tile_shapes,
            key=lambda tile: self._compute_time(tile, m, k, n),
        )

    def _estimate(
        self, batch: int, m: int, k: int, n: int, dtype: DType
    ) -> TileEstimate:
        tile = self.select_tile(m, k, n)
        dtype_scale = self.spec.matrix.peak(dtype) / self.spec.matrix.peak(DType.BF16)
        compute_time = self._compute_time(tile, m, k, n, batch) / dtype_scale
        memory_time = batch * self._memory_time(m, k, n, dtype)
        time = max(compute_time, memory_time)
        flops = 2.0 * batch * m * k * n
        achieved = flops / time
        tm, tn = tile
        tiles = batch * math.ceil(m / tm) * math.ceil(n / tn)
        full, rem = divmod(tiles, self.sm_count)
        return TileEstimate(
            m=m,
            k=k,
            n=n,
            dtype=dtype,
            time=time,
            achieved_flops=achieved,
            utilization=achieved / self.spec.matrix.peak(dtype),
            tile=tile,
            waves=full + rem / self.sm_count,
            memory_bound=memory_time > compute_time,
        )

    def gemm(self, m: int, k: int, n: int, dtype: DType = DType.BF16) -> TileEstimate:
        if min(m, k, n) <= 0:
            raise ValueError(f"GEMM dims must be positive, got {(m, k, n)}")
        return self._estimate(1, m, k, n, dtype)

    def gemm_time(self, m: int, k: int, n: int, dtype: DType = DType.BF16) -> float:
        return self.gemm(m, k, n, dtype).time

    def row(
        self, k: int, n: int, dtype: DType = DType.BF16
    ) -> Callable[[int], Tuple[float, float]]:
        """:meth:`gemm` with ``m`` left free, as ``price(m) -> (time,
        1.0)`` without building result objects.

        Every tile height is a multiple of their gcd ``g``, so the tile
        search and the stream-K grid depend on ``m`` only through
        ``ceil(m / g)`` (as in ``TensorCoreModel.row``): the row
        tabulates the compute time per class and evaluates the memory
        term per ``m`` -- cluster reuse, the TMA box floor and the
        skinny-shape derate.  Bit-identical to :meth:`gemm`.
        """
        if min(k, n) <= 0:
            raise ValueError(f"GEMM dims must be positive, got {(k, n)}")
        grain = math.gcd(*(tm for tm, _ in self.tile_shapes))
        dtype_scale = self.spec.matrix.peak(dtype) / self.spec.matrix.peak(DType.BF16)
        traffic = blocked_gemm_traffic_row(
            k, n, dtype.itemsize, self.spec.memory.sram_bytes
        )
        memory = self.spec.memory
        reuse = 1.0 - _CLUSTER_REUSE
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
            moved = max(traffic(m) * reuse, TMA_BOX_BYTES)
            bw = skinny_bw if narrow_n or m < 128 else wide_bw
            return max(compute_time, moved / bw), 1.0

        return price

    def batched_gemm(
        self, batch: int, m: int, k: int, n: int, dtype: DType = DType.BF16
    ) -> TileEstimate:
        """Batched GEMM: the batch dimension extends the tile grid."""
        if batch <= 0:
            raise ValueError("batch must be positive")
        if min(m, k, n) <= 0:
            raise ValueError(f"GEMM dims must be positive, got {(m, k, n)}")
        return self._estimate(batch, m, k, n, dtype)


class H100Device(Device):
    """NVIDIA H100: tile-scheduled Tensor Cores + 132 SMs."""

    family = "cuda"
    decode_attention = "paged-cuda"
    smi_style = "nvidia-smi"
    #: FlashAttention-3 (TMA + warp specialization) sustains a larger
    #: fraction of peak than FA-2 on A100 (0.55).
    attention_efficiency = 0.62

    def __init__(self, spec: DeviceSpec = H100_SPEC) -> None:
        super().__init__(spec)
        self.tile_gemm = TileGemmModel(spec)

    def _gemm_uncached(
        self, m: int, k: int, n: int, dtype: DType, batch: int
    ) -> MatmulResult:
        estimate = (
            self.tile_gemm.gemm(m, k, n, dtype)
            if batch == 1
            else self.tile_gemm.batched_gemm(batch, m, k, n, dtype)
        )
        tm, tn = estimate.tile
        return MatmulResult(
            m=m,
            k=k,
            n=n,
            batch=batch,
            dtype=dtype,
            time=estimate.time,
            achieved_flops=estimate.achieved_flops,
            utilization=estimate.utilization,
            memory_bound=estimate.memory_bound,
            active_mac_fraction=1.0,
            config_label=f"Tile {tm}x{tn}+TMA, {estimate.waves:.2f} waves",
        )

    def _gemm_row_uncached(self, k, n, dtype):
        # A subclass that re-prices GEMMs keeps the generic row.
        if type(self)._gemm_uncached is not H100Device._gemm_uncached:
            return super()._gemm_row_uncached(k, n, dtype)
        return self.tile_gemm.row(k, n, dtype)
