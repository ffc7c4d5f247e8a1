"""Device specification sheets (Table 1 of the paper).

The specs below are taken verbatim from Table 1 of the paper, plus the
microarchitectural parameters documented in Section 2 (SIMD width,
local-memory sizes, access granularities, link counts).  Everything a
component model needs is threaded through :class:`DeviceSpec` so the
models never reach for magic numbers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

GIGA = 1e9
TERA = 1e12
KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


class DType(enum.Enum):
    """Numeric data types used by the evaluated workloads; ``itemsize``
    (bytes per element) is a plain attribute set once per member."""

    itemsize: int

    def __new__(cls, value: str, itemsize: int) -> "DType":
        member = object.__new__(cls)
        member._value_ = value
        member.itemsize = itemsize
        return member

    BF16 = "bf16", 2
    FP16 = "fp16", 2
    FP32 = "fp32", 4
    INT8 = "int8", 1


@dataclass(frozen=True)
class MatrixEngineSpec:
    """Spec of a matrix-multiply engine (MME or Tensor Cores)."""

    name: str
    peak_flops: Dict[DType, float]
    #: Number of physical MAC units (for the MME: 2 x 256 x 256).
    total_macs: int
    #: Engine clock in Hz, derived so that ``2 * total_macs * clock``
    #: equals the BF16 peak.
    clock_hz: float
    #: True if the systolic geometry can be reconfigured at runtime.
    configurable: bool

    def peak(self, dtype: DType = DType.BF16) -> float:
        return self.peak_flops[dtype]


@dataclass(frozen=True)
class VectorEngineSpec:
    """Spec of the programmable vector engine (TPCs or SIMD cores)."""

    name: str
    #: Peak FLOPS assuming fused multiply-accumulate instructions.
    peak_flops: Dict[DType, float]
    num_cores: int
    clock_hz: float
    #: SIMD register width in bits (2048 for the TPC).
    simd_width_bits: int
    #: Architectural instruction latency in cycles (4 for the TPC).
    instruction_latency: int
    #: Sustained streaming memory bandwidth of a single core, bytes/s.
    #: For the TPC this is the per-core DMA/load-port limit that makes
    #: STREAM saturate chip bandwidth at 11-15 TPCs (Figure 8(c)).
    per_core_stream_bw: float
    #: Maximum outstanding random (gather) accesses per core.
    max_outstanding_loads: int
    #: Average random-access (HBM) load latency in cycles.
    random_load_latency: int

    def lanes(self, dtype: DType) -> int:
        """Number of SIMD lanes for ``dtype``."""
        return self.simd_width_bits // (8 * dtype.itemsize)

    def peak(self, dtype: DType = DType.BF16) -> float:
        return self.peak_flops[dtype]


@dataclass(frozen=True)
class MemorySpec:
    """Spec of the off-chip memory subsystem."""

    hbm_type: str
    capacity_bytes: int
    bandwidth: float
    #: Minimum useful off-chip access granularity in bytes
    #: (256 B on Gaudi-2, 32 B sectors on A100).
    min_access_bytes: int
    #: Base DRAM efficiency for fully streaming access patterns.
    stream_efficiency: float
    #: Extra efficiency loss per concurrent stream beyond two
    #: (row-buffer conflicts; calibrated from Figure 8(c)).
    stream_conflict_penalty: float
    #: DRAM efficiency for random accesses at/above the granularity.
    random_efficiency: float
    #: Cap on random transactions per second (TLB/row activation limit;
    #: what separates A100 from pure sector arithmetic in Figure 9).
    max_random_transactions: float
    #: On-chip SRAM (shared memory on Gaudi, L2 on A100), bytes.
    sram_bytes: int
    #: Whether the SRAM acts as a transparent cache for global loads
    #: (True for A100's L2, False for Gaudi's compiler-managed SRAM).
    sram_is_cache: bool
    #: Random writes below the granularity need read-modify-write.
    scatter_rmw: bool


@dataclass(frozen=True)
class InterconnectSpec:
    """Spec of the intra-node interconnect."""

    kind: str  # "p2p-mesh" or "switch"
    #: Per-device aggregate injection bandwidth, bytes/s per direction.
    per_device_bandwidth: float
    #: For a P2P mesh: number of links and per-link bandwidth.
    links_per_pair: int
    link_bandwidth: float
    #: Base latency of one transfer, seconds.
    base_latency: float
    #: Protocol efficiency of the collective library on this fabric.
    protocol_efficiency: float


@dataclass(frozen=True)
class PowerSpec:
    """Activity-based power decomposition (sums to roughly the TDP)."""

    tdp_watts: float
    idle_watts: float
    matrix_watts: float
    vector_watts: float
    memory_watts: float
    #: Interconnect PHY power while collectives are in flight (NVLink
    #: SerDes + NVSwitch share on A100; RoCE NICs on Gaudi-2).
    comm_watts: float
    #: Whether unused parts of the matrix engine are power gated when a
    #: small geometry is configured (Figure 7(a), gray configs).
    matrix_power_gating: bool


@dataclass(frozen=True)
class DeviceSpec:
    """Complete spec sheet of one device (one column of Table 1)."""

    name: str
    vendor: str
    process_node: str
    matrix: MatrixEngineSpec
    vector: VectorEngineSpec
    memory: MemorySpec
    interconnect: InterconnectSpec
    power: PowerSpec
    #: Fixed host-side kernel-launch overhead, seconds.
    kernel_launch_overhead: float
    #: Extra per-step overhead of graph (re)build / runtime dispatch for
    #: shape-specialized compiled graphs, seconds.
    graph_dispatch_overhead: float

    def peak_matrix_flops(self, dtype: DType = DType.BF16) -> float:
        return self.matrix.peak(dtype)

    def peak_vector_flops(self, dtype: DType = DType.BF16) -> float:
        return self.vector.peak(dtype)


def _gaudi2_spec() -> DeviceSpec:
    mme_macs = 2 * 256 * 256
    mme_peak_bf16 = 432 * TERA
    mme_clock = mme_peak_bf16 / (2.0 * mme_macs)
    tpc_peak_bf16 = 11 * TERA
    tpc_cores = 24
    tpc_clock = tpc_peak_bf16 / (tpc_cores * 2.0 * (2048 // 16))
    return DeviceSpec(
        name="Gaudi-2",
        vendor="Intel",
        process_node="TSMC 7nm",
        matrix=MatrixEngineSpec(
            name="MME",
            # FP32 runs through the MME at a quarter of the BF16 rate
            # (two-pass split-mantissa accumulation); Table 1 lists
            # only BF16.
            peak_flops={
                DType.BF16: mme_peak_bf16,
                DType.FP16: mme_peak_bf16,
                DType.FP32: 0.25 * mme_peak_bf16,
                DType.INT8: 2.0 * mme_peak_bf16,
            },
            total_macs=mme_macs,
            clock_hz=mme_clock,
            configurable=True,
        ),
        vector=VectorEngineSpec(
            name="TPC",
            peak_flops={
                DType.BF16: tpc_peak_bf16,
                DType.FP16: tpc_peak_bf16,
                DType.FP32: 0.5 * tpc_peak_bf16,
                DType.INT8: 2.0 * tpc_peak_bf16,
            },
            num_cores=tpc_cores,
            clock_hz=tpc_clock,
            simd_width_bits=2048,
            instruction_latency=4,
            per_core_stream_bw=165 * GIGA,
            max_outstanding_loads=64,
            random_load_latency=420,
        ),
        memory=MemorySpec(
            hbm_type="HBM2E",
            capacity_bytes=96 * GIB,
            bandwidth=2.45 * TERA,
            min_access_bytes=256,
            stream_efficiency=0.87,
            stream_conflict_penalty=0.03,
            random_efficiency=0.72,
            # 256 B per transaction means the transaction-rate ceiling is
            # never the binding constraint on Gaudi-2.
            max_random_transactions=2.45 * TERA * 0.72 / 256.0,
            sram_bytes=48 * MIB,
            sram_is_cache=False,
            scatter_rmw=True,
        ),
        interconnect=InterconnectSpec(
            kind="p2p-mesh",
            per_device_bandwidth=300 * GIGA,
            links_per_pair=3,
            link_bandwidth=12.5 * GIGA,
            base_latency=6e-6,
            protocol_efficiency=0.87,
        ),
        power=PowerSpec(
            tdp_watts=600.0,
            idle_watts=35.0,
            matrix_watts=275.0,
            vector_watts=80.0,
            memory_watts=175.0,
            comm_watts=25.0,
            matrix_power_gating=True,
        ),
        kernel_launch_overhead=9e-6,
        graph_dispatch_overhead=14e-6,
    )


def _a100_spec() -> DeviceSpec:
    tc_peak_bf16 = 312 * TERA
    sm_count = 108
    sm_clock = 1.41 * GIGA
    tc_macs = int(round(tc_peak_bf16 / (2.0 * sm_clock)))
    simd_peak_bf16 = 39 * TERA
    return DeviceSpec(
        name="A100",
        vendor="NVIDIA",
        process_node="TSMC 7nm",
        matrix=MatrixEngineSpec(
            name="Tensor Cores",
            # FP32 matmuls route through the TF32 Tensor Core path
            # (156 TFLOPS), the cuBLAS default for training/serving.
            peak_flops={
                DType.BF16: tc_peak_bf16,
                DType.FP16: tc_peak_bf16,
                DType.FP32: 156 * TERA,
                DType.INT8: 2.0 * tc_peak_bf16,
            },
            total_macs=tc_macs,
            clock_hz=sm_clock,
            configurable=False,
        ),
        vector=VectorEngineSpec(
            name="SIMD Cores",
            peak_flops={
                DType.BF16: simd_peak_bf16,
                DType.FP16: simd_peak_bf16,
                DType.FP32: 19.5 * TERA,
                DType.INT8: 2.0 * simd_peak_bf16,
            },
            num_cores=sm_count,
            clock_hz=sm_clock,
            simd_width_bits=2048,
            instruction_latency=4,
            # One SM can sustain far more streaming bandwidth than a TPC
            # thanks to massive multithreading; ~25 SMs saturate HBM.
            per_core_stream_bw=80 * GIGA,
            max_outstanding_loads=256,
            random_load_latency=480,
        ),
        memory=MemorySpec(
            hbm_type="HBM2E",
            capacity_bytes=80 * GIB,
            bandwidth=2.0 * TERA,
            min_access_bytes=32,
            stream_efficiency=0.90,
            stream_conflict_penalty=0.03,
            random_efficiency=0.72,
            # Calibrated so the <=128 B gather average lands at ~36 % of
            # peak (Figure 9): the A100 is transaction-rate limited below
            # 128 B rather than granularity limited.
            max_random_transactions=12e9,
            sram_bytes=40 * MIB,
            sram_is_cache=True,
            scatter_rmw=False,
        ),
        interconnect=InterconnectSpec(
            kind="switch",
            per_device_bandwidth=300 * GIGA,
            links_per_pair=0,
            link_bandwidth=25 * GIGA,
            base_latency=1.5e-6,
            protocol_efficiency=0.76,
        ),
        power=PowerSpec(
            tdp_watts=400.0,
            idle_watts=130.0,
            matrix_watts=115.0,
            vector_watts=45.0,
            memory_watts=110.0,
            comm_watts=60.0,
            matrix_power_gating=False,
        ),
        kernel_launch_overhead=5e-6,
        graph_dispatch_overhead=12e-6,
    )


GAUDI2_SPEC: DeviceSpec = _gaudi2_spec()
A100_SPEC: DeviceSpec = _a100_spec()


def get_spec(name: str) -> DeviceSpec:
    """The spec sheet of the backend registered as ``name`` (key,
    alias or display name; case-insensitive).

    The backend registry (:mod:`repro.hw.backend`) is the one name to
    spec table: unknown names raise a typed
    :class:`~repro.audit.errors.ConfigError` with a did-you-mean hint.
    """
    from repro.hw.backend import REGISTRY

    return REGISTRY.spec(name)


def spec_comparison_rows_for(specs: List[DeviceSpec]) -> List[Tuple[str, ...]]:
    """Table-1 rows generalized to any comparison set.

    Each row is ``(metric, value_per_spec..., ratio)``; the ratio
    column compares every non-first spec to the first (baseline)
    column, slash-separated when the set has more than two members.
    """
    if not specs:
        return []

    def ratio(values: List[float]) -> str:
        return " / ".join(f"{v / values[0]:.1f}x" for v in values[1:]) or "-"

    metrics = [
        ("TFLOPS (BF16, matrix)",
         lambda s: s.matrix.peak(DType.BF16), lambda v: f"{v / TERA:.0f}"),
        ("TFLOPS (BF16, vector)",
         lambda s: s.vector.peak(DType.BF16), lambda v: f"{v / TERA:.0f}"),
        ("HBM type", None, None),
        ("HBM capacity (GB)",
         lambda s: s.memory.capacity_bytes, lambda v: f"{v / GIB:.0f}"),
        ("HBM bandwidth (TB/s)",
         lambda s: s.memory.bandwidth, lambda v: f"{v / TERA:.2f}"),
        ("SRAM capacity (MB)",
         lambda s: s.memory.sram_bytes, lambda v: f"{v / MIB:.0f}"),
        ("Communication (GB/s, bidirectional)",
         lambda s: 2 * s.interconnect.per_device_bandwidth,
         lambda v: f"{v / GIGA:.0f}"),
        ("Power (Watts)",
         lambda s: s.power.tdp_watts, lambda v: f"{v:.0f}"),
    ]
    rows: List[Tuple[str, ...]] = []
    for label, extract, fmt in metrics:
        if extract is None:  # categorical (HBM type): no ratio
            rows.append((label, *[s.memory.hbm_type for s in specs], "-"))
            continue
        values = [extract(s) for s in specs]
        rows.append((label, *[fmt(v) for v in values], ratio(values)))
    return rows
