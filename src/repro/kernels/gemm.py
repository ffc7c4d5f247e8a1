"""GEMM execution and roofline sweeps (Figures 4, 5, 7).

The paper drives GEMMs through the PyTorch API on both platforms
(Table 2), which resolves to cuBLAS on the A100 and to the graph
compiler's MME configuration on Gaudi-2; :func:`run_gemm` is the model
equivalent, dispatching to the device's matrix-engine model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.hw.device import Device, MatmulResult
from repro.hw.spec import DType

#: Square GEMM sizes evaluated in Figures 4 and 5.
SQUARE_SIZES: Sequence[int] = (256, 512, 1024, 2048, 4096, 8192, 16384)

#: (M=K) sizes for the irregular GEMM sweep; N is fixed at 16
#: ("triangle markers" in Figure 4).
IRREGULAR_SIZES: Sequence[int] = (1024, 2048, 4096, 8192, 16384)
IRREGULAR_N = 16


@dataclass(frozen=True)
class GemmPoint:
    """One point of the GEMM roofline (Figure 4)."""

    device: str
    m: int
    k: int
    n: int
    dtype: DType
    time: float
    achieved_tflops: float
    utilization: float
    operational_intensity: float
    memory_bound: bool
    config_label: str


def operational_intensity(m: int, k: int, n: int, dtype: DType) -> float:
    """FLOPs per byte of compulsory operand traffic."""
    flops = 2.0 * m * k * n
    compulsory = dtype.itemsize * (m * k + k * n + m * n)
    return flops / compulsory


def run_gemm(
    *,
    device: Optional[Device] = None,
    m: int,
    k: int,
    n: int,
    dtype: DType = DType.BF16,
    ctx=None,
) -> GemmPoint:
    """Execute one GEMM shape on a device model.

    With a :class:`~repro.api.RunContext` passed as ``ctx``, its
    device is the default and the kernel is recorded as a sequential
    ``kernel`` span plus ``kernels.gemm.*`` metrics.
    """
    if ctx is not None:
        device = ctx.resolve_device(device)
    if device is None:
        raise TypeError("run_gemm() needs device= (or a ctx with a default device)")
    result: MatmulResult = device.gemm(m, k, n, dtype)
    if ctx is not None:
        if ctx.tracer is not None:
            ctx.tracer.record_sequential(
                "gemm", "kernel", result.time,
                device=device.name, m=m, k=k, n=n, dtype=dtype.name,
            )
        if ctx.metrics is not None:
            ctx.metrics.counter("kernels.gemm.calls").inc()
            ctx.metrics.histogram("kernels.gemm.seconds").observe(result.time)
    return GemmPoint(
        device=device.name,
        m=m,
        k=k,
        n=n,
        dtype=dtype,
        time=result.time,
        achieved_tflops=result.achieved_flops / 1e12,
        utilization=result.utilization,
        operational_intensity=operational_intensity(m, k, n, dtype),
        memory_bound=result.memory_bound,
        config_label=result.config_label,
    )


def sweep_square(
    device: Device, sizes: Iterable[int] = SQUARE_SIZES, dtype: DType = DType.BF16
) -> List[GemmPoint]:
    """The square-shaped GEMM sweep of Figure 4 (square markers)."""
    return [run_gemm(device=device, m=s, k=s, n=s, dtype=dtype) for s in sizes]


def sweep_irregular(
    device: Device,
    sizes: Iterable[int] = IRREGULAR_SIZES,
    n: int = IRREGULAR_N,
    dtype: DType = DType.BF16,
) -> List[GemmPoint]:
    """The irregular (tall-skinny, N=16) GEMM sweep of Figure 4."""
    return [run_gemm(device=device, m=s, k=s, n=n, dtype=dtype) for s in sizes]


def utilization_grid(
    device: Device, m_sizes: Sequence[int], n_sizes: Sequence[int], k: int,
    dtype: DType = DType.BF16,
) -> List[List[float]]:
    """Compute-utilization heatmap over (M, N) with fixed K (Figures 5, 7(b))."""
    return [
        [run_gemm(device=device, m=m, k=k, n=n, dtype=dtype).utilization for n in n_sizes]
        for m in m_sizes
    ]
