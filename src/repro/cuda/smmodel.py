"""Analytical SM throughput model for A100 CUDA kernels.

An element-wise CUDA kernel on the A100 is bounded by whichever is
slower: the SIMD-core compute ceiling (39 TFLOPS BF16 with FMA, half
that without -- same accounting as the TPC) or memory bandwidth.  With
tens of thousands of threads in flight, per-SM bandwidth saturates with
roughly a quarter of the SMs, and random-access kernels reach the HBM
transaction-rate/sector limits directly; there is no analog of the
TPC's per-core unrolling cliff, which is the programmability contrast
Section 3.2 draws.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.memory import HbmModel
from repro.hw.spec import DeviceSpec, DType
from repro.hw.vector_unit import VectorUnitModel


@dataclass(frozen=True)
class CudaKernelResult:
    """Timing estimate for one CUDA kernel launch."""

    kernel_name: str
    time: float
    compute_time: float
    memory_time: float
    launch_overhead: float
    achieved_flops: float
    useful_bytes: float
    bandwidth_utilization: float
    bottleneck: str


class CudaLauncher:
    """Launch model for non-GEMM CUDA kernels on the A100."""

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.hbm = HbmModel(spec.memory)
        self.vector = VectorUnitModel(spec.vector)

    def _result(
        self,
        name: str,
        compute_time: float,
        memory_time: float,
        flops: float,
        useful_bytes: float,
        include_launch_overhead: bool,
    ) -> CudaKernelResult:
        busy = max(compute_time, memory_time)
        overhead = self.spec.kernel_launch_overhead if include_launch_overhead else 0.0
        time = busy + overhead
        return CudaKernelResult(
            kernel_name=name,
            time=time,
            compute_time=compute_time,
            memory_time=memory_time,
            launch_overhead=overhead,
            achieved_flops=flops / busy if busy > 0 else 0.0,
            useful_bytes=useful_bytes,
            bandwidth_utilization=(
                (useful_bytes / busy) / self.spec.memory.bandwidth if busy > 0 else 0.0
            ),
            bottleneck="simd-compute" if compute_time >= memory_time else "hbm-bandwidth",
        )

    # ------------------------------------------------------------------
    def launch_stream(
        self,
        name: str,
        num_elements: int,
        flops_per_element: float,
        bytes_per_element: float,
        dtype: DType = DType.BF16,
        uses_fma: bool = False,
        num_streams: int = 2,
        num_sms: int | None = None,
        include_launch_overhead: bool = True,
    ) -> CudaKernelResult:
        """Element-wise streaming kernel (the CUDA STREAM analog)."""
        if num_elements <= 0:
            raise ValueError("num_elements must be positive")
        compute_time = self.vector.elementwise_time(
            num_elements, flops_per_element, dtype, uses_fma, num_sms
        )
        useful_bytes = num_elements * bytes_per_element
        active_sms = self.spec.vector.num_cores if num_sms is None else num_sms
        chip_bw = min(
            self.hbm.stream_bandwidth(num_streams),
            active_sms * self.spec.vector.per_core_stream_bw,
        )
        memory_time = useful_bytes / chip_bw
        flops = num_elements * flops_per_element
        return self._result(
            name, compute_time, memory_time, flops, useful_bytes, include_launch_overhead
        )

    def launch_gather(
        self,
        name: str,
        num_accesses: int,
        access_bytes: int,
        is_write: bool = False,
        working_set_bytes: float = float("inf"),
        parallel_accesses: int | None = None,
        include_launch_overhead: bool = True,
    ) -> CudaKernelResult:
        """Random gather/scatter kernel (the CUDA GUPS analog).

        ``parallel_accesses`` limits memory-level parallelism when the
        launch is too small to fill the machine (e.g. a tiny embedding
        batch); the A100 needs roughly 32k concurrent accesses in
        flight to reach its random-access ceiling.
        """
        if num_accesses <= 0 or access_bytes <= 0:
            raise ValueError("num_accesses and access_bytes must be positive")
        bw = self.hbm.random_bandwidth(access_bytes, is_write, working_set_bytes)
        if parallel_accesses is not None:
            fill = min(1.0, parallel_accesses / 32768.0)
            bw *= max(fill, 1.0 / 32768.0)
        useful = float(num_accesses) * access_bytes
        memory_time = useful / bw
        return self._result(name, 0.0, memory_time, 0.0, useful, include_launch_overhead)
