"""GUPS-style vector gather/scatter microbenchmarks (Figure 9).

A 2-D array of 4 million vectors (16 B - 2,048 B each) is read from or
written to at random locations.  On Gaudi the benchmark is a TPC-C
kernel built around ``ld_g``/``st_g``; on the A100 it is the CUDA
gather analog.  The x-axis of Figure 9 -- the fraction of the 4M
vectors touched -- matters on the A100 because a small-enough working
set becomes L2-resident; Gaudi's SRAM is software-managed and gives no
such transparent-locality benefit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cuda import CudaLauncher
from repro.hw.device import Device
from repro.tpc import TpcKernelBuilder, TpcLauncher
from repro.tpc import intrinsics

#: Total vectors in the 2-D array (Figure 9).
DEFAULT_NUM_VECTORS = 4_000_000

#: Concurrent gather/scatter slots per loop trip in the TPC kernel
#: (the unroll factor the paper's best practice recommends).
_TPC_UNROLL = 4


@dataclass(frozen=True)
class GatherScatterResult:
    """Outcome of one gather or scatter run."""

    device: str
    is_scatter: bool
    vector_bytes: int
    fraction_accessed: float
    num_accesses: int
    time: float
    useful_bytes: float
    bandwidth_utilization: float


def reference_gather(table: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Functional semantics (for correctness tests)."""
    return intrinsics.v_gather(table, indices)


def reference_scatter(table: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Functional scatter semantics (for correctness tests)."""
    return intrinsics.v_scatter(table, indices, rows)


def _gaudi_gather_scatter(
    device: Device,
    vector_bytes: int,
    num_accesses: int,
    is_scatter: bool,
    working_set: float,
) -> GatherScatterResult:
    def body(b: TpcKernelBuilder) -> None:
        for slot in range(_TPC_UNROLL):
            if is_scatter:
                b.scatter("table", source=f"payload{slot}", access_bytes=vector_bytes)
            else:
                b.gather("table", access_bytes=vector_bytes)

    trips = max(1, math.ceil(num_accesses / _TPC_UNROLL))
    kernel = TpcKernelBuilder("gather_scatter").build_loop(body, iterations=trips)
    launcher = TpcLauncher(device.spec)
    launch = launcher.launch(kernel, working_set_bytes=working_set)

    # Sub-granule scatters read-modify-write whole granules, doubling
    # the chip-level traffic relative to the gather accounting.
    if is_scatter and vector_bytes < device.spec.memory.min_access_bytes:
        busy = max(launch.compute_time, launch.port_time, 2 * launch.hbm_time)
        time = busy + launch.launch_overhead
    else:
        time = launch.time
    useful = float(num_accesses) * vector_bytes
    busy = time - launch.launch_overhead
    return GatherScatterResult(
        device=device.name,
        is_scatter=is_scatter,
        vector_bytes=vector_bytes,
        fraction_accessed=0.0,
        num_accesses=num_accesses,
        time=time,
        useful_bytes=useful,
        bandwidth_utilization=(useful / busy) / device.peak_bandwidth,
    )


def _cuda_gather_scatter(
    device: Device,
    vector_bytes: int,
    num_accesses: int,
    is_scatter: bool,
    working_set: float,
) -> GatherScatterResult:
    launcher = CudaLauncher(device.spec)
    result = launcher.launch_gather(
        name="scatter_cuda" if is_scatter else "gather_cuda",
        num_accesses=num_accesses,
        access_bytes=vector_bytes,
        is_write=is_scatter,
        working_set_bytes=working_set,
        parallel_accesses=num_accesses,
    )
    busy = result.time - result.launch_overhead
    return GatherScatterResult(
        device=device.name,
        is_scatter=is_scatter,
        vector_bytes=vector_bytes,
        fraction_accessed=0.0,
        num_accesses=num_accesses,
        time=result.time,
        useful_bytes=result.useful_bytes,
        bandwidth_utilization=(result.useful_bytes / busy) / device.peak_bandwidth,
    )


def run_gather_scatter(
    *,
    device: Optional[Device] = None,
    vector_bytes: int,
    fraction_accessed: float = 1.0,
    num_vectors: int = DEFAULT_NUM_VECTORS,
    is_scatter: bool = False,
    ctx=None,
) -> GatherScatterResult:
    """Run the Figure 9 microbenchmark on a device model.

    With a :class:`~repro.api.RunContext` passed as ``ctx``, its device
    is the default and the kernel is recorded as a sequential
    ``kernel`` span plus ``kernels.gather_scatter.*`` metrics.
    """
    if ctx is not None:
        device = ctx.resolve_device(device)
    if device is None:
        raise TypeError(
            "run_gather_scatter() needs device= (or a ctx with a default device)"
        )
    if vector_bytes <= 0:
        raise ValueError("vector_bytes must be positive")
    if not 0.0 < fraction_accessed <= 1.0:
        raise ValueError("fraction_accessed must be in (0, 1]")
    num_accesses = max(1, int(round(fraction_accessed * num_vectors)))
    working_set = float(num_accesses) * vector_bytes
    family = getattr(device, "family", "")
    if family == "gaudi":
        result = _gaudi_gather_scatter(
            device, vector_bytes, num_accesses, is_scatter, working_set
        )
    elif family == "cuda":
        result = _cuda_gather_scatter(
            device, vector_bytes, num_accesses, is_scatter, working_set
        )
    else:
        raise TypeError(f"unsupported device {device!r} (family {family!r})")
    if ctx is not None:
        if ctx.tracer is not None:
            ctx.tracer.record_sequential(
                "scatter" if is_scatter else "gather", "kernel", result.time,
                device=device.name, vector_bytes=vector_bytes,
                num_accesses=result.num_accesses,
            )
        if ctx.metrics is not None:
            ctx.metrics.counter("kernels.gather_scatter.calls").inc()
            ctx.metrics.histogram("kernels.gather_scatter.seconds").observe(result.time)
    return GatherScatterResult(
        device=result.device,
        is_scatter=result.is_scatter,
        vector_bytes=result.vector_bytes,
        fraction_accessed=fraction_accessed,
        num_accesses=result.num_accesses,
        time=result.time,
        useful_bytes=result.useful_bytes,
        bandwidth_utilization=result.bandwidth_utilization,
    )
