"""STREAM microbenchmarks: ADD, SCALE, TRIAD (Algorithm 1, Figure 8).

On Gaudi the kernels are built with the TPC-C DSL and run through the
VLIW pipeline simulator, so access granularity and unroll factor have
exactly the effects Section 3.2 documents.  On the A100 the CUDA analog
is used.  Each kernel also carries a numpy functional implementation so
correctness is testable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.cuda import CudaLauncher
from repro.hw.device import Device
from repro.hw.spec import DType
from repro.tpc import TpcKernelBuilder, TpcLauncher
from repro.tpc.builder import MAX_ACCESS_BYTES
from repro.tpc.isa import Opcode
from repro.tpc import intrinsics

#: Default element count used throughout Figure 8 (24 million scalars).
DEFAULT_NUM_ELEMENTS = 24_000_000


class StreamOp(enum.Enum):
    """The three STREAM kernels of Algorithm 1."""

    ADD = "add"        # c[i] = a[i] + b[i]
    SCALE = "scale"    # b[i] = scalar * a[i]
    TRIAD = "triad"    # c[i] = scalar * a[i] + b[i]

    @property
    def flops_per_element(self) -> int:
        return 2 if self is StreamOp.TRIAD else 1

    @property
    def arrays_read(self) -> int:
        return 1 if self is StreamOp.SCALE else 2

    @property
    def arrays_written(self) -> int:
        return 1

    @property
    def num_streams(self) -> int:
        return self.arrays_read + self.arrays_written

    def bytes_per_element(self, dtype: DType) -> int:
        return self.num_streams * dtype.itemsize

    @property
    def uses_fma(self) -> bool:
        return self is StreamOp.TRIAD


@dataclass(frozen=True)
class StreamResult:
    """Outcome of one STREAM kernel run."""

    op: StreamOp
    device: str
    num_elements: int
    access_bytes: int
    unroll: int
    num_cores: int
    time: float
    achieved_gflops: float
    achieved_bandwidth: float
    bandwidth_utilization: float
    bottleneck: str


def _functional(op: StreamOp, scalar: float = 3.0) -> Callable[..., np.ndarray]:
    if op is StreamOp.ADD:
        return lambda a, b: intrinsics.v_add(a, b)
    if op is StreamOp.SCALE:
        return lambda a: intrinsics.v_mul(np.asarray(a), np.float32(scalar))
    return lambda a, b: intrinsics.v_mac(np.asarray(b), np.asarray(a), np.float32(scalar))


def reference_result(op: StreamOp, a: np.ndarray, b: Optional[np.ndarray] = None,
                     scalar: float = 3.0) -> np.ndarray:
    """Numpy reference semantics of a STREAM kernel."""
    fn = _functional(op, scalar)
    if op is StreamOp.SCALE:
        return fn(a)
    if b is None:
        raise ValueError(f"{op.value} needs two input arrays")
    return fn(a, b)


def _gaudi_stream(
    device: Device,
    op: StreamOp,
    num_elements: int,
    access_bytes: int,
    unroll: int,
    num_tpcs: Optional[int],
    dtype: DType,
    compute_chain: int,
) -> StreamResult:
    """Build and launch the TPC-C STREAM kernel (memoized per device
    on the call shape, looked up before the program is built)."""
    key = (op, num_elements, access_bytes, unroll, num_tpcs, dtype, compute_chain)
    cached = device._stream_cache.get(key)
    if cached is not None:
        return cached
    elements_per_access = max(1, access_bytes // dtype.itemsize)

    def body(b: TpcKernelBuilder) -> None:
        chunks = max(1, math.ceil(access_bytes / MAX_ACCESS_BYTES))
        for _ in range(chunks):
            chunk_bytes = min(access_bytes, MAX_ACCESS_BYTES)
            if op is StreamOp.SCALE:
                x = b.load_tensor("a", access_bytes=chunk_bytes)
                acc = b.vec(Opcode.MUL, x)
                for _ in range(compute_chain - 1):
                    acc = b.vec(Opcode.MUL, acc)
                b.store_tensor("b", acc, access_bytes=chunk_bytes)
            elif op is StreamOp.ADD:
                x = b.load_tensor("a", access_bytes=chunk_bytes)
                y = b.load_tensor("b", access_bytes=chunk_bytes)
                acc = b.vec(Opcode.ADD, x, y)
                for _ in range(compute_chain - 1):
                    acc = b.vec(Opcode.ADD, acc, acc)
                b.store_tensor("c", acc, access_bytes=chunk_bytes)
            else:
                x = b.load_tensor("a", access_bytes=chunk_bytes)
                y = b.load_tensor("b", access_bytes=chunk_bytes)
                # v_mac accumulating into the b-vector: c = scale*a + b.
                acc = b.vec_into(Opcode.MAC, y, x)
                for _ in range(compute_chain - 1):
                    acc = b.vec_into(Opcode.MAC, acc, x, y)
                b.store_tensor("c", acc, access_bytes=chunk_bytes)

    iterations = max(1, math.ceil(num_elements / elements_per_access))
    kernel = TpcKernelBuilder(f"{op.value}_tpc", dtype=dtype).build_loop(
        body, iterations=iterations, unroll=unroll, functional=_functional(op)
    )
    launcher = TpcLauncher(device.spec)
    launch = launcher.launch(kernel, num_tpcs=num_tpcs)

    useful_flops = float(num_elements) * op.flops_per_element * compute_chain
    useful_bytes = float(num_elements) * op.bytes_per_element(dtype)
    busy = launch.time - launch.launch_overhead
    cores = num_tpcs if num_tpcs is not None else device.spec.vector.num_cores
    result = StreamResult(
        op=op,
        device=device.name,
        num_elements=num_elements,
        access_bytes=access_bytes,
        unroll=unroll,
        num_cores=cores,
        time=launch.time,
        achieved_gflops=useful_flops / busy / 1e9,
        achieved_bandwidth=useful_bytes / busy,
        bandwidth_utilization=(useful_bytes / busy) / device.peak_bandwidth,
        bottleneck=launch.bottleneck,
    )
    device._stream_cache.put(key, result)
    return result


def _cuda_stream(
    device: Device,
    op: StreamOp,
    num_elements: int,
    num_sms: Optional[int],
    dtype: DType,
    compute_chain: int,
) -> StreamResult:
    launcher = CudaLauncher(device.spec)
    result = launcher.launch_stream(
        name=f"{op.value}_cuda",
        num_elements=num_elements,
        flops_per_element=op.flops_per_element * compute_chain,
        bytes_per_element=op.bytes_per_element(dtype),
        dtype=dtype,
        uses_fma=op.uses_fma,
        num_streams=op.num_streams,
        num_sms=num_sms,
    )
    useful_bytes = float(num_elements) * op.bytes_per_element(dtype)
    busy = result.time - result.launch_overhead
    cores = num_sms if num_sms is not None else device.spec.vector.num_cores
    return StreamResult(
        op=op,
        device=device.name,
        num_elements=num_elements,
        access_bytes=device.spec.memory.min_access_bytes,
        unroll=1,
        num_cores=cores,
        time=result.time,
        achieved_gflops=result.achieved_flops / 1e9,
        achieved_bandwidth=useful_bytes / busy,
        bandwidth_utilization=(useful_bytes / busy) / device.peak_bandwidth,
        bottleneck=result.bottleneck,
    )


def run_stream(
    *,
    device: Optional[Device] = None,
    op: StreamOp,
    num_elements: int = DEFAULT_NUM_ELEMENTS,
    access_bytes: int = MAX_ACCESS_BYTES,
    unroll: int = 1,
    num_cores: Optional[int] = None,
    dtype: DType = DType.BF16,
    compute_chain: int = 1,
    ctx=None,
) -> StreamResult:
    """Run one STREAM kernel on a device model.

    ``compute_chain`` repeats the arithmetic per loaded element to raise
    operational intensity, as in the Figure 8(d-f) sweep.  With a
    :class:`~repro.api.RunContext` passed as ``ctx``, its device is the
    default and the kernel is recorded as a sequential ``kernel`` span
    plus ``kernels.stream.*`` metrics.
    """
    if ctx is not None:
        device = ctx.resolve_device(device)
    if device is None:
        raise TypeError("run_stream() needs device= (or a ctx with a default device)")
    if num_elements <= 0:
        raise ValueError("num_elements must be positive")
    if compute_chain <= 0:
        raise ValueError("compute_chain must be positive")
    family = getattr(device, "family", "")
    if family == "gaudi":
        result = _gaudi_stream(
            device, op, num_elements, access_bytes, unroll, num_cores, dtype,
            compute_chain,
        )
    elif family == "cuda":
        result = _cuda_stream(device, op, num_elements, num_cores, dtype, compute_chain)
    else:
        raise TypeError(f"unsupported device {device!r} (family {family!r})")
    if ctx is not None:
        if ctx.tracer is not None:
            ctx.tracer.record_sequential(
                f"stream.{op.value}", "kernel", result.time,
                device=device.name, num_elements=num_elements, unroll=unroll,
            )
        if ctx.metrics is not None:
            ctx.metrics.counter("kernels.stream.calls").inc()
            ctx.metrics.histogram("kernels.stream.seconds").observe(result.time)
    return result
