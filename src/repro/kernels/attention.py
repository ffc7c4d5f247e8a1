"""Dense attention cost models.

Two implementations are modelled, matching the serving backends of
Section 3.5:

* **FlashAttention** on A100 (TensorRT-LLM / vLLM kernels): one fused
  CUDA kernel that never materializes the score matrix, using Tensor
  Cores and SIMD cores together inside the kernel (the WMMA capability
  of Figure 2(b)).
* **FusedSDPA** on Gaudi-2: the SDK's fused scaled-dot-product
  attention.  Because TPC-C kernels cannot drive the MME, the fusion is
  graph-compiler-level pipelining of the QK^T GEMM, softmax, and PV
  GEMM, staged through on-chip SRAM -- functionally equivalent,
  slightly less efficient, and spilling a fraction of the score matrix
  for long sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.hw.device import Device
from repro.hw.spec import DType

#: Fraction of the score matrix FusedSDPA spills through HBM when the
#: working set exceeds the SRAM slice (graph-compiler staging).
_SDPA_SPILL_FRACTION = 0.12


@dataclass(frozen=True)
class AttentionConfig:
    """One attention call (self-attention within a decoder layer)."""

    batch: int
    q_heads: int
    kv_heads: int
    head_dim: int
    seq_q: int
    seq_kv: int
    dtype: DType = DType.BF16
    causal: bool = True

    def __post_init__(self) -> None:
        for name in ("batch", "q_heads", "kv_heads", "head_dim", "seq_q", "seq_kv"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.q_heads % self.kv_heads != 0:
            raise ValueError("q_heads must be a multiple of kv_heads (GQA)")

    @property
    def flops(self) -> float:
        """QK^T and PV GEMM FLOPs (softmax excluded)."""
        pair_fraction = 0.5 if (self.causal and self.seq_q == self.seq_kv) else 1.0
        return (
            4.0
            * self.batch
            * self.q_heads
            * self.seq_q
            * self.seq_kv
            * self.head_dim
            * pair_fraction
        )

    @property
    def qo_bytes(self) -> float:
        return (
            2.0 * self.batch * self.q_heads * self.seq_q * self.head_dim
            * self.dtype.itemsize
        )

    @property
    def kv_bytes(self) -> float:
        return (
            2.0 * self.batch * self.kv_heads * self.seq_kv * self.head_dim
            * self.dtype.itemsize
        )

    @property
    def score_bytes(self) -> float:
        return (
            self.batch * self.q_heads * self.seq_q * self.seq_kv
            * self.dtype.itemsize
        )


@dataclass(frozen=True)
class AttentionResult:
    """Timing of one attention call."""

    kernel: str
    config: AttentionConfig
    time: float
    compute_time: float
    memory_time: float
    memory_bound: bool


def flash_attention_time(device: Device, config: AttentionConfig) -> AttentionResult:
    """FlashAttention-style fused kernel on a CUDA-family device."""
    peak = device.spec.matrix.peak(config.dtype)
    compute = config.flops / (peak * device.attention_efficiency)
    traffic = config.qo_bytes + config.kv_bytes
    bw = device.spec.memory.bandwidth * device.spec.memory.stream_efficiency
    memory = traffic / bw
    time = max(compute, memory) + device.spec.kernel_launch_overhead
    return AttentionResult(
        kernel="flash-attention",
        config=config,
        time=time,
        compute_time=compute,
        memory_time=memory,
        memory_bound=memory > compute,
    )


def fused_sdpa_time(device: Device, config: AttentionConfig) -> AttentionResult:
    """Gaudi's FusedSDPA (graph-compiler-fused attention)."""
    peak = device.spec.matrix.peak(config.dtype)
    compute = config.flops / (peak * device.attention_efficiency)
    score_slice = config.batch * config.q_heads * min(config.seq_q, 512) * config.seq_kv
    spills = score_slice * config.dtype.itemsize > device.spec.memory.sram_bytes
    traffic = config.qo_bytes + config.kv_bytes
    if spills:
        traffic += 2.0 * _SDPA_SPILL_FRACTION * config.score_bytes
    bw = device.spec.memory.bandwidth * device.spec.memory.stream_efficiency
    memory = traffic / bw
    time = max(compute, memory) + device.spec.kernel_launch_overhead
    return AttentionResult(
        kernel="fused-sdpa",
        config=config,
        time=time,
        compute_time=compute,
        memory_time=memory,
        memory_bound=memory > compute,
    )


def build_attention_fn(
    device: Device,
    batch: int,
    q_heads: int,
    kv_heads: int,
    head_dim: int,
    dtype: DType = DType.BF16,
) -> Callable[[int], Tuple[float, float, float]]:
    """:func:`attention_time` of causal self-attention with the sequence
    length left free, as ``attend(seq) -> (time, compute_time,
    memory_time)`` for ``seq_q == seq_kv == seq``.

    Every left-to-right product prefix that does not involve ``seq`` is
    folded at build time, so each field is the same float operation
    sequence as the :class:`AttentionConfig` properties and the kernel
    functions above: bit-identical, with no config or result object.
    """
    # Validates the shape the way the per-call config would.
    AttentionConfig(batch, q_heads, kv_heads, head_dim, 1, 1, dtype)
    family = getattr(device, "family", "")
    if family not in ("gaudi", "cuda"):
        raise TypeError(f"unsupported device {device!r} (family {family!r})")
    spec = device.spec
    peak = spec.matrix.peak(dtype) * device.attention_efficiency
    bw = spec.memory.bandwidth * spec.memory.stream_efficiency
    launch = spec.kernel_launch_overhead
    itemsize = dtype.itemsize
    flops_prefix = 4.0 * batch * q_heads
    qo_prefix = 2.0 * batch * q_heads
    kv_prefix = 2.0 * batch * kv_heads
    if family == "cuda":

        def flash(seq: int) -> Tuple[float, float, float]:
            compute = flops_prefix * seq * seq * head_dim * 0.5 / peak
            traffic = (
                qo_prefix * seq * head_dim * itemsize
                + kv_prefix * seq * head_dim * itemsize
            )
            memory = traffic / bw
            return max(compute, memory) + launch, compute, memory

        return flash

    heads = batch * q_heads
    sram = spec.memory.sram_bytes
    spill = 2.0 * _SDPA_SPILL_FRACTION

    def sdpa(seq: int) -> Tuple[float, float, float]:
        compute = flops_prefix * seq * seq * head_dim * 0.5 / peak
        traffic = (
            qo_prefix * seq * head_dim * itemsize
            + kv_prefix * seq * head_dim * itemsize
        )
        if heads * min(seq, 512) * seq * itemsize > sram:
            traffic += spill * (heads * seq * seq * itemsize)
        memory = traffic / bw
        return max(compute, memory) + launch, compute, memory

    return sdpa


def attention_time(device: Device, config: AttentionConfig) -> AttentionResult:
    """Dispatch to the device's fused attention implementation.

    ``AttentionConfig`` is frozen and hashable, so the result memoizes
    on the device's shape-keyed cache.
    """
    family = getattr(device, "family", "")
    if family == "gaudi":
        impl = fused_sdpa_time
    elif family == "cuda":
        impl = flash_attention_time
    else:
        raise TypeError(f"unsupported device {device!r} (family {family!r})")
    result = device._attention_cache.get(config)
    if result is not None:
        return result
    result = impl(device, config)
    device._attention_cache.put(config, result)
    return result
