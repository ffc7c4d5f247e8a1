"""PagedAttention implementations (Section 4.2, Figures 16 and 17).

Three implementations of the decode-stage paged attention operator:

* :func:`vllm_base_paged_attention` -- the baseline Gaudi vLLM fork
  (Figure 16(a)): a zero-padded 2-D ``BlockTable`` drives per-request
  KV block gathers into a contiguous buffer, then ``FusedSDPA`` runs
  over the padded copy.  Three structural inefficiencies are modelled,
  each named in the paper: (1) *redundant gathers* of zero-padded
  indices, (2) a low-MLP copy (the per-request block-list walk uses the
  SDK's generic gather path), and (3) *no MME/TPC pipelining* -- the
  copy and the attention execute serially, plus one gather op dispatch
  per request.
* :func:`vllm_opt_paged_attention` -- the optimized design
  (Figure 16(b)): a flat 1-D ``BlockList`` of only *effectual* block
  indices feeds one batched high-MLP gather, and the restructured
  query/KV layout lets the graph compiler slice the TPC gather and the
  MME batched GEMM into pipelined sub-operations
  (:func:`pipelined_duration`).  The structural cost
  that remains -- and keeps Gaudi at ~45 % of the A100 kernel -- is the
  extra materialization pass: TPC-C kernels cannot feed the MME
  directly, so gathered KV must be written to a workspace the MME then
  re-reads (the fusion FlashAttention does in one kernel is impossible,
  as Section 5 discusses).
* :func:`a100_paged_attention` -- vLLM's native CUDA kernel: reads the
  scattered KV blocks exactly once inside one fused kernel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.hw.spec import A100_SPEC, GAUDI2_SPEC, DeviceSpec, DType

#: Tokens per KV cache block (the vLLM default for Gaudi).
DEFAULT_BLOCK_SIZE = 128

#: In the baseline, the per-request KV block copies are lowered as
#: separate index-select ops that all write into one contiguous buffer;
#: the resulting (false) output dependency serializes them, so each
#: copy runs at roughly a single TPC's port bandwidth instead of chip
#: bandwidth.  This serialization is the dominant baseline cost.

#: Efficiency of the optimized batched block gather (the BatchedTable
#: mechanics of Section 4.1 applied to KV blocks).
_OPT_GATHER_EFFICIENCY = 0.70

#: Efficiency of the A100's fused PagedAttention kernel when walking
#: scattered blocks (32 KB+ contiguous chunks, near-streaming).
_A100_PAGED_EFFICIENCY = 0.80

#: Pipeline slices the graph compiler carves for the opt design.  The
#: count is fixed: users cannot steer the compiler (Section 2.2).
_OPT_SLICES = 8

#: Per-slice scheduling/staging overhead of a pipelined pair, seconds.
SLICE_OVERHEAD = 0.5e-6

#: Upper bound of an aggregate a priced piece does not depend on (see
#: :func:`build_paged_time_fn`).
UNBOUNDED = sys.maxsize


def pipelined_duration(
    producer_time: float,
    consumer_time: float,
    slices: int = _OPT_SLICES,
    slice_overhead: float = SLICE_OVERHEAD,
) -> float:
    """Completion time of a k-slice pipelined producer/consumer pair.

    The graph compiler breaks an MME op and the TPC op feeding it (or
    fed by it) into ``k`` independent sub-operations staged through the
    shared SRAM (Section 2.2), so the pair finishes in
    ``max(t_p, t_c) + min(t_p, t_c) / k + k * slice_overhead`` instead
    of ``t_p + t_c``.
    """
    if slices <= 0:
        raise ValueError("slices must be positive")
    longer = max(producer_time, consumer_time)
    shorter = min(producer_time, consumer_time)
    return longer + shorter / slices + slices * slice_overhead


@dataclass(frozen=True)
class PagedAttentionConfig:
    """One decode-step paged-attention call (single layer)."""

    batch: int
    seq_lens: Sequence[int]          # context length per request
    q_heads: int
    kv_heads: int
    head_dim: int
    block_size: int = DEFAULT_BLOCK_SIZE
    dtype: DType = DType.BF16

    def __post_init__(self) -> None:
        if self.batch <= 0:
            raise ValueError("batch must be positive")
        if len(self.seq_lens) != self.batch:
            raise ValueError("seq_lens must have one entry per request")
        if any(s <= 0 for s in self.seq_lens):
            raise ValueError("all sequence lengths must be positive")
        for name in ("q_heads", "kv_heads", "head_dim", "block_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def uniform(
        cls,
        batch: int,
        seq_len: int,
        q_heads: int = 32,
        kv_heads: int = 8,
        head_dim: int = 128,
        block_size: int = DEFAULT_BLOCK_SIZE,
        dtype: DType = DType.BF16,
    ) -> "PagedAttentionConfig":
        return cls(
            batch=batch,
            seq_lens=[seq_len] * batch,
            q_heads=q_heads,
            kv_heads=kv_heads,
            head_dim=head_dim,
            block_size=block_size,
            dtype=dtype,
        )

    @property
    def block_bytes(self) -> int:
        """Bytes of one KV block (keys + values for all KV heads)."""
        return 2 * self.kv_heads * self.head_dim * self.block_size * self.dtype.itemsize

    def blocks_for(self, seq_len: int) -> int:
        return math.ceil(seq_len / self.block_size)

    @property
    def effectual_blocks(self) -> int:
        return sum(self.blocks_for(s) for s in self.seq_lens)

    @property
    def padded_blocks(self) -> int:
        """BlockTable entries including zero padding (Figure 16(a))."""
        return self.batch * max(self.blocks_for(s) for s in self.seq_lens)

    @property
    def padding_fraction(self) -> float:
        padded = self.padded_blocks
        return 1.0 - self.effectual_blocks / padded if padded else 0.0

    @property
    def kv_bytes(self) -> float:
        """Effectual KV cache bytes touched by one decode step."""
        return float(self.effectual_blocks) * self.block_bytes

    @property
    def padded_kv_bytes(self) -> float:
        return float(self.padded_blocks) * self.block_bytes

    @property
    def gemm_flops(self) -> float:
        """QK^T + PV flops for one new token per request."""
        return sum(
            4.0 * self.q_heads * s * self.head_dim for s in self.seq_lens
        )


@dataclass(frozen=True)
class PagedAttentionStats:
    """Aggregate view of one decode step's paged-attention workload.

    The three cost functions below read only ``batch``, ``kv_bytes``,
    ``padded_kv_bytes``, ``gemm_flops``, and ``dtype`` -- all derivable
    from four integer aggregates of the per-request context lengths.
    The serving engine maintains those aggregates incrementally, so a
    decode step can be priced without materializing (or walking) the
    length list.  Every property reproduces its
    :class:`PagedAttentionConfig` counterpart bit-for-bit: block counts
    are integer sums, and the FLOP sum ``sum(4 q d s_i)`` equals
    ``4 q d * sum(s_i)`` exactly because every partial sum is an
    integer below 2^53.
    """

    batch: int
    total_context: int      # sum of per-request context lengths
    total_blocks: int       # sum of per-request ceil(len / block_size)
    max_context: int        # longest context in the batch
    q_heads: int
    kv_heads: int
    head_dim: int
    block_size: int = DEFAULT_BLOCK_SIZE
    dtype: DType = DType.BF16

    def __post_init__(self) -> None:
        if self.batch <= 0:
            raise ValueError("batch must be positive")
        if self.max_context <= 0 or self.total_context < self.max_context:
            raise ValueError("inconsistent context aggregates")

    @classmethod
    def from_config(cls, config: PagedAttentionConfig) -> "PagedAttentionStats":
        return cls(
            batch=config.batch,
            total_context=sum(int(s) for s in config.seq_lens),
            total_blocks=config.effectual_blocks,
            max_context=max(int(s) for s in config.seq_lens),
            q_heads=config.q_heads,
            kv_heads=config.kv_heads,
            head_dim=config.head_dim,
            block_size=config.block_size,
            dtype=config.dtype,
        )

    @property
    def block_bytes(self) -> int:
        return 2 * self.kv_heads * self.head_dim * self.block_size * self.dtype.itemsize

    @property
    def effectual_blocks(self) -> int:
        return self.total_blocks

    @property
    def padded_blocks(self) -> int:
        return self.batch * math.ceil(self.max_context / self.block_size)

    @property
    def kv_bytes(self) -> float:
        return float(self.effectual_blocks) * self.block_bytes

    @property
    def padded_kv_bytes(self) -> float:
        return float(self.padded_blocks) * self.block_bytes

    @property
    def gemm_flops(self) -> float:
        return 4.0 * self.q_heads * self.head_dim * self.total_context


@dataclass(frozen=True)
class PagedAttentionResult:
    """Timing of one paged-attention call."""

    implementation: str
    device: str
    config: PagedAttentionConfig
    time: float
    gather_time: float
    gemm_time: float
    overhead: float
    pipelined: bool

    @property
    def tokens_per_second(self) -> float:
        return self.config.batch / self.time if self.time > 0 else 0.0


# ----------------------------------------------------------------------
def vllm_base_paged_attention(
    config: PagedAttentionConfig, spec: DeviceSpec = GAUDI2_SPEC
) -> PagedAttentionResult:
    """The baseline Gaudi vLLM fork's PagedAttention (Figure 16(a))."""
    bw = spec.memory.bandwidth
    stream_bw = bw * spec.memory.stream_efficiency
    padded = config.padded_kv_bytes
    # Phase 1 (TPC): gather every BlockTable entry -- padding included --
    # into a contiguous buffer.  Each request's block walk is a separate
    # lowered op; because all of them write the same contiguous output,
    # the graph serializes them, so each copy proceeds at one TPC's
    # port bandwidth with its own dispatch.
    per_request_bytes = padded / config.batch
    gather_time = config.batch * (
        spec.kernel_launch_overhead
        + per_request_bytes / spec.vector.per_core_stream_bw
    )
    # Phase 2 (MME+TPC): FusedSDPA over the padded contiguous buffer,
    # strictly after the copy -- no MME/TPC pipelining.
    sdpa_read = padded / stream_bw
    compute = config.gemm_flops / (spec.matrix.peak(config.dtype) * 0.48)
    gemm_time = max(sdpa_read, compute)
    overhead = spec.graph_dispatch_overhead
    time = gather_time + gemm_time + overhead
    return PagedAttentionResult(
        implementation="vllm-base",
        device=spec.name,
        config=config,
        time=time,
        gather_time=gather_time,
        gemm_time=gemm_time,
        overhead=overhead,
        pipelined=False,
    )


def vllm_opt_paged_attention(
    config: PagedAttentionConfig, spec: DeviceSpec = GAUDI2_SPEC
) -> PagedAttentionResult:
    """The optimized BlockList PagedAttention (Figure 16(b))."""
    bw = spec.memory.bandwidth
    stream_bw = bw * spec.memory.stream_efficiency
    effectual = config.kv_bytes
    # TPC phase: one batched gather of effectual blocks (BatchedTable
    # mechanics) plus the workspace write the MME will read from.
    gather_time = effectual / (bw * _OPT_GATHER_EFFICIENCY) + effectual / stream_bw
    # MME phase: batched GEMM over the restructured blocks.
    gemm_read = effectual / stream_bw
    compute = config.gemm_flops / (spec.matrix.peak(config.dtype) * 0.48)
    gemm_time = max(gemm_read, compute)
    # The graph compiler slices the two phases into pipelined sub-ops.
    busy = pipelined_duration(gather_time, gemm_time, slices=_OPT_SLICES)
    overhead = spec.kernel_launch_overhead + spec.graph_dispatch_overhead
    time = busy + overhead
    return PagedAttentionResult(
        implementation="vllm-opt",
        device=spec.name,
        config=config,
        time=time,
        gather_time=gather_time,
        gemm_time=gemm_time,
        overhead=overhead,
        pipelined=True,
    )


def a100_paged_attention(
    config: PagedAttentionConfig, spec: DeviceSpec = A100_SPEC
) -> PagedAttentionResult:
    """vLLM's native fused CUDA PagedAttention kernel."""
    read = config.kv_bytes / (spec.memory.bandwidth * _A100_PAGED_EFFICIENCY)
    compute = config.gemm_flops / (spec.matrix.peak(config.dtype) * 0.50)
    busy = max(read, compute)
    overhead = spec.kernel_launch_overhead
    return PagedAttentionResult(
        implementation="cuda-paged-attention",
        device=spec.name,
        config=config,
        time=busy + overhead,
        gather_time=read,
        gemm_time=compute,
        overhead=overhead,
        pipelined=True,
    )


# ----------------------------------------------------------------------
def build_paged_time_fn(
    implementation: str,
    batch: int,
    spec: DeviceSpec,
    dtype: DType,
    *,
    q_heads: int,
    kv_heads: int,
    head_dim: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    peak_bandwidth: float,
):
    """Closed-form twin of one paged-attention cost function, priced
    from the decode batch's aggregates.

    Returns ``fn(total_context, total_blocks, max_context) -> (time,
    vector_s, memory_s, context_hi, max_hi)``: the call's time, its
    vector-engine seconds (``min(gather_time, time)``) and its memory
    seconds (``kv_bytes / peak_bandwidth``), with every shape- and
    spec-derived constant folded at build time.  The vectorized serving
    engine prices millions of decode steps through these closures, so
    they must stay bit-identical to the corresponding
    ``*_paged_attention`` call on a :class:`PagedAttentionStats`: each
    arithmetic expression below keeps the operand association of its
    twin, and folded constants are only subexpressions the twin also
    evaluates as a unit (``bw * efficiency``, ``peak * 0.48``, ...) or
    exact integers (block bytes, the ``4 q d`` flops prefix, the padded
    byte count).  ``max(a, b)`` is spelled ``a if a >= b else b``, which
    picks the same value.  All three have ``time >= gather_time`` (the
    other terms are non-negative and rounded addition is monotone), so
    the vector term is ``gather_time`` itself.

    ``context_hi`` and ``max_hi`` bound the box of aggregates the
    three values hold over: at the same ``total_blocks``, every
    ``total_context`` from the priced one up to ``context_hi`` and every
    ``max_context`` from the priced one up to ``max_hi`` give the same
    bits.  The compute term ``4 q d * total_context / peak`` enters only
    through ``max(read, compute)``, and rounded multiplication and
    division are monotone, so while the read term wins the context sum
    does not matter: ``context_hi`` is the largest sum whose compute
    term, evaluated with the same expression, still does not exceed the
    read term (the priced sum itself once compute wins).  Only
    vllm-base reads ``max_context``, through its padded block count.
    """
    block_bytes = 2 * kv_heads * head_dim * block_size * dtype.itemsize
    flops_coeff = 4.0 * q_heads * head_dim  # exact prefix of gemm_flops

    def read_bound_limit(total_context: int, read: float, matrix_peak: float) -> int:
        """The largest context sum whose compute term stays <= ``read``,
        given that ``total_context``'s does."""
        limit = int(read * matrix_peak / flops_coeff)
        if limit < total_context:
            limit = total_context
        while flops_coeff * (limit + 1) / matrix_peak <= read:
            limit += 1
        while flops_coeff * limit / matrix_peak > read:
            limit -= 1
        return limit

    if implementation == "vllm-base":
        stream_bw = spec.memory.bandwidth * spec.memory.stream_efficiency
        launch = spec.kernel_launch_overhead
        per_core_bw = spec.vector.per_core_stream_bw
        matrix_peak = spec.matrix.peak(dtype) * 0.48
        dispatch = spec.graph_dispatch_overhead
        padded_row_bytes = batch * block_bytes  # an exact integer

        def base_fn(total_context: int, total_blocks: int, max_context: int):
            max_blocks = math.ceil(max_context / block_size)
            padded = float(padded_row_bytes * max_blocks)
            per_request_bytes = padded / batch
            gather_time = batch * (launch + per_request_bytes / per_core_bw)
            sdpa_read = padded / stream_bw
            compute = flops_coeff * total_context / matrix_peak
            if sdpa_read >= compute:
                gemm_time = sdpa_read
                context_hi = read_bound_limit(total_context, sdpa_read, matrix_peak)
            else:
                gemm_time = compute
                context_hi = total_context
            return (
                gather_time + gemm_time + dispatch,
                gather_time,
                float(total_blocks) * block_bytes / peak_bandwidth,
                context_hi,
                max_blocks * block_size,
            )

        return base_fn
    if implementation == "vllm-opt":
        bw = spec.memory.bandwidth
        stream_bw = bw * spec.memory.stream_efficiency
        gather_bw = bw * _OPT_GATHER_EFFICIENCY
        matrix_peak = spec.matrix.peak(dtype) * 0.48
        overhead = spec.kernel_launch_overhead + spec.graph_dispatch_overhead
        slice_cost = _OPT_SLICES * SLICE_OVERHEAD

        def opt_fn(total_context: int, total_blocks: int, max_context: int):
            kv_bytes = float(total_blocks) * block_bytes
            gemm_read = kv_bytes / stream_bw
            gather_time = kv_bytes / gather_bw + gemm_read
            compute = flops_coeff * total_context / matrix_peak
            if gemm_read >= compute:
                gemm_time = gemm_read
                context_hi = read_bound_limit(total_context, gemm_read, matrix_peak)
            else:
                gemm_time = compute
                context_hi = total_context
            # pipelined_duration(gather_time, gemm_time, _OPT_SLICES)
            if gather_time >= gemm_time:
                busy = gather_time + gemm_time / _OPT_SLICES + slice_cost
            else:
                busy = gemm_time + gather_time / _OPT_SLICES + slice_cost
            return (
                busy + overhead, gather_time, kv_bytes / peak_bandwidth,
                context_hi, UNBOUNDED,
            )

        return opt_fn
    if implementation == "cuda-paged-attention":
        read_bw = spec.memory.bandwidth * _A100_PAGED_EFFICIENCY
        matrix_peak = spec.matrix.peak(dtype) * 0.50
        launch = spec.kernel_launch_overhead

        def a100_fn(total_context: int, total_blocks: int, max_context: int):
            kv_bytes = float(total_blocks) * block_bytes
            read = kv_bytes / read_bw
            compute = flops_coeff * total_context / matrix_peak
            if read >= compute:
                busy = read
                context_hi = read_bound_limit(total_context, read, matrix_peak)
            else:
                busy = compute
                context_hi = total_context
            return (
                busy + launch, read, kv_bytes / peak_bandwidth,
                context_hi, UNBOUNDED,
            )

        return a100_fn
    raise ValueError(f"unknown paged-attention implementation {implementation!r}")


# ----------------------------------------------------------------------
def reference_paged_attention(
    query: np.ndarray,
    kv_blocks: np.ndarray,
    block_table: np.ndarray,
    seq_lens: Sequence[int],
    block_size: int,
) -> np.ndarray:
    """Functional paged attention (numpy), for correctness tests.

    ``query``: ``[batch, heads, dim]``; ``kv_blocks``: ``[num_blocks,
    2, block_size, dim]`` (K in slot 0, V in slot 1); ``block_table``:
    ``[batch, max_blocks]`` of block ids (padded entries ignored via
    ``seq_lens``).  Single KV head for simplicity; GQA replicates it.
    """
    query = np.asarray(query, dtype=np.float64)
    kv_blocks = np.asarray(kv_blocks, dtype=np.float64)
    batch, heads, dim = query.shape
    out = np.zeros_like(query)
    for b in range(batch):
        length = int(seq_lens[b])
        nblocks = math.ceil(length / block_size)
        keys = np.concatenate(
            [kv_blocks[block_table[b, i], 0] for i in range(nblocks)], axis=0
        )[:length]
        values = np.concatenate(
            [kv_blocks[block_table[b, i], 1] for i in range(nblocks)], axis=0
        )[:length]
        for h in range(heads):
            scores = keys @ query[b, h] / math.sqrt(dim)
            scores -= scores.max()
            weights = np.exp(scores)
            weights /= weights.sum()
            out[b, h] = weights @ values
    return out
