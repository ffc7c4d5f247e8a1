"""Llama-3.1 decoder cost models (Table 3; Figures 12, 13, 17).

The model walks one decoder layer's operator list with the device's
GEMM/attention/collective models and accumulates time and engine
activity.  Prefill runs dense fused attention; decode runs either the
serving backend's static KV-cache attention (the optimum-habana /
TensorRT-LLM setup of Section 3.5) or one of the PagedAttention
implementations (the vLLM setup of Section 4.2).
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence, Tuple

from repro.audit import ConfigError, get_auditor
from repro.core import memo
from repro.core.memo import ClosureCache, CostCache, DictFamily
from repro.hw.device import Device
from repro.hw.power import ActivityAccumulator, PowerModel
from repro.hw.spec import DType
from repro.kernels.attention import AttentionConfig, attention_time, build_attention_fn
from repro.kernels.elementwise import (
    ACTIVATION_FLOPS,
    LAYERNORM_FLOPS,
    activation_cost,
    elementwise_fn,
    layernorm_cost,
)
from repro.kernels.paged_attention import (
    DEFAULT_BLOCK_SIZE,
    UNBOUNDED,
    PagedAttentionStats,
    a100_paged_attention,
    build_paged_time_fn,
    vllm_base_paged_attention,
    vllm_opt_paged_attention,
)
from repro.models.tensor_parallel import TensorParallelConfig

#: Per-layer dispatch overhead with CUDA Graphs / HPU Graphs enabled.
_LAYER_DISPATCH = 1.5e-6

#: Per-layer dispatch overhead in eager mode (per-op host launches).
_LAYER_DISPATCH_EAGER = 45e-6


#: Cross-instance compiled decode steppers: fleet and figure sweeps
#: build many short-lived engines over the same (device, config) pair,
#: and a drained batch walks every batch size down to 1 -- sharing the
#: compiled closures turns those rebuilds into dictionary hits.
_SHARED_STEPPERS = ClosureCache("llama.decode_stepper", maxsize=4096)

#: Read-bound decode pieces one compiled pricer keeps (see
#: ``LlamaCostModel._build_stepper``): a serve run visits a few hundred
#: block sums per batch size.
_PIECE_MEMO_SIZE = 1024

#: Every paged pricer's piece memo, counted as one cache.
_DECODE_PIECES = DictFamily("llama.decode_piece")

#: Cross-instance end-to-end generation estimates, keyed on the pricing
#: identity, the fabric fault state and the call shape: figure sweeps
#: build a fresh model per grid point and revisit the same points.
_GENERATE_CACHE = CostCache("llama.generate")

#: Cross-instance phase-estimate caches, keyed by the same pricing
#: identity as the shared steppers: device singleton, frozen config,
#: graphs/bucket knobs and the tensor-parallel pricing key (degree plus
#: the collective library's static identity).  The fabric's live fault
#: state enters every per-call key instead (see ``_fabric_key``).  The
#: dict holds strong references so ``clear_caches`` keeps finding them
#: after the models that created them are gone.
_SHARED_PHASE_CACHES: dict = {}


def _phase_caches(identity: tuple, label: str):
    """The (prefill, decode-terms, prefill-pricer) caches for one
    pricing identity, created on first use and shared by every later
    model with the same identity."""
    caches = _SHARED_PHASE_CACHES.get(identity)
    if caches is None:
        caches = _SHARED_PHASE_CACHES[identity] = (
            CostCache(f"llama.prefill[{label}]", maxsize=2048),
            CostCache(f"llama.decode_terms[{label}]", maxsize=1024),
            ClosureCache(f"llama.prefill_pricer[{label}]", maxsize=256),
        )
    return caches


class DecodeAttention(enum.Enum):
    """Which decode-attention path the serving backend uses."""

    STATIC = "static"          # contiguous KV cache (optimum-habana / TRT-LLM)
    PAGED_BASE = "paged-base"  # Gaudi vLLM fork baseline (BlockTable)
    PAGED_OPT = "paged-opt"    # optimized BlockList PagedAttention
    PAGED_CUDA = "paged-cuda"  # vLLM's native CUDA kernel


#: The kernel each paged decode-attention path prices through.
_PAGED_IMPLEMENTATIONS = {
    DecodeAttention.PAGED_BASE: "vllm-base",
    DecodeAttention.PAGED_OPT: "vllm-opt",
    DecodeAttention.PAGED_CUDA: "cuda-paged-attention",
}


def default_decode_attention(device) -> "DecodeAttention":
    """The decode-attention path a backend's serving stack defaults to.

    Reads the backend's ``decode_attention`` capability string (part of
    the :class:`repro.hw.backend.Backend` protocol), so any registered
    platform -- not just the original pair -- picks its natural kernel.
    """
    return DecodeAttention(getattr(device, "decode_attention", "paged-opt"))


@dataclass(frozen=True)
class LlamaConfig:
    """Decoder configuration (Table 3 of the paper)."""

    name: str
    num_layers: int
    hidden_size: int
    intermediate_size: int
    q_heads: int
    kv_heads: int
    vocab_size: int
    dtype: DType = DType.BF16

    def __post_init__(self) -> None:
        for field_name in (
            "num_layers", "hidden_size", "intermediate_size",
            "q_heads", "kv_heads", "vocab_size",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.hidden_size % self.q_heads != 0:
            raise ValueError("hidden_size must be divisible by q_heads")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.q_heads

    @property
    def num_parameters(self) -> float:
        h, i, v = self.hidden_size, self.intermediate_size, self.vocab_size
        qkv = h * (self.q_heads + 2 * self.kv_heads) * self.head_dim
        o = h * h
        mlp = 3 * h * i
        per_layer = qkv + o + mlp + 2 * h
        return self.num_layers * per_layer + 2 * v * h

    @property
    def weight_bytes(self) -> float:
        return self.num_parameters * self.dtype.itemsize

    def kv_bytes_per_token(self) -> int:
        return 2 * self.kv_heads * self.head_dim * self.dtype.itemsize


LLAMA_3_1_8B = LlamaConfig(
    name="Llama-3.1-8B-Instruct",
    num_layers=32,
    hidden_size=4096,
    intermediate_size=14336,
    q_heads=32,
    kv_heads=8,
    vocab_size=128256,
)

LLAMA_3_1_70B = LlamaConfig(
    name="Llama-3.1-70B-Instruct",
    num_layers=80,
    hidden_size=8192,
    intermediate_size=28672,
    q_heads=64,
    kv_heads=8,
    vocab_size=128256,
)


def check_tp_degree(config: LlamaConfig, tp: int, name: str = "tp") -> None:
    """Reject a TP degree that does not split the model's query and KV
    heads evenly, naming the setting (``name``) that chose it."""
    for heads, kind in ((config.q_heads, "query"), (config.kv_heads, "KV")):
        if heads % tp:
            raise ConfigError(
                f"{name} {tp} does not divide the {heads} {kind} heads of "
                f"{config.name}"
            )


@dataclass(frozen=True)
class PhaseEstimate:
    """One phase (prefill, or a batch of decode steps)."""

    time: float
    activity: ActivityAccumulator

    def merged(self, other: "PhaseEstimate") -> "PhaseEstimate":
        acc = ActivityAccumulator()
        acc.merge(self.activity)
        acc.merge(other.activity)
        return PhaseEstimate(time=self.time + other.time, activity=acc)


@dataclass(frozen=True)
class DecodeBatchStats:
    """Order-independent aggregates of one decode batch's KV contexts.

    Decode-step cost depends on the per-request context lengths only
    through four integer aggregates (sum, KV-block sum, max, batch), so
    the serving engine can maintain these incrementally instead of
    rebuilding a length list every step.
    """

    batch: int
    total_context: int
    total_blocks: int
    max_context: int
    block_size: int = DEFAULT_BLOCK_SIZE

    @classmethod
    def from_context_lens(
        cls, context_lens: Sequence[int], block_size: int = DEFAULT_BLOCK_SIZE
    ) -> "DecodeBatchStats":
        lens = [int(c) for c in context_lens]
        if not lens:
            raise ValueError("need at least one context length")
        if any(c <= 0 for c in lens):
            raise ValueError("context lengths must be positive")
        return cls(
            batch=len(lens),
            total_context=sum(lens),
            total_blocks=sum((c + block_size - 1) // block_size for c in lens),
            max_context=max(lens),
            block_size=block_size,
        )

    @classmethod
    def uniform(
        cls, batch: int, context_len: int, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> "DecodeBatchStats":
        """:meth:`from_context_lens` of ``[context_len] * batch`` in O(1)."""
        if batch <= 0:
            raise ValueError("need at least one context length")
        if context_len <= 0:
            raise ValueError("context lengths must be positive")
        return cls(
            batch=batch,
            total_context=batch * context_len,
            total_blocks=batch * ((context_len + block_size - 1) // block_size),
            max_context=context_len,
            block_size=block_size,
        )


#: One priced decode piece: ``(time, matrix_s, weighted_matrix_s,
#: vector_s, memory_s, comm_s, context_hi, blocks_hi, max_hi)``.  The
#: first six are one step's time and activity increments; they hold for
#: every step whose aggregates grew from the priced ``(total_context,
#: total_blocks, max_context)`` without passing the box's upper corner
#: ``(context_hi, blocks_hi, max_hi)`` (see LlamaCostModel.decode_stepper).
DecodePiece = Tuple[float, float, float, float, float, float, int, int, int]


@dataclass(frozen=True)
class GenerationEstimate:
    """End-to-end generation of ``output_len`` tokens for a batch."""

    device: str
    config_name: str
    batch: int
    input_len: int
    output_len: int
    prefill_time: float
    decode_time: float
    average_power: float

    @property
    def total_time(self) -> float:
        return self.prefill_time + self.decode_time

    @property
    def total_tokens(self) -> int:
        return self.batch * self.output_len

    @property
    def tokens_per_second(self) -> float:
        return self.total_tokens / self.total_time if self.total_time > 0 else 0.0

    @property
    def energy_joules(self) -> float:
        return self.average_power * self.total_time

    @property
    def tokens_per_joule(self) -> float:
        return self.total_tokens / self.energy_joules if self.energy_joules > 0 else 0.0


class LlamaCostModel:
    """Per-phase cost model of one Llama configuration on one device."""

    def __init__(
        self,
        config: LlamaConfig,
        device: Device,
        tp: Optional[TensorParallelConfig] = None,
        use_graphs: bool = True,
        static_bucket: int = 1,
    ) -> None:
        """``use_graphs`` models the CUDA Graphs / HPU Graphs tuning
        knob of Section 3.5: captured graphs replay with a tiny
        per-layer dispatch, eager mode pays per-op host launches.

        ``static_bucket`` models optimum-habana's static-shape
        bucketing: Gaudi's compiled graphs are shape-specialized, so
        the static KV cache is padded up to the next multiple of the
        bucket (1 = exact shapes, i.e. no bucketing cost).
        """
        if static_bucket < 1:
            raise ValueError("static_bucket must be >= 1")
        self.config = config
        self.device = device
        self.tp = tp or TensorParallelConfig(degree=1)
        self.use_graphs = use_graphs
        self.static_bucket = static_bucket
        self.tp.shard(config.q_heads, "q_heads")
        if self.tp.degree > 1:
            self.tp.shard(config.kv_heads, "kv_heads")
        library = self.tp.library
        #: ``_fabric_key()`` is the TP fabric's live fault state as a
        #: memo-key component: degraded topology views price collectives
        #: against it, so every phase cache keys on it (``()`` without a
        #: library).  Bound once: the serving engine reads it per call.
        self._fabric_key = tuple if library is None else library.topology.cache_key
        # Everything a price depends on besides the call shape and the
        # fabric fault state (see _fabric_key): the key of the shared
        # phase caches and of every shared stepper.
        self._pricing_identity = (
            device, config, use_graphs, static_bucket, self.tp.pricing_key(),
        )
        label = f"{device.name}/{config.name}"
        if not use_graphs or static_bucket != 1:
            label += f"/graphs={use_graphs}/bucket={static_bucket}"
        if self.tp.degree != 1:
            label += f"/tp={self.tp.degree}"
        # Cached PhaseEstimates are shared between calls and models, so
        # callers must treat them (and their activity accumulators) as
        # read-only.
        self._prefill_cache, self._decode_terms_cache, self._pricer_cache = (
            _phase_caches(self._pricing_identity, label)
        )
        # Compiled per-(attention, batch, fault state) step closures;
        # pure in the aggregates, so a plain dict (no audit interplay)
        # is sound.  Cross-instance reuse goes through _SHARED_STEPPERS
        # (see decode_stepper).
        self._stepper_cache: dict = {}

    @property
    def _layer_dispatch(self) -> float:
        return _LAYER_DISPATCH if self.use_graphs else _LAYER_DISPATCH_EAGER

    def pricing_key(self) -> Hashable:
        """Static pricing identity plus the fabric's live fault state:
        the leading component of every key a cache shared across model
        instances uses (``generate``'s, and the figure-level lookups
        above it)."""
        return (self._pricing_identity, self._fabric_key())

    def collectives(self, tokens: int) -> Tuple[Tuple[float, float], ...]:
        """The ``(seconds, bytes)`` AllReduces one prefill or decode
        step over ``tokens`` tokens runs, in order: the two activation
        AllReduces of a decoder layer at the fabric's current fault
        state, or ``()`` when there is no exchange (TP 1, or fewer than
        two live participants).  Pricing folds their time in; this is
        how an observer learns they ran."""
        tp = self.tp
        if tp.effective_degree() < 2:
            return ()
        size_bytes = tokens * self.config.hidden_size * self.config.dtype.itemsize
        allreduce = (tp.allreduce_time(size_bytes), size_bytes)
        return (allreduce, allreduce)

    # -- helpers ---------------------------------------------------------
    def _gemm(
        self, acc: ActivityAccumulator, m: int, k: int, n: int
    ) -> float:
        result = self.device.gemm(m, k, n, self.config.dtype)
        dtype_peak = self.device.spec.matrix.peak(self.config.dtype)
        acc.add_matrix(result.flops / dtype_peak, result.active_mac_fraction)
        itemsize = self.config.dtype.itemsize
        traffic = itemsize * (k * n + m * k + m * n)
        acc.add_memory(traffic / self.device.peak_bandwidth)
        return result.time

    def _allreduce(self, acc: ActivityAccumulator, size_bytes: float) -> float:
        time = self.tp.allreduce_time(size_bytes)
        acc.add_comm(time)
        return time

    def _elementwise(self, acc: ActivityAccumulator, cost) -> float:
        stream_bw = (
            self.device.spec.memory.bandwidth
            * self.device.spec.memory.stream_efficiency
        )
        time = max(cost.compute_time, (cost.input_bytes + cost.output_bytes) / stream_bw)
        acc.add_vector(cost.compute_time)
        acc.add_memory(
            (cost.input_bytes + cost.output_bytes) / self.device.peak_bandwidth
        )
        return time

    # -- phases ----------------------------------------------------------
    def prefill(self, batch: int, seq_len: int) -> PhaseEstimate:
        """Process the whole prompt; produces the first token.

        A phase-cache miss prices through the compiled
        :meth:`prefill_pricer`.  The from-scratch assembly
        (:meth:`_prefill_uncached`, the reference the pricer is pinned
        to) runs with memoization off and for a sampled audit
        recompute, so both ``REPRO_NO_MEMO=1`` and the memo-equivalence
        check compare two independent paths.
        """
        if batch <= 0 or seq_len <= 0:
            raise ValueError("batch and seq_len must be positive")
        key = (batch, seq_len, self._fabric_key())
        cache = self._prefill_cache
        phase = cache.get(key)
        if phase is None:
            # Price and store builtins: a numpy length would put a numpy
            # time in the shared cache for every later caller.  (A numpy
            # key still finds the builtin entry: hash and == agree.)
            batch, seq_len = int(batch), int(seq_len)
            key = (batch, seq_len, key[2])
            if cache.verifying(key):
                # Recompute from scratch without filling the device and
                # kernel caches the pricer never reads.
                with memo.disabled():
                    phase = self._prefill_uncached(batch, seq_len)
            elif memo.memoization_enabled():
                phase = self.prefill_pricer(batch)(seq_len, self.tp)
            else:
                phase = self._prefill_uncached(batch, seq_len)
            cache.put(key, phase)
        return phase

    def prefill_pricer(
        self, batch: int
    ) -> Callable[[int, TensorParallelConfig], PhaseEstimate]:
        """Compile a prefill pricing closure for a fixed batch.

        The returned ``pricer(seq_len, tp)`` is bit-identical to
        :meth:`_prefill_uncached` in time and every activity field.
        Everything that does not depend on ``seq_len`` is folded at
        build time -- the LM head included, the one GEMM priced through
        ``Device.gemm`` -- and each sequence-dependent term is a
        per-shape twin: :meth:`Device.gemm_row` for the four layer
        GEMMs, the fused-attention and element-wise twins for the rest.
        The AllReduces run live through ``tp`` (the calling model's), so
        a degraded fabric prices them at its current fault state.
        Pricers are shared across models with the same pricing identity.
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        pricer = self._pricer_cache.get(batch)
        if pricer is None:
            pricer = self._build_prefill_pricer(batch)
            self._pricer_cache.put(batch, pricer)
        return pricer

    def _build_prefill_pricer(
        self, batch: int
    ) -> Callable[[int, TensorParallelConfig], PhaseEstimate]:
        """:meth:`_prefill_uncached` as one expression per field.

        Each field replays the reference's left-to-right chain of
        accumulator additions (its leading ``0.0 +`` dropped: every
        first term is positive), is scaled by the layer count, and then
        takes the LM head's folded share -- comm excepted, which is
        never scaled and has no LM-head term.
        """
        cfg, tp, device = self.config, self.tp, self.device
        spec, dtype = device.spec, cfg.dtype
        hidden, hd, layers = cfg.hidden_size, cfg.head_dim, cfg.num_layers
        inter, degree = cfg.intermediate_size, tp.degree
        itemsize = dtype.itemsize
        peak_bw = device.peak_bandwidth
        stream_bw = spec.memory.bandwidth * spec.memory.stream_efficiency
        dtype_peak = spec.matrix.peak(dtype)
        dispatch = self._layer_dispatch

        def gemm_term(k: int, n: int):
            row = device.gemm_row(k, n, dtype)
            kn, k_plus_n = k * n, k + n

            def term(m: int) -> Tuple[float, float, float, float]:
                time, fraction = row(m)
                busy = 2.0 * m * k * n / dtype_peak
                traffic = itemsize * (kn + m * k_plus_n)
                return time, busy, busy * fraction, traffic / peak_bw

            return term

        qkv = gemm_term(hidden, tp.shard((cfg.q_heads + 2 * cfg.kv_heads) * hd, "qkv width"))
        oproj = gemm_term(tp.shard(cfg.q_heads * hd, "o-proj"), hidden)
        up = gemm_term(hidden, tp.shard(2 * inter, "mlp up"))
        down = gemm_term(tp.shard(inter, "mlp down"), hidden)
        attend = build_attention_fn(
            device, batch, cfg.q_heads // degree, max(1, cfg.kv_heads // degree),
            hd, dtype,
        )
        layernorm = elementwise_fn(spec, LAYERNORM_FLOPS, dtype=dtype)
        activation = elementwise_fn(spec, ACTIVATION_FLOPS, dtype=dtype)
        lm = ActivityAccumulator()
        lm_t = self._gemm(lm, batch, hidden, tp.shard(cfg.vocab_size, "lm head"))
        lm_m, lm_w, lm_mem = lm.matrix_seconds, lm.matrix_active_weighted, lm.memory_seconds

        def pricer(seq_len: int, tp: TensorParallelConfig) -> PhaseEstimate:
            tokens = batch * seq_len
            ln_c, ln_bytes = layernorm(tokens * hidden)
            ln_t = max(ln_c, ln_bytes / stream_bw)
            ln_mem = ln_bytes / peak_bw
            q_t, q_m, q_w, q_mem = qkv(tokens)
            a_t, a_c, a_mem = attend(seq_len)
            a_m = min(a_c, a_t)
            a_mem = min(a_mem, a_t)
            o_t, o_m, o_w, o_mem = oproj(tokens)
            ar1 = tp.allreduce_time(tokens * hidden * itemsize)
            u_t, u_m, u_w, u_mem = up(tokens)
            act_c, act_bytes = activation(tokens * inter // degree)
            act_t = max(act_c, act_bytes / stream_bw)
            act_mem = act_bytes / peak_bw
            d_t, d_m, d_w, d_mem = down(tokens)
            ar2 = tp.allreduce_time(tokens * hidden * itemsize)
            acc = ActivityAccumulator()
            acc.matrix_seconds = (q_m + a_m + o_m + u_m + d_m) * layers + lm_m
            acc.matrix_active_weighted = (q_w + a_m + o_w + u_w + d_w) * layers + lm_w
            acc.vector_seconds = (ln_c + ln_c + act_c) * layers
            acc.memory_seconds = (
                (ln_mem + q_mem + a_mem + o_mem + ln_mem + u_mem + act_mem + d_mem)
                * layers + lm_mem
            )
            acc.comm_seconds = ar1 + ar2
            time = (
                (ln_t + q_t + a_t + o_t + ar1 + ln_t + u_t + act_t + d_t + ar2 + dispatch)
                * layers + lm_t
            )
            return PhaseEstimate(time=time, activity=acc)

        return pricer

    def _prefill_uncached(self, batch: int, seq_len: int) -> PhaseEstimate:
        cfg, tp = self.config, self.tp
        acc = ActivityAccumulator()
        tokens = batch * seq_len
        hd = cfg.head_dim
        time = 0.0
        # one decoder layer
        time += self._elementwise(acc, layernorm_cost(self.device.spec, tokens * cfg.hidden_size, cfg.dtype))
        qkv_n = tp.shard((cfg.q_heads + 2 * cfg.kv_heads) * hd, "qkv width")
        time += self._gemm(acc, tokens, cfg.hidden_size, qkv_n)
        attn = attention_time(
            self.device,
            AttentionConfig(
                batch=batch,
                q_heads=cfg.q_heads // tp.degree,
                kv_heads=max(1, cfg.kv_heads // tp.degree),
                head_dim=hd,
                seq_q=seq_len,
                seq_kv=seq_len,
                dtype=cfg.dtype,
            ),
        )
        time += attn.time
        acc.add_matrix(
            min(attn.compute_time, attn.time), 1.0
        )
        acc.add_memory(min(attn.memory_time, attn.time))
        time += self._gemm(acc, tokens, tp.shard(cfg.q_heads * hd, "o-proj"), cfg.hidden_size)
        time += self._allreduce(acc, tokens * cfg.hidden_size * cfg.dtype.itemsize)
        time += self._elementwise(acc, layernorm_cost(self.device.spec, tokens * cfg.hidden_size, cfg.dtype))
        time += self._gemm(acc, tokens, cfg.hidden_size, tp.shard(2 * cfg.intermediate_size, "mlp up"))
        time += self._elementwise(acc, activation_cost(self.device.spec, tokens * cfg.intermediate_size // tp.degree, cfg.dtype))
        time += self._gemm(acc, tokens, tp.shard(cfg.intermediate_size, "mlp down"), cfg.hidden_size)
        time += self._allreduce(acc, tokens * cfg.hidden_size * cfg.dtype.itemsize)
        time += self._layer_dispatch
        time *= cfg.num_layers
        _scale_activity(acc, cfg.num_layers)
        # LM head for the first token only.
        time += self._gemm(acc, batch, cfg.hidden_size, tp.shard(cfg.vocab_size, "lm head"))
        return PhaseEstimate(time=time, activity=acc)

    def decode_step(
        self,
        batch: int,
        context_len,
        attention: DecodeAttention = DecodeAttention.STATIC,
    ) -> PhaseEstimate:
        """Generate one token per request.

        ``context_len`` is either a single KV length shared by the batch
        or a per-request sequence of lengths (continuous batching).
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        if isinstance(context_len, numbers.Real):
            stats = DecodeBatchStats.uniform(batch, int(context_len))
        else:
            context_lens = [int(c) for c in context_len]
            if len(context_lens) != batch:
                raise ValueError("context_len sequence must match batch size")
            stats = DecodeBatchStats.from_context_lens(context_lens)
        return self.decode_step_stats(stats, attention)

    def decode_step_stats(
        self,
        stats: DecodeBatchStats,
        attention: DecodeAttention = DecodeAttention.STATIC,
    ) -> PhaseEstimate:
        """:meth:`decode_step` priced from batch aggregates.

        The serving engine keeps the batch aggregates as running state;
        this entry point skips the per-request length walk entirely.
        With the memo available it takes the step's price from the same
        compiled :meth:`decode_stepper` piece pricer the engine uses
        (bit-identical by construction).  With memoization off it
        assembles the step from scratch instead -- so ``REPRO_NO_MEMO=1``
        compares two independent paths.
        """
        if memo.memoization_enabled():
            piece = self.decode_stepper(stats.batch, attention, stats.block_size)(
                stats.total_context, stats.total_blocks, stats.max_context
            )
            acc = ActivityAccumulator()
            (
                time, acc.matrix_seconds, acc.matrix_active_weighted,
                acc.vector_seconds, acc.memory_seconds, acc.comm_seconds,
            ) = piece[:6]
            return PhaseEstimate(time=time, activity=acc)
        return self._decode_step_uncached(stats, attention)

    def _decode_step_uncached(
        self, stats: DecodeBatchStats, attention: DecodeAttention
    ) -> PhaseEstimate:
        """One decode step assembled from scratch: the reference the
        compiled :meth:`decode_stepper` is pinned to."""
        terms = self._decode_terms_uncached(stats.batch)
        ln1, qkv, oproj, ar1, ln2, up, act, down, ar2, lm_head = terms
        cfg = self.config
        acc = ActivityAccumulator()
        time = 0.0
        time += ln1[0]
        acc.merge(ln1[1])
        time += qkv[0]
        acc.merge(qkv[1])
        time += self._decode_attention(acc, stats, attention)
        for term_time, term_acc in (oproj, ar1, ln2, up, act, down, ar2):
            time += term_time
            acc.merge(term_acc)
        time += self._layer_dispatch
        time *= cfg.num_layers
        _scale_activity(acc, cfg.num_layers)
        time += lm_head[0]
        acc.merge(lm_head[1])
        return PhaseEstimate(time=time, activity=acc)

    def _decode_terms(self, batch: int):
        """Per-call (time, activity) pairs for the non-attention slices
        of one decode layer plus the LM head, memoized per batch size
        and fabric fault state."""
        key = (batch, self._fabric_key())
        terms = self._decode_terms_cache.get(key)
        if terms is None:
            terms = self._decode_terms_uncached(batch)
            self._decode_terms_cache.put(key, terms)
        return terms

    def _decode_terms_uncached(self, batch: int):
        cfg, tp = self.config, self.tp
        hd = cfg.head_dim

        def term(fn):
            acc = ActivityAccumulator()
            return (fn(acc), acc)

        spec = self.device.spec
        return (
            term(lambda acc: self._elementwise(
                acc, layernorm_cost(spec, batch * cfg.hidden_size, cfg.dtype))),
            term(lambda acc: self._gemm(
                acc, batch, cfg.hidden_size,
                tp.shard((cfg.q_heads + 2 * cfg.kv_heads) * hd, "qkv"))),
            term(lambda acc: self._gemm(
                acc, batch, tp.shard(cfg.q_heads * hd, "o-proj"), cfg.hidden_size)),
            term(lambda acc: self._allreduce(
                acc, batch * cfg.hidden_size * cfg.dtype.itemsize)),
            term(lambda acc: self._elementwise(
                acc, layernorm_cost(spec, batch * cfg.hidden_size, cfg.dtype))),
            term(lambda acc: self._gemm(
                acc, batch, cfg.hidden_size, tp.shard(2 * cfg.intermediate_size, "mlp up"))),
            term(lambda acc: self._elementwise(
                acc, activation_cost(spec, batch * cfg.intermediate_size // tp.degree, cfg.dtype))),
            term(lambda acc: self._gemm(
                acc, batch, tp.shard(cfg.intermediate_size, "mlp down"), cfg.hidden_size)),
            term(lambda acc: self._allreduce(
                acc, batch * cfg.hidden_size * cfg.dtype.itemsize)),
            term(lambda acc: self._gemm(
                acc, batch, cfg.hidden_size, tp.shard(cfg.vocab_size, "lm head"))),
        )

    def _decode_attention(
        self,
        acc: ActivityAccumulator,
        stats: DecodeBatchStats,
        attention: DecodeAttention,
    ) -> float:
        """Add the decode-attention term for ``stats`` into ``acc`` and
        return its time."""
        cfg, tp = self.config, self.tp
        batch = stats.batch
        kv_heads = max(1, cfg.kv_heads // tp.degree)
        q_heads = cfg.q_heads // tp.degree
        if attention is DecodeAttention.STATIC:
            # Static bucketed KV cache: padded to the longest context,
            # then up to the shape bucket the compiled graph was built
            # for (optimum-habana's bucketing).
            padded_len = stats.max_context
            bucket = self.static_bucket
            padded_len = ((padded_len + bucket - 1) // bucket) * bucket
            kv_bytes = (
                2.0 * batch * kv_heads * cfg.head_dim * padded_len
                * cfg.dtype.itemsize
            )
            stream_bw = (
                self.device.spec.memory.bandwidth
                * self.device.spec.memory.stream_efficiency
            )
            time = kv_bytes / stream_bw
            acc.add_memory(kv_bytes / self.device.peak_bandwidth)
            flops = 4.0 * batch * q_heads * padded_len * cfg.head_dim
            acc.add_matrix(flops / self.device.spec.matrix.peak(cfg.dtype), 0.5)
            return time
        paged = PagedAttentionStats(
            batch=batch,
            total_context=stats.total_context,
            total_blocks=stats.total_blocks,
            max_context=stats.max_context,
            q_heads=q_heads,
            kv_heads=kv_heads,
            head_dim=cfg.head_dim,
            block_size=stats.block_size,
            dtype=cfg.dtype,
        )
        if attention is DecodeAttention.PAGED_BASE:
            result = vllm_base_paged_attention(paged, self.device.spec)
        elif attention is DecodeAttention.PAGED_OPT:
            result = vllm_opt_paged_attention(paged, self.device.spec)
        elif attention is DecodeAttention.PAGED_CUDA:
            result = a100_paged_attention(paged, self.device.spec)
        else:
            raise ValueError(f"unknown decode attention {attention!r}")
        acc.add_memory(paged.kv_bytes / self.device.peak_bandwidth)
        acc.add_vector(min(result.gather_time, result.time))
        return result.time

    # -- serving-engine step pricing ---------------------------------------
    def decode_stepper(
        self,
        batch: int,
        attention: DecodeAttention,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> Callable[[int, int, int], DecodePiece]:
        """Compile a decode-piece pricer for a fixed batch (at the
        fabric's current fault state).

        The returned ``price(total_context, total_blocks, max_context)``
        gives a :data:`DecodePiece`: one step's time and its five
        activity increments, bit-identical to the from-scratch assembly
        in :meth:`decode_step_stats`, plus the box of aggregates over
        which all six hold (DESIGN.md §10).  Everything that does not
        depend on the context aggregates is folded at build time, and
        the serving engine calls the pricer once per piece, not once
        per step.  With auditing on, a paged pricer comes back in its
        audited form, which re-verifies a sampled share of its piece
        memo's hits.
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        # A TP stepper folds comm_step at build time, so the fault state
        # belongs in both keys.
        key = (attention, batch, block_size, self._fabric_key())
        stepper = self._stepper_cache.get(key)
        if stepper is None:
            shared_key = (self._pricing_identity, key)
            stepper = _SHARED_STEPPERS.get(shared_key)
            if stepper is None:
                stepper = self._build_stepper(batch, attention, block_size)
                _SHARED_STEPPERS.put(shared_key, stepper)
            self._stepper_cache[key] = stepper
        if get_auditor() is not None:
            return getattr(stepper, "audited", stepper)
        return stepper

    def _build_stepper(
        self, batch: int, attention: DecodeAttention, block_size: int
    ) -> Callable[[int, int, int], DecodePiece]:
        """One step's pricing as one fixed-arity expression per field.

        Each field replays the from-scratch assembly's left-to-right
        chain (DESIGN.md §10): the sum starts at 0.0, adds ln1 and qkv
        (one folded prefix), the attention term, then every post-
        attention term in order, zeros included -- ``x + 0.0 == x``
        for the non-negative partials, so no term is skipped or
        regrouped -- and is scaled by the layer count before the LM
        head lands.  A field the attention term never moves (matrix and
        weighted matrix for paged attention, vector for static, comm
        always) is that whole chain evaluated once at build time.
        """
        terms = self._decode_terms(batch)
        layers = self.config.num_layers
        (ln1_t, ln1), (qkv_t, qkv), (lm_t, lm) = terms[0], terms[1], terms[9]
        suffix = terms[2:9]

        def prefix(name: str) -> float:
            return 0.0 + getattr(ln1, name) + getattr(qkv, name)

        def chain(name: str) -> Tuple[float, ...]:
            return tuple(getattr(acc, name) for _, acc in suffix)

        def folded(name: str, scale: int) -> float:
            total = prefix(name)
            for value in chain(name):
                total += value
            return total * scale + getattr(lm, name)

        pre_t = 0.0 + ln1_t + qkv_t
        t1, t2, t3, t4, t5, t6, t7 = (t for t, _ in suffix)
        t8 = self._layer_dispatch
        pre_mem = prefix("memory_seconds")
        e1, e2, e3, e4, e5, e6, e7 = chain("memory_seconds")
        lm_mem = lm.memory_seconds
        # Comm is never scaled by the layer count (_scale_activity).
        comm_step = folded("comm_seconds", 1)
        cfg, tp = self.config, self.tp
        kv_heads = max(1, cfg.kv_heads // tp.degree)
        q_heads = cfg.q_heads // tp.degree
        hd = cfg.head_dim
        peak_bw = self.device.peak_bandwidth

        if attention is DecodeAttention.STATIC:
            spec = self.device.spec
            bucket = self.static_bucket
            itemsize = cfg.dtype.itemsize
            stream_bw = spec.memory.bandwidth * spec.memory.stream_efficiency
            dtype_peak = spec.matrix.peak(cfg.dtype)
            # Folded prefixes of _decode_attention's products; both are
            # exact integer-valued floats, so the association is free.
            kv_coeff = 2.0 * batch * kv_heads * hd
            flops_coeff = 4.0 * batch * q_heads
            pre_m = prefix("matrix_seconds")
            m1, m2, m3, m4, m5, m6, m7 = chain("matrix_seconds")
            lm_m = lm.matrix_seconds
            pre_w = prefix("matrix_active_weighted")
            w1, w2, w3, w4, w5, w6, w7 = chain("matrix_active_weighted")
            lm_w = lm.matrix_active_weighted
            v_step = folded("vector_seconds", layers)

            def static_piece(
                total_context: int, total_blocks: int, max_context: int
            ) -> DecodePiece:
                # The piece is one padded length: every max_context up
                # to the bucket edge.
                padded_len = ((max_context + bucket - 1) // bucket) * bucket
                kv_bytes = kv_coeff * padded_len * itemsize
                a_m = flops_coeff * padded_len * hd / dtype_peak
                return (
                    (pre_t + kv_bytes / stream_bw + t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8)
                    * layers + lm_t,
                    (pre_m + a_m + m1 + m2 + m3 + m4 + m5 + m6 + m7) * layers + lm_m,
                    (pre_w + a_m * 0.5 + w1 + w2 + w3 + w4 + w5 + w6 + w7) * layers
                    + lm_w,
                    v_step,
                    (pre_mem + kv_bytes / peak_bw + e1 + e2 + e3 + e4 + e5 + e6 + e7)
                    * layers + lm_mem,
                    comm_step,
                    UNBOUNDED, UNBOUNDED, padded_len,
                )

            return static_piece

        implementation = _PAGED_IMPLEMENTATIONS.get(attention)
        if implementation is None:
            raise ValueError(f"unknown decode attention {attention!r}")
        attend = build_paged_time_fn(
            implementation, batch, self.device.spec, cfg.dtype,
            q_heads=q_heads, kv_heads=kv_heads, head_dim=hd,
            block_size=block_size, peak_bandwidth=peak_bw,
        )
        m_step = folded("matrix_seconds", layers)
        w_step = folded("matrix_active_weighted", layers)
        pre_v = prefix("vector_seconds")
        v1, v2, v3, v4, v5, v6, v7 = chain("vector_seconds")
        lm_v = lm.vector_seconds

        # Read-bound pieces by total_blocks.  When the twin says a piece
        # depends on neither max_context nor (below context_hi) the
        # context sum, it is the piece of every aggregate triple with
        # that block sum and a context sum up to context_hi, so a later
        # call there returns it without repricing.  Bounded, off with
        # memoization, and counted as one cache (_DECODE_PIECES).
        pieces: dict = {}
        capacity = _PIECE_MEMO_SIZE if memo.memoization_enabled() else 0
        family = _DECODE_PIECES

        def paged_piece(
            total_context: int, total_blocks: int, max_context: int
        ) -> DecodePiece:
            piece = pieces.get(total_blocks)
            if piece is not None and total_context <= piece[6]:
                family.hits += 1
                return piece
            if capacity:
                family.misses += 1
            a_t, a_v, a_mem, context_hi, max_hi = attend(
                total_context, total_blocks, max_context
            )
            # Memory reads total_blocks, so a piece never spans a block.
            piece = (
                (pre_t + a_t + t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8) * layers + lm_t,
                m_step,
                w_step,
                (pre_v + a_v + v1 + v2 + v3 + v4 + v5 + v6 + v7) * layers + lm_v,
                (pre_mem + a_mem + e1 + e2 + e3 + e4 + e5 + e6 + e7) * layers + lm_mem,
                comm_step,
                context_hi, total_blocks, max_hi,
            )
            # context_hi > total_context only while the read term wins.
            if max_hi == UNBOUNDED and context_hi > total_context and len(pieces) < capacity:
                pieces[total_blocks] = piece
            return piece

        def audited_piece(
            total_context: int, total_blocks: int, max_context: int
        ) -> DecodePiece:
            """``paged_piece`` under the memo-equivalence audit: a
            sampled hit is dropped, repriced through ``attend`` (counted
            as a miss, stored again) and compared with what it held."""
            piece = pieces.get(total_blocks)
            if piece is not None and total_context <= piece[6]:
                auditor = get_auditor()
                if auditor is not None and auditor.should_verify_memo():
                    del pieces[total_blocks]
                    fresh = paged_piece(total_context, total_blocks, max_context)
                    auditor.on_memo_result(family.name, total_blocks, piece, fresh)
                    return fresh
            return paged_piece(total_context, total_blocks, max_context)

        paged_piece.audited = audited_piece
        family.adopt(paged_piece, pieces)
        return paged_piece

    # -- end-to-end --------------------------------------------------------
    def generate(
        self,
        batch: int,
        input_len: int,
        output_len: int,
        attention: DecodeAttention = DecodeAttention.STATIC,
        decode_samples: int = 8,
    ) -> GenerationEstimate:
        """Fixed-length generation (the Section 3.5 serving setup)."""
        # Builtins in the shared cache's key and estimate (see prefill).
        batch, input_len, output_len = int(batch), int(input_len), int(output_len)
        if output_len <= 0 or decode_samples <= 0:
            raise ValueError("output_len and decode_samples must be positive")
        key = (
            self.pricing_key(), batch, input_len, output_len, attention,
            decode_samples,
        )
        cached = _GENERATE_CACHE.get(key)
        if cached is not None:
            return cached
        prefill = self.prefill(batch, input_len)
        # Sample decode steps across the growing context and integrate.
        acc = ActivityAccumulator()
        acc.merge(prefill.activity)
        decode_time = 0.0
        samples = min(decode_samples, output_len)
        step_span = output_len / samples
        for i in range(samples):
            ctx = input_len + int((i + 0.5) * step_span)
            step = self.decode_step(batch, ctx, attention)
            decode_time += step.time * step_span
            _merge_scaled(acc, step.activity, step_span)
        total = prefill.time + decode_time
        profile = acc.profile(total)
        power = PowerModel(self.device.spec.power).power(profile)
        estimate = GenerationEstimate(
            device=self.device.name,
            config_name=self.config.name,
            batch=batch,
            input_len=input_len,
            output_len=output_len,
            prefill_time=prefill.time,
            decode_time=decode_time,
            average_power=power,
        )
        _GENERATE_CACHE.put(key, estimate)
        return estimate

    # -- capacity ----------------------------------------------------------
    def max_kv_tokens(self) -> int:
        """KV-cache token capacity after weights (per TP shard)."""
        capacity = self.device.spec.memory.capacity_bytes * 0.92
        weights = self.config.weight_bytes / self.tp.degree
        free = capacity - weights
        per_token = self.config.kv_bytes_per_token() * self.config.num_layers / self.tp.degree
        return max(0, int(free / per_token))


def _scale_activity(acc: ActivityAccumulator, factor: float) -> None:
    acc.matrix_seconds *= factor
    acc.matrix_active_weighted *= factor
    acc.vector_seconds *= factor
    acc.memory_seconds *= factor


def _merge_scaled(acc: ActivityAccumulator, other: ActivityAccumulator, factor: float) -> None:
    acc.matrix_seconds += other.matrix_seconds * factor
    acc.matrix_active_weighted += other.matrix_active_weighted * factor
    acc.vector_seconds += other.vector_seconds * factor
    acc.memory_seconds += other.memory_seconds * factor
