"""Cost-surface catalogue: what the surrogate fits, and how to sample it.

Each :class:`Surface` names one exact cost model, the structured lattice
it is sampled over, the predictor family that fits it, and the
certificate tolerance it must meet on held-out points.  The catalogue is
deliberately *data*: the fitting pipeline (:mod:`repro.surrogate.fitting`)
iterates it, and the per-surface exact evaluators are the held-out
oracles its certificates are measured against.

Lattice conventions
-------------------
Shape-like axes are geometric (``per_octave`` values per doubling) so
relative interpolation error is uniform across scales.  Axes the cost
models treat as categorical -- tensor-parallel degree, collective
participants -- are ``exact``-match: off-lattice queries fall back to
the exact model rather than interpolating across topology changes.
The paged-attention surface is tabulated over *KV blocks* rather than
context length: decode cost is a function of ``ceil(context / 128)``,
so interpolating in block space steps over the block-quantization
cliffs that defeat a context-space table (measured: 7-25% error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

__all__ = [
    "ATTENTION_HEAD_DIM",
    "ATTENTION_KV_HEADS",
    "ATTENTION_Q_HEADS",
    "COLLECTIVE_OPS",
    "COLLECTIVE_PARTICIPANTS",
    "PAGED_BLOCK_SIZE",
    "Surface",
    "SURFACES",
    "geometric_lattice",
    "surface_names",
]

#: Default certificate tolerance (held-out max relative error bound).
DEFAULT_TOLERANCE = 0.05

#: Llama-3-style GQA attention head layout the attention/paged surfaces
#: are tabulated for (heads shard by the exact-match TP axis).
ATTENTION_Q_HEADS = 32
ATTENTION_KV_HEADS = 8
ATTENTION_HEAD_DIM = 128
#: KV block size the paged surface's block axis is quantized in.
PAGED_BLOCK_SIZE = 128

#: Tensor-parallel degrees the attention/paged tables cover.
TP_DEGREES = (1, 2, 4, 8)
#: Collective participant counts the fabric tables cover.
COLLECTIVE_PARTICIPANTS = (2, 4, 8)
#: Collective op value strings with fitted tables (one surface each).
COLLECTIVE_OPS = ("all_reduce", "all_gather", "reduce_scatter", "all_to_all")


def geometric_lattice(lo: int, hi: int, per_octave: int) -> List[int]:
    """Deduplicated integer lattice with ``per_octave`` points per
    doubling, inclusive of both endpoints."""
    steps = int(round(math.log2(hi / lo) * per_octave))
    values: List[int] = []
    for step in range(steps + 1):
        value = int(round(lo * 2.0 ** (step / per_octave)))
        if not values or value > values[-1]:
            values.append(value)
    if values[-1] != hi:
        values.append(hi)
    return values


@dataclass(frozen=True)
class Surface:
    """One fitted cost surface (see module docstring)."""

    name: str
    #: Predictor family: "structured-gemm" | "log-grid".
    family: str
    #: Ordered axis declarations (log-grid) or sampling grid (gemm).
    axes: Tuple[Dict, ...]
    #: ``evaluate(device, point) -> float`` against the exact model.
    evaluate: Callable
    #: Held-out max relative error the certificate must stay under.
    tolerance: float = DEFAULT_TOLERANCE
    #: Held-out points drawn per certificate.
    holdout_points: int = 128
    extra: Dict = field(default_factory=dict)

    def lattice_points(self) -> List[Tuple[int, ...]]:
        """Row-major cartesian product of the axis lattices."""
        points: List[Tuple[int, ...]] = [()]
        for axis in self.axes:
            points = [p + (v,) for p in points for v in axis["values"]]
        return points


# -- exact evaluators --------------------------------------------------
def _attention_heads(tp: int) -> Tuple[int, int]:
    return ATTENTION_Q_HEADS // tp, max(1, ATTENTION_KV_HEADS // tp)


def eval_gemm(device, point: Tuple[int, ...]) -> float:
    """Exact BF16 GEMM time for an ``(m, k, n, batch)`` point."""
    m, k, n, batch = point
    return device.gemm(m, k, n, batch=batch).time


def eval_attention(device, point: Tuple[int, ...]) -> float:
    """Exact prefill attention time for a ``(tp, batch, seq)`` point."""
    from repro.kernels.attention import AttentionConfig, attention_time

    tp, batch, seq = point
    q_heads, kv_heads = _attention_heads(tp)
    config = AttentionConfig(
        batch=batch, q_heads=q_heads, kv_heads=kv_heads,
        head_dim=ATTENTION_HEAD_DIM, seq_q=seq, seq_kv=seq,
    )
    return attention_time(device, config).time


def eval_paged(device, point: Tuple[int, ...]) -> float:
    """Exact decode paged-attention time for a ``(tp, batch, blocks)`` point."""
    tp, batch, blocks = point
    return exact_paged_time(device, tp, batch, blocks * PAGED_BLOCK_SIZE)


def exact_paged_time(device, tp: int, batch: int, context: int) -> float:
    """Exact per-layer decode paged-attention time for one device."""
    from repro.kernels.paged_attention import (
        PagedAttentionConfig,
        a100_paged_attention,
        vllm_opt_paged_attention,
    )

    q_heads, kv_heads = _attention_heads(tp)
    config = PagedAttentionConfig.uniform(
        batch=batch, seq_len=context, q_heads=q_heads, kv_heads=kv_heads,
        head_dim=ATTENTION_HEAD_DIM, block_size=PAGED_BLOCK_SIZE,
    )
    impl = vllm_opt_paged_attention if device.family == "gaudi" else a100_paged_attention
    return impl(config, device.spec).time


def _collective_evaluator(op_value: str) -> Callable:
    def evaluate(device, point: Tuple[int, ...]) -> float:
        from repro.comm.collectives import CollectiveOp

        size, participants = point
        library = device.collective_library(max(COLLECTIVE_PARTICIPANTS))
        return library.run(CollectiveOp(op_value), size, participants).time

    return evaluate


def eval_stream(device, point: Tuple[int, ...]) -> float:
    """Exact TPC STREAM-triad time for a ``(num_elements,)`` point."""
    from repro.kernels.stream import StreamOp, run_stream

    (num_elements,) = point
    return run_stream(device=device, op=StreamOp.TRIAD, num_elements=num_elements).time


# -- catalogue ---------------------------------------------------------
def _build_surfaces() -> Dict[str, Surface]:
    shape_lattice = geometric_lattice(16, 16384, 2)
    surfaces: Dict[str, Surface] = {}

    surfaces["gemm"] = Surface(
        name="gemm",
        family="structured-gemm",
        axes=(
            {"name": "m", "values": shape_lattice, "mode": "interp"},
            {"name": "k", "values": [16, 512, 16384], "mode": "interp"},
            {"name": "n", "values": shape_lattice, "mode": "interp"},
            {"name": "batch", "values": [1, 4], "mode": "interp"},
        ),
        evaluate=eval_gemm,
        holdout_points=160,
    )

    surfaces["attention"] = Surface(
        name="attention",
        family="structured-attention",
        axes=(
            {"name": "tp", "values": list(TP_DEGREES), "mode": "exact"},
            {"name": "batch",
             "values": [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64],
             "mode": "interp"},
            {"name": "seq", "values": geometric_lattice(128, 16384, 4),
             "mode": "interp"},
        ),
        evaluate=eval_attention,
    )

    surfaces["paged"] = Surface(
        name="paged",
        family="log-grid",
        axes=(
            {"name": "tp", "values": list(TP_DEGREES), "mode": "exact"},
            {"name": "batch",
             "values": [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128],
             "mode": "interp"},
            {"name": "blocks", "values": geometric_lattice(1, 128, 4),
             "mode": "interp"},
        ),
        evaluate=eval_paged,
    )

    for op_value in COLLECTIVE_OPS:
        surfaces[f"collective.{op_value}"] = Surface(
            name=f"collective.{op_value}",
            family="log-grid",
            axes=(
                {"name": "size", "values": geometric_lattice(1 << 10, 1 << 30, 2),
                 "mode": "interp"},
                {"name": "participants", "values": list(COLLECTIVE_PARTICIPANTS),
                 "mode": "exact"},
            ),
            evaluate=_collective_evaluator(op_value),
            holdout_points=64,
            extra={"op": op_value},
        )

    surfaces["tpc_stream"] = Surface(
        name="tpc_stream",
        family="log-grid",
        axes=(
            {"name": "num_elements",
             "values": geometric_lattice(1 << 14, 1 << 26, 4),
             "mode": "interp"},
        ),
        evaluate=eval_stream,
        holdout_points=48,
    )
    return surfaces


#: The full catalogue, keyed by surface name (deterministic order).
SURFACES: Dict[str, Surface] = _build_surfaces()


def surface_names() -> List[str]:
    """Catalogue surface names in deterministic (insertion) order."""
    return list(SURFACES)
