"""The design-space sweep behind the ``design_space`` figure.

:func:`design_space_sweep` scores an MME geometry x fabric
(tensor-parallel degree) x batch-policy grid on decode throughput and a
TTFT proxy for a Llama-3-8B-shaped decoder, with every cost term (layer
GEMMs, paged attention, per-layer all-reduces, prefill attention)
served by the fitted surfaces.  Its ``exact=True`` twin prices the same
terms through the exact models, for comparison.

Model shapes follow Llama-3-8B (the paper's serving workload): 32
layers, hidden 4096, 32 query / 8 KV heads of dim 128, FFN 14336,
fused QKV and gate+up projections, TP-sharded along the head/FFN dim.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.surrogate.surfaces import ATTENTION_HEAD_DIM, exact_paged_time

__all__ = ["design_space_sweep", "LLAMA_8B"]

#: Llama-3-8B decoder dimensions (per layer, unsharded).
LLAMA_8B = {
    "layers": 32,
    "hidden": 4096,
    "q_heads": 32,
    "kv_heads": 8,
    "head_dim": ATTENTION_HEAD_DIM,
    "ffn": 14336,
    "dtype_bytes": 2,
}

#: Default design-space grid (fast mode trims each axis).
TP_GRID = (2, 4, 8)
BATCH_POLICY_GRID = (8, 16, 32, 64, 128)
CONTEXT_GRID = (1024, 4096, 16384)
#: Prompt length used by the TTFT (prefill) proxy.
PREFILL_TOKENS = 1024


def _layer_gemm_shapes(tp: int, model: Dict = LLAMA_8B) -> List[tuple]:
    """Per-layer decode GEMM ``(k, n)`` shapes at TP degree ``tp``
    (m is the token count: batch for decode, prompt tokens for prefill)."""
    hidden = model["hidden"]
    q = model["q_heads"] * model["head_dim"]
    kv = model["kv_heads"] * model["head_dim"]
    ffn = model["ffn"]
    return [
        (hidden, (q + 2 * kv) // tp),   # fused QKV projection
        (q // tp, hidden),              # attention output projection
        (hidden, 2 * ffn // tp),        # fused gate + up
        (ffn // tp, hidden),            # down projection
    ]


def _surrogate_cell(model, tp: int, batch: int, context: int,
                    shapes: Sequence[tuple], layers: int, hidden: int,
                    dtype_bytes: int) -> Dict:
    """Score one (tp, batch-policy, context) cell via fitted surfaces."""
    gemm_k = np.array([shape[0] for shape in shapes], dtype=float)
    gemm_n = np.array([shape[1] for shape in shapes], dtype=float)
    decode = model.gemm_predict(float(batch), gemm_k, gemm_n, 1.0)
    gemm_time = float(np.sum(decode["time"]))
    paged = float(model.paged_time(tp, batch, context))
    allreduce_bytes = float(batch * hidden * dtype_bytes)
    comm = 2.0 * float(model.collective_time("all_reduce", allreduce_bytes, tp))
    step = layers * (gemm_time + paged + comm)

    prefill = model.gemm_predict(float(PREFILL_TOKENS), gemm_k, gemm_n, 1.0)
    prefill_attention = float(model.attention_time(tp, 1, PREFILL_TOKENS))
    prefill_comm = 2.0 * float(
        model.collective_time("all_reduce", float(PREFILL_TOKENS * hidden * dtype_bytes), tp)
    )
    ttft = layers * (float(np.sum(prefill["time"])) + prefill_attention + prefill_comm)

    labels = model.predictor("gemm").labels()
    dominant = labels[int(decode["piece"][int(np.argmax(decode["time"]))])]
    return {
        "step_time": step,
        "throughput": batch / step,
        "ttft": ttft,
        "geometry": dominant,
    }


def _exact_cell(device, tp: int, batch: int, context: int,
                shapes: Sequence[tuple], layers: int, hidden: int,
                dtype_bytes: int) -> Dict:
    """Exact twin of :func:`_surrogate_cell` (same cost terms)."""
    from repro.comm.collectives import CollectiveOp
    from repro.kernels.attention import AttentionConfig, attention_time

    decode = [device.gemm(batch, k, n) for k, n in shapes]
    gemm_time = math.fsum(r.time for r in decode)
    paged = exact_paged_time(device, tp, batch, context)
    library = device.collective_library(8)
    comm = 2.0 * library.run(
        CollectiveOp.ALL_REDUCE, float(batch * hidden * dtype_bytes), tp
    ).time
    step = layers * (gemm_time + paged + comm)

    prefill = math.fsum(device.gemm(PREFILL_TOKENS, k, n).time for k, n in shapes)
    config = AttentionConfig(
        batch=1, q_heads=LLAMA_8B["q_heads"] // tp,
        kv_heads=max(1, LLAMA_8B["kv_heads"] // tp),
        head_dim=LLAMA_8B["head_dim"], seq_q=PREFILL_TOKENS, seq_kv=PREFILL_TOKENS,
    )
    prefill_attention = attention_time(device, config).time
    prefill_comm = 2.0 * library.run(
        CollectiveOp.ALL_REDUCE, float(PREFILL_TOKENS * hidden * dtype_bytes), tp
    ).time
    ttft = layers * (prefill + prefill_attention + prefill_comm)

    worst = max(decode, key=lambda r: r.time)
    return {
        "step_time": step,
        "throughput": batch / step,
        "ttft": ttft,
        "geometry": worst.config_label,
    }


def design_space_sweep(
    backend_key: str,
    fast: bool = False,
    exact: bool = False,
    tp_grid: Optional[Sequence[int]] = None,
    batch_grid: Optional[Sequence[int]] = None,
    context_grid: Optional[Sequence[int]] = None,
) -> Dict:
    """The MME-geometry x fabric x batch-policy design-space grid.

    Returns ``{"rows": [...], "best": {...}, ...}`` where each row
    scores one cell with decode throughput (tokens/s at steady state),
    the TTFT proxy, and the dominant engine geometry label.
    """
    from repro.hw.backend import get_backend

    tps = list(tp_grid or (TP_GRID[:2] if fast else TP_GRID))
    batches = list(batch_grid or (BATCH_POLICY_GRID[:3] if fast else BATCH_POLICY_GRID))
    contexts = list(context_grid or (CONTEXT_GRID[:2] if fast else CONTEXT_GRID))

    layers = LLAMA_8B["layers"]
    hidden = LLAMA_8B["hidden"]
    dtype_bytes = LLAMA_8B["dtype_bytes"]

    if exact:
        device = get_backend(backend_key.split("@")[0], fresh=True)
    else:
        from repro.surrogate.backend import get_surrogate_model

        model = get_surrogate_model(backend_key.split("@")[0])

    rows: List[Dict] = []
    for tp in tps:
        shapes = _layer_gemm_shapes(tp)
        for batch in batches:
            for context in contexts:
                if exact:
                    cell = _exact_cell(device, tp, batch, context, shapes,
                                       layers, hidden, dtype_bytes)
                else:
                    cell = _surrogate_cell(model, tp, batch, context, shapes,
                                           layers, hidden, dtype_bytes)
                rows.append({"tp": tp, "batch": batch, "context": context, **cell})

    best = max(rows, key=lambda row: row["throughput"])
    return {
        "backend": backend_key,
        "mode": "exact" if exact else "surrogate",
        "cells": len(rows),
        "rows": rows,
        "best": best,
    }
