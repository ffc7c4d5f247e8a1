"""The compiled decode stepper and prefill pricer are bit-exact twins
of the from-scratch assemblies.

``LlamaCostModel.decode_stepper`` prices one decode step as one
fixed-arity expression per activity field over a folded attention
twin (DESIGN.md §10).  Every serving report the vectorized core writes
rests on it returning the same bits as ``decode_step_stats`` assembled
from scratch with memoization off, so this property covers the whole
configuration space the engines can reach: every registered backend,
all four decode-attention kinds, both pool block sizes, graphs on and
off, static bucketing, and tensor parallelism on healthy and degraded
fabrics.  ``LlamaCostModel.prefill_pricer`` gets the same treatment
against ``_prefill_uncached``, plus explicit cases at the edges of its
branches: the GEMM rows' quotient classes, the FusedSDPA SRAM spill and
the tensor-core skinny-shape derate.  CI also runs this file under
``REPRO_NO_MEMO=1``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import FabricHealth
from repro.core import memo
from repro.faults.chaos import build_degraded_collectives
from repro.hw.backend import get_backend, list_backends
from repro.hw.power import ActivityAccumulator
from repro.models.llama import (
    LLAMA_3_1_70B,
    LLAMA_3_1_8B,
    DecodeAttention,
    DecodeBatchStats,
    LlamaCostModel,
)
from repro.models.tensor_parallel import TensorParallelConfig

FIELDS = (
    "matrix_seconds", "matrix_active_weighted", "vector_seconds",
    "memory_seconds", "comm_seconds",
)

#: TP fabric states: the plain library, then a degraded view with a
#: slow link or a dead device (the Fig. 10 port cliff).
FABRICS = ("healthy", "slow-link", "dead-device")


def _tp_config(backend: str, degree: int, fabric: str) -> TensorParallelConfig:
    if degree == 1:
        return TensorParallelConfig(degree=1)
    if fabric == "healthy":
        return TensorParallelConfig.for_device(get_backend(backend), degree)
    health = FabricHealth()
    tp = build_degraded_collectives(backend, degree, health)[0]
    if fabric == "slow-link":
        health.set_link_factor(0, 1, 0.25)
    else:
        health.fail_device(3)
    return tp


def _fields(acc: ActivityAccumulator):
    return tuple(getattr(acc, name) for name in FIELDS)


@settings(max_examples=300, deadline=None)
@given(
    backend=st.sampled_from(list_backends()),
    config=st.sampled_from((LLAMA_3_1_8B, LLAMA_3_1_70B)),
    attention=st.sampled_from(list(DecodeAttention)),
    block_size=st.sampled_from((16, 128)),
    use_graphs=st.booleans(),
    static_bucket=st.sampled_from((1, 128)),
    degree=st.sampled_from((1, 8)),
    fabric=st.sampled_from(FABRICS),
    contexts=st.lists(st.integers(1, 8192), min_size=1, max_size=64),
)
def test_stepper_is_bit_exact_twin_of_scratch_assembly(
    backend, config, attention, block_size, use_graphs, static_bucket,
    degree, fabric, contexts,
):
    model = LlamaCostModel(
        config, get_backend(backend), tp=_tp_config(backend, degree, fabric),
        use_graphs=use_graphs, static_bucket=static_bucket,
    )
    stats = DecodeBatchStats.from_context_lens(contexts, block_size)
    acc = ActivityAccumulator()
    time = model.decode_stepper(stats.batch, attention, block_size)(
        stats.total_context, stats.total_blocks, stats.max_context, acc
    )
    with memo.disabled():
        scratch = model.decode_step_stats(stats, attention)
    assert time == scratch.time
    assert _fields(acc) == _fields(scratch.activity)


def _assert_prefill_twin(backend, config, degree, fabric, batch, seq_len, use_graphs=True):
    model = LlamaCostModel(
        config, get_backend(backend), tp=_tp_config(backend, degree, fabric),
        use_graphs=use_graphs,
    )
    phase = model.prefill_pricer(batch)(seq_len, model.tp)
    reference = model._prefill_uncached(batch, seq_len)
    assert phase.time == reference.time
    assert _fields(phase.activity) == _fields(reference.activity)


@settings(max_examples=300, deadline=None)
@given(
    backend=st.sampled_from(list_backends()),
    config=st.sampled_from((LLAMA_3_1_8B, LLAMA_3_1_70B)),
    use_graphs=st.booleans(),
    degree=st.sampled_from((1, 2, 8)),
    fabric=st.sampled_from(FABRICS),
    batch=st.integers(1, 64),
    seq_len=st.integers(1, 16384),
)
def test_prefill_pricer_is_bit_exact_twin_of_reference(
    backend, config, use_graphs, degree, fabric, batch, seq_len,
):
    _assert_prefill_twin(backend, config, degree, fabric, batch, seq_len, use_graphs)


#: (backend, config, TP degree, batch, seq_len) on both sides of each
#: branch edge the pricer's twins take.
_PREFILL_EDGES = (
    # GEMM-row quotient classes: ceil(tokens / 32) on gaudi2's MME,
    # ceil(tokens / 64) on gaudi3's and on a100's CTA tiles.
    ("gaudi2", LLAMA_3_1_8B, 1, 1, 32),
    ("gaudi2", LLAMA_3_1_8B, 1, 1, 33),
    ("gaudi2", LLAMA_3_1_8B, 1, 3, 11),
    ("gaudi3", LLAMA_3_1_8B, 1, 1, 64),
    ("gaudi3", LLAMA_3_1_8B, 1, 1, 65),
    ("a100", LLAMA_3_1_8B, 1, 2, 32),
    ("a100", LLAMA_3_1_8B, 1, 2, 33),
    # FusedSDPA spills once batch * heads * min(seq, 512) * seq * 2 B
    # exceeds the SRAM (48 MiB on gaudi2, 96 MiB on gaudi3).
    ("gaudi2", LLAMA_3_1_8B, 1, 1, 1536),
    ("gaudi2", LLAMA_3_1_8B, 1, 1, 1537),
    ("gaudi2", LLAMA_3_1_8B, 8, 1, 12288),
    ("gaudi2", LLAMA_3_1_8B, 8, 1, 12289),
    ("gaudi2", LLAMA_3_1_70B, 1, 2, 443),
    ("gaudi2", LLAMA_3_1_70B, 1, 2, 444),
    ("gaudi3", LLAMA_3_1_8B, 1, 1, 3072),
    ("gaudi3", LLAMA_3_1_8B, 1, 1, 3073),
    # Tensor-core skinny derate: min(m, n) < 128.
    ("a100", LLAMA_3_1_8B, 1, 1, 127),
    ("a100", LLAMA_3_1_8B, 1, 1, 128),
    ("a100", LLAMA_3_1_8B, 2, 2, 63),
    ("a100", LLAMA_3_1_8B, 2, 2, 64),
    ("a100", LLAMA_3_1_70B, 8, 1, 127),
    ("a100", LLAMA_3_1_70B, 8, 1, 128),
)


@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("backend,config,degree,batch,seq_len", _PREFILL_EDGES)
def test_prefill_pricer_branch_edges(backend, config, degree, batch, seq_len, fabric):
    memo.clear_caches()
    _assert_prefill_twin(backend, config, degree, fabric, batch, seq_len)
