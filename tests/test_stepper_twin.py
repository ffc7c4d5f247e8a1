"""The compiled decode stepper is a bit-exact twin of the from-scratch
step assembly.

``LlamaCostModel.decode_stepper`` prices one decode step as one
fixed-arity expression per activity field over a folded attention
twin (DESIGN.md §10).  Every serving report the vectorized core writes
rests on it returning the same bits as ``decode_step_stats`` assembled
from scratch with memoization off, so this property covers the whole
configuration space the engines can reach: every registered backend,
all four decode-attention kinds, both pool block sizes, graphs on and
off, static bucketing, and tensor parallelism on healthy and degraded
fabrics.  CI also runs this file under ``REPRO_NO_MEMO=1``.
"""

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
