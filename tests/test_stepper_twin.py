"""The compiled decode-piece pricer and prefill pricer are bit-exact
twins of the from-scratch assemblies.

``LlamaCostModel.decode_stepper`` prices one decode step as one
fixed-arity expression per activity field over a folded attention
twin, and returns the box of aggregates the price holds over
(DESIGN.md §10).  Every serving report the vectorized core writes
rests on it returning the same bits as ``decode_step_stats`` assembled
from scratch with memoization off, for the priced step and for every
later step of a burst that stays in the box, so these properties cover
the whole configuration space the engines can reach: every registered
backend, all four decode-attention kinds, both pool block sizes, graphs
on and off, static bucketing, and tensor parallelism on healthy and
degraded fabrics.  Explicit cases pin each box edge, and an engine
differential runs a serve and a chaos fleet with every step priced from
scratch.  ``LlamaCostModel.prefill_pricer`` gets the same treatment
against ``_prefill_uncached``, plus explicit cases at the edges of its
branches: the GEMM rows' quotient classes, the FusedSDPA SRAM spill and
the tensor-core skinny-shape derate; every device's GEMM row is pinned
to ``Device.gemm``.  CI also runs this file under ``REPRO_NO_MEMO=1``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import FabricHealth
from repro.core import memo
from repro.hw.backend import get_backend, list_backends
from repro.hw.power import ActivityAccumulator
from repro.hw.spec import DType
from repro.kernels.paged_attention import UNBOUNDED
from repro.models.llama import (
    LLAMA_3_1_70B,
    LLAMA_3_1_8B,
    DecodeAttention,
    DecodeBatchStats,
    LlamaConfig,
    LlamaCostModel,
)
from repro.models.tensor_parallel import TensorParallelConfig
from repro.serving import LlmServingEngine
from tests import engine_goldens

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
    tp = TensorParallelConfig(
        degree=degree, library=get_backend(backend).collective_library().degraded(health)
    )
    if fabric == "slow-link":
        health.set_link_factor(0, 1, 0.25)
    else:
        health.fail_device(3)
    return tp


#: Wide query heads over few KV heads: the decode-attention compute term
#: (4 q d per token) outgrows the KV read once blocks fill up, at TP 1
#: and TP 8 alike, so the read-bound box edge falls inside a burst.
_COMPUTE_BOUND = LlamaConfig(
    name="compute-bound-probe", num_layers=2, hidden_size=65536,
    intermediate_size=8192, q_heads=1024, kv_heads=8, vocab_size=1024,
)

CONFIGS = (LLAMA_3_1_8B, LLAMA_3_1_70B, _COMPUTE_BOUND)


def _fields(acc: ActivityAccumulator):
    return tuple(getattr(acc, name) for name in FIELDS)


def _model(backend, config, degree, fabric, use_graphs=True, static_bucket=1):
    return LlamaCostModel(
        config, get_backend(backend), tp=_tp_config(backend, degree, fabric),
        use_graphs=use_graphs, static_bucket=static_bucket,
    )


def _scratch(model, stats, attention):
    with memo.disabled():
        return model.decode_step_stats(stats, attention)


def _assert_piece_matches(piece, phase):
    assert piece[0] == phase.time
    assert piece[1:6] == _fields(phase.activity)


def _in_box(stats, box):
    context_hi, blocks_hi, max_hi = box
    return (
        stats.total_context <= context_hi
        and stats.total_blocks <= blocks_hi
        and stats.max_context <= max_hi
    )


@settings(max_examples=300, deadline=None)
@given(
    backend=st.sampled_from(list_backends()),
    config=st.sampled_from(CONFIGS),
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
    model = _model(backend, config, degree, fabric, use_graphs, static_bucket)
    stats = DecodeBatchStats.from_context_lens(contexts, block_size)
    piece = model.decode_stepper(stats.batch, attention, block_size)(
        stats.total_context, stats.total_blocks, stats.max_context
    )
    _assert_piece_matches(piece, _scratch(model, stats, attention))
    assert _in_box(stats, piece[6:])
    # The box's far corner (where bounded) prices the same.
    context_hi, blocks_hi, max_hi = piece[6:]
    assert blocks_hi in (stats.total_blocks, UNBOUNDED)
    total = stats.total_context if context_hi == UNBOUNDED else context_hi
    longest = max_hi if max_hi <= total else stats.max_context
    corner = DecodeBatchStats(stats.batch, total, stats.total_blocks, longest, block_size)
    _assert_piece_matches(piece, _scratch(model, corner, attention))


def _walk(model, attention, contexts, steps, block_size=128):
    """``steps`` decode steps over ``contexts``, priced the way a decode
    burst prices them: a new piece only when the aggregates leave the
    last piece's box.  Returns, per step, the step its piece was priced
    at and the piece, plus each step assembled from scratch with
    memoization off."""
    price = model.decode_stepper(len(contexts), attention, block_size)
    starts, pieces, phases, box = [], [], [], None
    for step in range(steps):
        stats = DecodeBatchStats.from_context_lens(
            [c + step for c in contexts], block_size
        )
        if box is None or not _in_box(stats, box):
            piece = price(stats.total_context, stats.total_blocks, stats.max_context)
            box, start = piece[6:], step
        starts.append(start)
        pieces.append(piece)
        phases.append(_scratch(model, stats, attention))
    return starts, pieces, phases


@settings(max_examples=100, deadline=None)
@given(
    backend=st.sampled_from(list_backends()),
    config=st.sampled_from(CONFIGS),
    attention=st.sampled_from(list(DecodeAttention)),
    block_size=st.sampled_from((16, 128)),
    static_bucket=st.sampled_from((1, 16, 128)),
    degree=st.sampled_from((1, 8)),
    fabric=st.sampled_from(FABRICS),
    contexts=st.lists(st.integers(1, 4096), min_size=1, max_size=32),
    steps=st.integers(1, 300),
)
def test_burst_of_pieces_equals_per_step_scratch_pricing(
    backend, config, attention, block_size, static_bucket, degree, fabric,
    contexts, steps,
):
    """A run of steps that crosses blocks (and buckets) sums to the same
    clock and activity, bit for bit, piece by piece as step by step."""
    model = _model(backend, config, degree, fabric, static_bucket=static_bucket)
    _, pieces, phases = _walk(model, attention, contexts, steps, block_size)
    clock, fields = 0.0, [0.0] * 5
    for piece in pieces:
        clock += piece[0]
        fields = [total + value for total, value in zip(fields, piece[1:6])]
    scratch_clock, acc = 0.0, ActivityAccumulator()
    for phase in phases:
        scratch_clock += phase.time
        acc.merge(phase.activity)
    assert (clock, tuple(fields)) == (scratch_clock, _fields(acc))


def _piece_starts(model, attention, contexts, steps):
    """:func:`_walk`'s piece starts, with every step checked."""
    starts, pieces, phases = _walk(model, attention, contexts, steps)
    for piece, phase in zip(pieces, phases):
        _assert_piece_matches(piece, phase)
    return starts, pieces


def test_block_crossing_ends_a_paged_piece():
    # 127 + 2 crosses its 128-token block on the second step.
    model = LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2"))
    starts, pieces = _piece_starts(model, DecodeAttention.PAGED_OPT, [127, 300], 3)
    assert pieces[0][7] == 4 and starts == [0, 0, 2]
    assert pieces[2][4] > pieces[0][4]  # one more block read


@pytest.mark.parametrize("backend,attention", [
    ("a100", DecodeAttention.PAGED_CUDA),
    ("gaudi2", DecodeAttention.PAGED_OPT),
    ("gaudi2", DecodeAttention.PAGED_BASE),
])
def test_paged_piece_spans_steps_inside_a_block(backend, attention):
    model = LlamaCostModel(LLAMA_3_1_8B, get_backend(backend))
    starts, _ = _piece_starts(model, attention, [129, 140], 100)
    assert starts == [0] * 100


def test_static_bucket_edge_ends_a_piece():
    model = LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2"), static_bucket=128)
    starts, pieces = _piece_starts(model, DecodeAttention.STATIC, [120, 30], 12)
    assert pieces[0][8] == 128
    assert starts == [0] * 9 + [9] * 3
    assert pieces[9][0] > pieces[8][0]


def test_vllm_base_block_edge_ends_a_piece():
    # Padding follows the longest context's block count: at 129 the
    # BlockTable gains a column even though total_blocks is unchanged
    # for the short request.
    model = LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2"))
    starts, pieces = _piece_starts(model, DecodeAttention.PAGED_BASE, [127, 3], 3)
    assert pieces[0][8] == 128
    assert starts == [0, 0, 2]


def test_compute_bound_context_is_a_one_step_piece():
    model = LlamaCostModel(_COMPUTE_BOUND, get_backend("gaudi2"))
    attention = DecodeAttention.PAGED_OPT
    price = model.decode_stepper(2, attention)
    # Full blocks: compute wins and the piece is the priced sum alone.
    piece = price(256, 2, 128)
    assert piece[6] == 256
    stats = DecodeBatchStats(2, 256, 2, 128)
    _assert_piece_matches(piece, _scratch(model, stats, attention))


def test_read_bound_edge_is_the_last_context_sum_compute_loses():
    model = LlamaCostModel(_COMPUTE_BOUND, get_backend("gaudi2"))
    attention = DecodeAttention.PAGED_OPT
    price = model.decode_stepper(2, attention)
    piece = price(130, 2, 65)
    edge = piece[6]
    assert 130 < edge < 256
    for total_context, same in ((edge, True), (edge + 1, False)):
        stats = DecodeBatchStats(2, total_context, 2, 65)
        phase = _scratch(model, stats, attention)
        assert (phase.time == piece[0]) is same
        assert price(total_context, 2, 65)[6] == (edge if same else total_context)


def one_step_pricer(price_step, batch, attention):
    """A piece pricer over ``price_step(stats, attention)`` whose box is
    the priced aggregates alone, so its caller prices every step
    through ``price_step``."""

    def price(total_context, total_blocks, max_context):
        phase = price_step(
            DecodeBatchStats(batch, total_context, total_blocks, max_context), attention
        )
        acc = phase.activity
        return (
            phase.time, acc.matrix_seconds, acc.matrix_active_weighted,
            acc.vector_seconds, acc.memory_seconds, acc.comm_seconds,
            total_context, total_blocks, max_context,
        )

    return price


class TestEngineDifferential:
    """Whole runs with every decode step priced from scratch."""

    @pytest.fixture
    def scratch_pricing(self, monkeypatch):
        def scratch_stepper(self, n):
            stepper = one_step_pricer(self.model._decode_step_uncached, n, self.attention)
            self._steppers[n] = stepper
            return stepper

        monkeypatch.setattr(LlmServingEngine, "_stepper", scratch_stepper)

    @pytest.mark.parametrize("name", ["poisson", "fleet_chaos_0"])
    def test_reports_are_byte_identical(self, name, scratch_pricing):
        payload = engine_goldens.CASES[name]()
        assert engine_goldens.digest(payload) == engine_goldens.load_goldens()[name]


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
    ("h100", LLAMA_3_1_8B, 1, 1, 127),
    ("h100", LLAMA_3_1_8B, 1, 1, 128),
    # ceil(tokens / 64) on h100's tile heights.
    ("h100", LLAMA_3_1_8B, 1, 1, 64),
    ("h100", LLAMA_3_1_8B, 1, 1, 65),
    ("h100", LLAMA_3_1_70B, 8, 3, 43),
)


@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("backend,config,degree,batch,seq_len", _PREFILL_EDGES)
def test_prefill_pricer_branch_edges(backend, config, degree, batch, seq_len, fabric):
    memo.clear_caches()
    _assert_prefill_twin(backend, config, degree, fabric, batch, seq_len)


@settings(max_examples=300, deadline=None)
@given(
    backend=st.sampled_from(list_backends()),
    dtype=st.sampled_from(list(DType)),
    k=st.integers(1, 32768),
    n=st.integers(1, 32768),
    ms=st.lists(st.integers(1, 20000), min_size=1, max_size=8),
)
def test_gemm_row_is_bit_exact_twin_of_gemm(backend, dtype, k, n, ms):
    """Every device's GEMM row, the first ``m`` of a class filling its
    table and the rest reading it, against ``Device.gemm``."""
    device = get_backend(backend)
    row = device.gemm_row(k, n, dtype)
    for m in ms + [127, 128, 1]:
        with memo.disabled():
            result = device.gemm(m, k, n, dtype)
        assert row(m) == (result.time, result.active_mac_fraction)
