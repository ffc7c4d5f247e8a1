"""Every serving configuration prices on the fast path.

One short ``serve`` per registered backend x TP degree (1, 4, 8) x
fabric state (healthy, or one link degraded at TP 4 and 8) x observer
(none, a traced ``RunContext``, a metrics-only ``RunContext``) with the
backend's default decode attention, plus one unobserved TP 1 ``serve``
per other decode-attention kind, each with memoization on from cleared
caches.  Wrappers this
file installs count the slow paths a configuration could fall onto:

* ``_prefill_uncached`` and ``_decode_step_uncached``, the from-scratch
  references, never run (a cold prompt length prices through the
  compiled prefill pricer, a decode step through a compiled stepper);
* ``_build_stepper`` runs at most once per runner count and fabric
  state;
* outside stepper builds, ``Device.gemm`` prices only the LM head, once
  per prefill pricer: every other GEMM of a cold prompt length goes
  through the device's per-shape row.

Observing a run, with or without a tracer, must not change any of
this.  A streamed ``serve`` also enters the step loop
(``LlmServingEngine._advance_fast``) once per run, however many
arrivals it feeds.
"""

import collections

import pytest

from repro.api import RunContext
from repro.audit import audit_scope
from repro.comm import FabricHealth
from repro.core import memo
from repro.hw.backend import get_backend, list_backends
from repro.hw.device import Device
from repro.models.llama import (
    LLAMA_3_1_8B,
    DecodeAttention,
    LlamaCostModel,
    default_decode_attention,
)
from repro.models.tensor_parallel import TensorParallelConfig
from repro.serving import LlmServingEngine, dynamic_sonnet_requests
from repro.serving.loadgen import poisson_arrivals

#: Every registered platform.
CASES = [
    (backend, degree, fabric)
    for backend in list_backends()
    for degree, fabric in (
        (1, "healthy"),
        (4, "healthy"),
        (4, "degraded-link"),
        (8, "healthy"),
        (8, "degraded-link"),
    )
]

#: Each decode-attention kind the engine serves on a backend besides its default.
ATTENTION_CASES = [
    (backend, attention)
    for backend in list_backends()
    for attention in DecodeAttention
    if attention is not default_decode_attention(get_backend(backend))
]

#: How a run is observed: not at all, a tracer plus metrics, metrics only.
OBSERVERS = {
    "plain": lambda: None,
    "traced": RunContext.create,
    "metrics-only": lambda: RunContext.create(trace=False),
}


@pytest.fixture
def counted(monkeypatch):
    """Counts the slow-path entry points; ``stepper_builds`` is keyed
    by ``(batch, fabric key)``, ``gemm`` lists the ``(k, n)`` shapes
    priced outside stepper builds."""
    calls = collections.Counter()
    calls.stepper_builds = collections.Counter()
    calls.gemm = []
    in_build = []

    def count(name, original):
        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LlamaCostModel, name, wrapper)

    for name in ("_prefill_uncached", "_decode_step_uncached", "_build_prefill_pricer"):
        count(name, getattr(LlamaCostModel, name))

    build_stepper = LlamaCostModel._build_stepper

    def counted_build(self, batch, *args):
        calls.stepper_builds[(batch, self._fabric_key())] += 1
        in_build.append(True)
        try:
            return build_stepper(self, batch, *args)
        finally:
            in_build.pop()

    monkeypatch.setattr(LlamaCostModel, "_build_stepper", counted_build)

    gemm = Device.gemm

    def counted_gemm(self, m, k, n, *args, **kwargs):
        if not in_build:
            calls.gemm.append((k, n))
        return gemm(self, m, k, n, *args, **kwargs)

    monkeypatch.setattr(Device, "gemm", counted_gemm)
    return calls


@pytest.fixture
def memo_on():
    """Memo on from empty caches, audit off: the file also runs under
    ``REPRO_NO_MEMO=1``, and a sampled audit recompute takes the
    from-scratch references on purpose."""
    previous = memo.memoization_enabled()
    memo.set_enabled(True)
    memo.clear_caches()
    try:
        with audit_scope("off"):
            yield
    finally:
        memo.set_enabled(previous)


def _tp(backend: str, degree: int, fabric: str) -> TensorParallelConfig:
    if fabric == "healthy":
        return TensorParallelConfig.for_device(get_backend(backend), degree)
    health = FabricHealth()
    library = get_backend(backend).collective_library().degraded(health) if degree > 1 else None
    tp = TensorParallelConfig(degree=degree, library=library)
    health.set_link_factor(0, 1, 0.25)
    return tp


def _serve_on_the_fast_path(counted, model, attention, degree, ctx=None, workload=None):
    engine = LlmServingEngine(model, attention, max_decode_batch=16, ctx=ctx)
    report = engine.run(dynamic_sonnet_requests(24, seed=1) if workload is None else workload)
    assert report.finished_requests == 24
    assert counted["_prefill_uncached"] == 0
    assert counted["_decode_step_uncached"] == 0
    assert counted.stepper_builds and set(counted.stepper_builds.values()) == {1}
    lm_head = (LLAMA_3_1_8B.hidden_size, LLAMA_3_1_8B.vocab_size // degree)
    assert set(counted.gemm) <= {lm_head}
    assert len(counted.gemm) <= counted["_build_prefill_pricer"]


@pytest.mark.parametrize("observer", OBSERVERS)
@pytest.mark.parametrize(
    "backend,degree,fabric", CASES, ids=[f"{b}-tp{d}-{f}" for b, d, f in CASES]
)
def test_serve_stays_on_the_fast_path(backend, degree, fabric, observer, counted, memo_on):
    device = get_backend(backend)
    model = LlamaCostModel(LLAMA_3_1_8B, device, tp=_tp(backend, degree, fabric))
    ctx = OBSERVERS[observer]()
    _serve_on_the_fast_path(counted, model, default_decode_attention(device), degree, ctx)
    if ctx is not None and degree > 1:
        assert ctx.metrics.counter("comm.allreduce.calls").value > 0


@pytest.mark.parametrize(
    "backend,attention", ATTENTION_CASES,
    ids=[f"{b}-{a.value}" for b, a in ATTENTION_CASES],
)
def test_every_decode_attention_stays_on_the_fast_path(backend, attention, counted, memo_on):
    model = LlamaCostModel(LLAMA_3_1_8B, get_backend(backend))
    _serve_on_the_fast_path(counted, model, attention, degree=1)


@pytest.mark.parametrize("observer", OBSERVERS)
def test_streamed_serve_enters_the_step_loop_once(observer, counted, memo_on, monkeypatch):
    """24 arrivals spread over idle gaps and busy stretches feed from
    inside one ``_advance_fast`` call, on the fast path."""
    entries = []
    advance_fast = LlmServingEngine._advance_fast

    def counted_advance_fast(self, *args, **kwargs):
        entries.append(self)
        return advance_fast(self, *args, **kwargs)

    monkeypatch.setattr(LlmServingEngine, "_advance_fast", counted_advance_fast)
    device = get_backend("gaudi2")
    arrivals = iter(poisson_arrivals(dynamic_sonnet_requests(24, seed=1), 6.0, seed=2))
    _serve_on_the_fast_path(
        counted, LlamaCostModel(LLAMA_3_1_8B, device), default_decode_attention(device),
        1, OBSERVERS[observer](), arrivals,
    )
    assert len(entries) == 1
