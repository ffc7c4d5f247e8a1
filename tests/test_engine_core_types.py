"""No numpy scalar leaks from the engine core into a Request.

The vectorized core keeps its slot columns as plain Python lists,
converts a fed request's fields to builtins once at acquisition, and
copies the columns back onto ``Request`` objects at lifecycle events
without any ``int``/``float`` unboxing, so every value it publishes
must already be a builtin.  This drives the paths that write the columns -- admission,
prefill, decode bursts, capacity preemption with checkpoints, deadline
requeues -- and checks every published field's exact type, plus byte
parity of the report with the scalar core.  CI also runs this file
under ``REPRO_NO_MEMO=1``.
"""

import numpy as np
import pytest

from repro.models.llama import DecodeAttention, LLAMA_3_1_8B, LlamaCostModel
from repro.serving import LlmServingEngine, ResiliencePolicy, dynamic_sonnet_requests
from repro.serving.loadgen import poisson_arrivals
from repro.serving.request import RetryPolicy

#: The Request fields the core writes, and the builtin types each may hold.
_FIELD_TYPES = {
    "generated": (int,),
    "checkpoint": (int,),
    "restarts": (int,),
    "retries": (int,),
    "arrival_time": (float,),
    "first_token_time": (float, type(None)),
    "finish_time": (float, type(None)),
}


def _run(device, mode, numpy_fields=False):
    engine = LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, device),
        DecodeAttention.PAGED_OPT,
        max_decode_batch=16,
        num_kv_blocks=100,
        engine_mode=mode,
        retain_requests=True,
        policy=ResiliencePolicy(
            deadline=2.0,
            checkpoint_interval=8,
            retry=RetryPolicy(max_retries=1, backoff_base=0.1),
        ),
    )
    requests = list(poisson_arrivals(
        dynamic_sonnet_requests(48, seed=5), 40.0, seed=3
    ))
    if numpy_fields:
        # What a caller building requests from numpy samples might pass.
        for request in requests:
            request.input_tokens = np.int64(request.input_tokens)
            request.output_tokens = np.int64(request.output_tokens)
            request.arrival_time = np.float64(request.arrival_time)
    report = engine.run(requests)
    return engine, requests, report


@pytest.fixture(scope="module")
def runs(gaudi):
    return _run(gaudi, "vectorized"), _run(gaudi, "scalar")


def test_load_reaches_every_column_writer(runs):
    (engine, requests, report), _ = runs
    assert engine._fast
    assert report.preemptions > 0
    assert engine.fault_stats.deadline_retries > 0
    assert any(r.checkpoint > 0 for r in requests)
    assert report.finished_requests > 0 and report.shed_requests > 0


def _assert_builtin_fields(requests, skip=()):
    for request in requests:
        for name, types in _FIELD_TYPES.items():
            if name in skip:
                continue
            value = getattr(request, name)
            assert type(value) in types, (
                f"request {request.request_id}: {name} is "
                f"{type(value).__name__} ({value!r})"
            )


def test_published_fields_are_builtins(runs):
    (_, requests, _), _ = runs
    _assert_builtin_fields(requests)


def test_numpy_typed_requests(gaudi, runs):
    """Numpy-typed request fields enter the columns as builtins: the
    core publishes builtins (the caller's own ``arrival_time`` aside)
    and the same report bytes."""
    (_, _, report), _ = runs
    engine, requests, numpy_report = _run(gaudi, "vectorized", numpy_fields=True)
    assert engine._fast
    assert numpy_report.to_json() == report.to_json()
    _assert_builtin_fields(requests, skip=("arrival_time",))


def test_report_matches_scalar_core(runs):
    (_, fast_requests, fast), (_, scalar_requests, scalar) = runs
    assert fast.to_json() == scalar.to_json()
    assert [
        tuple(getattr(r, name) for name in _FIELD_TYPES) for r in fast_requests
    ] == [
        tuple(getattr(r, name) for name in _FIELD_TYPES) for r in scalar_requests
    ]
