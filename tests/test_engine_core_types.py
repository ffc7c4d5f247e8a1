"""No numpy scalar leaks from the engine core into a Request.

The engine feeds every request through ``Request.coerce_builtins``, so
a caller's numpy-typed fields become builtins before any arithmetic.
The core keeps its slot columns as plain Python lists and copies them
back onto ``Request`` objects at lifecycle events without any
``int``/``float`` unboxing, so every value it publishes must already be
a builtin.  This drives the paths that write the columns -- admission,
prefill, decode bursts, capacity preemption with checkpoints, deadline
requeues -- and checks every published field's exact type, plus byte
parity of the report and request states with the scalar stepper's
pinned digest.
Numpy-typed and builtin runs go in both orders in one process, so a
numpy value stored in a cross-instance cost cache (the prefill cache
keys on the prompt length) would reach the later run.  CI also runs
this file under ``REPRO_NO_MEMO=1``.
"""

import numpy as np
import pytest

from repro.core import memo
from repro.hw.backend import get_backend
from repro.models.llama import LLAMA_3_1_8B, LlamaCostModel
from tests import engine_goldens
from tests.engine_goldens import numpy_typed_run

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


@pytest.fixture(scope="module")
def runs():
    return numpy_typed_run()


def test_load_reaches_every_column_writer(runs):
    engine, requests, report = runs
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
    _, requests, _ = runs
    _assert_builtin_fields(requests)


def test_numpy_typed_requests(runs):
    """Numpy-typed request fields are builtins once fed: in either run
    order against cleared caches, every published field is a builtin
    (``arrival_time`` included) and the report bytes match a builtin
    run."""
    _, _, report = runs
    for order in ((True, False), (False, True)):
        memo.clear_caches()
        for numpy_fields in order:
            _, requests, run_report = numpy_typed_run(numpy_fields)
            assert run_report.to_json() == report.to_json(), (order, numpy_fields)
            _assert_builtin_fields(requests)


def test_shared_cost_caches_hold_builtins():
    """A numpy length prices as its builtin: the cross-instance prefill
    and generation caches never hand a numpy value to a later caller."""
    memo.clear_caches()
    device = get_backend("gaudi2")
    first = LlamaCostModel(LLAMA_3_1_8B, device).prefill(1, np.int64(777))
    later = LlamaCostModel(LLAMA_3_1_8B, device).prefill(1, 777)
    assert type(first.time) is float and type(later.time) is float
    assert first == later
    LlamaCostModel(LLAMA_3_1_8B, device).generate(
        np.int64(2), np.int64(128), np.int64(64)
    )
    estimate = LlamaCostModel(LLAMA_3_1_8B, device).generate(2, 128, 64)
    for name in ("batch", "input_len", "output_len"):
        assert type(getattr(estimate, name)) is int, name
    for name in ("prefill_time", "decode_time", "average_power"):
        assert type(getattr(estimate, name)) is float, name


def test_report_matches_scalar_core(runs):
    _, requests, report = runs
    payload = [report.to_json(), engine_goldens.states(requests)]
    assert engine_goldens.digest(payload) == (
        engine_goldens.load_goldens()["column_writers"]
    )
