"""The vectorized core looks a decode stepper up once per batch size.

``LlmServingEngine`` keeps a per-run table of compiled steppers keyed
by runner count, dropped whenever the model's fabric fault state
(``LlamaCostModel._fabric_key``) stops being the object the table was
filled under.  So ``decode_stepper`` runs once per distinct (batch
size, fabric state) in a run, never once per decode burst, and a fault
between two ``advance()`` calls still reprices every later step.  CI
also runs this file under ``REPRO_NO_MEMO=1``, where the cross-instance
stepper cache is bypassed and the table is the only reuse.
"""

import collections

import pytest

from repro.comm import FabricHealth
from repro.faults.chaos import build_degraded_collectives
from repro.hw.backend import GAUDI2, get_backend
from repro.models.llama import (
    LLAMA_3_1_8B,
    DecodeAttention,
    LlamaCostModel,
    default_decode_attention,
)
from repro.serving import LlmServingEngine, dynamic_sonnet_requests
from repro.serving.loadgen import poisson_arrivals


@pytest.fixture
def stepper_calls(monkeypatch):
    """Counts ``decode_stepper`` calls by ``(batch, fabric key)``; the
    ``built`` attribute maps each key to the stepper it returned."""
    calls = collections.Counter()
    calls.built = {}
    build = LlamaCostModel.decode_stepper

    def counted(self, batch, attention, *args, **kwargs):
        key = (batch, self._fabric_key())
        calls[key] += 1
        calls.built[key] = build(self, batch, attention, *args, **kwargs)
        return calls.built[key]

    monkeypatch.setattr(LlamaCostModel, "decode_stepper", counted)
    return calls


def _requests():
    return list(poisson_arrivals(dynamic_sonnet_requests(64, seed=2), 30.0, seed=4))


def test_one_lookup_per_batch_size(gaudi, stepper_calls):
    engine = LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, gaudi), DecodeAttention.PAGED_OPT,
        max_decode_batch=32, engine_mode="vectorized",
    )
    report = engine.run(_requests())
    assert report.finished_requests == 64
    assert len(stepper_calls) > 4  # the runner count moved during the run
    assert set(stepper_calls.values()) == {1}
    assert engine._core.vectorized_steps > 2 * len(stepper_calls)


def _tp_run(mode, mutate, horizon):
    """A TP-8 run on a degraded-capable fabric, faulted by ``mutate``
    between two ``advance()`` calls; returns the engine, its model's
    fabric keys before and after, and the report."""
    health = FabricHealth()
    device = get_backend(GAUDI2)
    model = LlamaCostModel(
        LLAMA_3_1_8B, device, tp=build_degraded_collectives(GAUDI2, 8, health)[0]
    )
    engine = LlmServingEngine(
        model, default_decode_attention(device), max_decode_batch=32,
        engine_mode=mode,
    )
    engine.begin(_requests())
    engine.advance(horizon)
    before = model._fabric_key()
    mutate(health)
    engine.advance()
    return engine, (before, model._fabric_key()), engine.finish()


@pytest.mark.parametrize("mutate", [
    lambda health: health.set_link_factor(0, 1, 0.25),
    lambda health: health.fail_device(3),
], ids=["link-factor", "fail-device"])
def test_fabric_fault_refreshes_the_table(stepper_calls, mutate):
    horizon = 1.0
    engine, (before, after), fast = _tp_run("vectorized", mutate, horizon)
    assert before != after
    assert engine._stepper_fabric is after
    fabrics = {fabric for _, fabric in stepper_calls}
    assert fabrics == {before, after}
    assert set(stepper_calls.values()) == {1}
    # Every stepper left in the table was built under the fault, and a
    # batch size used on both sides of it was compiled twice.
    assert all(
        stepper is stepper_calls.built[n, after]
        for n, stepper in engine._steppers.items()
    )
    assert any(
        (n, before) in stepper_calls and (n, after) in stepper_calls
        for n, _ in stepper_calls
    )
    _, _, scalar = _tp_run("scalar", mutate, horizon)
    assert fast.to_json() == scalar.to_json()
