"""The engine core looks a decode stepper up once per batch size.

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

from repro.api import RunContext
from repro.models.llama import LLAMA_3_1_8B, DecodeAttention, LlamaCostModel
from repro.models.tensor_parallel import TensorParallelConfig
from repro.serving import LlmServingEngine, dynamic_sonnet_requests
from repro.serving.loadgen import poisson_arrivals
from tests import engine_goldens


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
        max_decode_batch=32,
    )
    report = engine.run(_requests())
    assert report.finished_requests == 64
    assert len(stepper_calls) > 4  # the runner count moved during the run
    assert set(stepper_calls.values()) == {1}
    assert engine._core.vectorized_steps > 2 * len(stepper_calls)


@pytest.mark.parametrize("fault", sorted(engine_goldens.FABRIC_FAULTS))
def test_fabric_fault_refreshes_the_table(stepper_calls, fault):
    engine, (before, after), report = engine_goldens.tp8_fabric_fault_run(
        engine_goldens.FABRIC_FAULTS[fault]
    )
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
    assert engine_goldens.digest(report.to_json()) == (
        engine_goldens.load_goldens()[f"tp8_{fault}"]
    )


def test_observed_tp_prices_through_compiled_steppers(gaudi, stepper_calls):
    """Observing a TP run does not change how it is priced: its table
    holds the compiled ``decode_stepper`` pricers, one per runner count,
    and the report is the unobserved one's."""

    def run(ctx):
        model = LlamaCostModel(
            LLAMA_3_1_8B, gaudi, tp=TensorParallelConfig.for_device(gaudi, 2)
        )
        engine = LlmServingEngine(
            model, DecodeAttention.PAGED_OPT, max_decode_batch=32, ctx=ctx
        )
        return engine, engine.run(_requests()).to_json()

    ctx = RunContext.create()
    observed, traced = run(ctx)
    fabric = observed.model._fabric_key()
    assert observed._steppers
    assert set(stepper_calls.values()) == {1}
    for n, stepper in observed._steppers.items():
        assert stepper is stepper_calls.built[(n, fabric)]
    assert ctx.metrics.counter("engine.steps").value == observed._steps
    assert ctx.metrics.counter("comm.allreduce.calls").value > 0
    _, plain = run(None)
    assert traced == plain
