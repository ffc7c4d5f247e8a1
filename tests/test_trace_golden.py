"""Golden-trace tests: determinism and schema of traced serving runs.

Two serving runs with the same seed and the same ``RunContext``
configuration must produce *byte-identical* chrome://tracing exports —
the tracer runs on the engine's virtual clock, so there is no wall-time
jitter to forgive.
"""

import importlib.util
import json
import pathlib

from repro.api import RunContext
from repro.hw.device import Gaudi2Device
from repro.models.llama import LLAMA_3_1_8B, LlamaCostModel
from repro.models.tensor_parallel import TensorParallelConfig
from repro.serving import LlmServingEngine, Request

_CHECKER_PATH = pathlib.Path(__file__).parent.parent / "scripts" / "check_trace_schema.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_trace_schema", _CHECKER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_run(seed: int = 0) -> RunContext:
    ctx = RunContext.create(seed=seed, device="gaudi2")
    device = Gaudi2Device()
    model = LlamaCostModel(
        LLAMA_3_1_8B, device, tp=TensorParallelConfig.for_device(device, 4)
    )
    engine = LlmServingEngine(model, max_decode_batch=8, ctx=ctx)
    requests = [
        Request(request_id=i, input_tokens=128, output_tokens=32, arrival_time=0.01 * i)
        for i in range(4)
    ]
    engine.run(requests)
    return ctx


class TestGoldenTrace:
    def test_same_seed_runs_are_byte_identical(self):
        first = _traced_run(seed=0).chrome_trace()
        second = _traced_run(seed=0).chrome_trace()
        assert first == second

    def test_trace_passes_schema_check(self):
        checker = _load_checker()
        document = json.loads(_traced_run().chrome_trace())
        assert checker.check_trace(document, require_layers=True) == []

    def test_trace_covers_all_five_layers(self):
        ctx = _traced_run()
        assert {"engine", "scheduler", "kv", "collective", "power"} <= set(
            ctx.tracer.categories()
        )

    def test_request_lifetimes_exported_as_async_pairs(self):
        document = json.loads(_traced_run().chrome_trace())
        begins = [e for e in document["traceEvents"] if e["ph"] == "b"]
        ends = [e for e in document["traceEvents"] if e["ph"] == "e"]
        assert len(begins) == 4
        assert {(e["name"], e["id"]) for e in begins} == {
            (e["name"], e["id"]) for e in ends
        }

    def test_no_open_spans_after_run(self):
        assert _traced_run().tracer.open_spans == 0

    def test_metrics_populated_alongside_trace(self):
        metrics = _traced_run().metrics
        assert metrics.counter("engine.steps").value > 0
        assert metrics.histogram("request.ttft").count == 4
        assert metrics.gauge("kv.allocated_blocks").max_value > 0


class TestSchemaChecker:
    def test_rejects_non_object(self):
        checker = _load_checker()
        assert checker.check_trace([], require_layers=False)

    def test_rejects_missing_counter_value(self):
        checker = _load_checker()
        document = {
            "displayTimeUnit": "ms",
            "traceEvents": [{"ph": "C", "pid": 1, "name": "w", "args": {}}],
        }
        errors = checker.check_trace(document, require_layers=False)
        assert any("args.value" in e for e in errors)

    def test_rejects_unbalanced_async(self):
        checker = _load_checker()
        document = {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"ph": "b", "pid": 1, "tid": 1, "name": "r", "id": 1, "ts": 0.0}
            ],
        }
        errors = checker.check_trace(document, require_layers=False)
        assert any("unbalanced" in e for e in errors)

    def test_flags_missing_layers(self):
        checker = _load_checker()
        document = {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"ph": "X", "pid": 1, "tid": 1, "name": "s", "cat": "engine",
                 "ts": 0.0, "dur": 1.0}
            ],
        }
        errors = checker.check_trace(document, require_layers=True)
        assert any("missing" in e for e in errors)
        assert checker.check_trace(document, require_layers=False) == []


class TestCliTrace:
    def test_trace_verb_writes_valid_trace(self, tmp_path, capsys):
        from repro.cli import main

        checker = _load_checker()
        out = tmp_path / "trace.json"
        code = main(
            ["trace", "--fast", "--requests", "8", "--out", str(out)]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert checker.check_trace(document, require_layers=True) == []
        captured = capsys.readouterr().out
        assert "chrome trace written to" in captured

    def test_top_verb_renders_timeline(self, capsys):
        from repro.cli import main

        code = main(["top", "--requests", "8", "--samples", "4"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "Power (W)" in captured
        assert "Prefill" in captured
