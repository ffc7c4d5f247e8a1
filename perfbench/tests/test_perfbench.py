"""Tests of the benchmark harness itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import pathlib
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- self time --------------------------------------------------------------
def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = spans.SpanTracer(clock)
    tracer.enter("root")
    clock.now = 1.0
    tracer.enter("a")
    clock.now = 3.0
    tracer.enter("b")
    clock.now = 7.0
    tracer.exit()  # b: 4 s, no children
    clock.now = 8.0
    tracer.exit()  # a: 7 s total, 4 s in b
    clock.now = 10.0
    tracer.enter("b")
    clock.now = 12.0
    tracer.exit()  # b again: 2 s
    assert tracer.exit() == 12.0
    assert tracer.self_time == {"b": 6.0, "a": 3.0, "root": 3.0}
    assert sum(tracer.self_time.values()) == 12.0
    assert tracer.calls == {"b": 2, "a": 1, "root": 1}


def test_same_layer_nesting_counts_one_call():
    clock = FakeClock()
    tracer = spans.SpanTracer(clock)
    tracer.enter("gemm")
    clock.now = 1.0
    tracer.enter("gemm")  # a subclass override calling super()
    clock.now = 3.0
    tracer.exit()
    clock.now = 4.0
    tracer.exit()
    assert tracer.calls == {"gemm": 1}
    assert tracer.self_time == {"gemm": 4.0}


def test_wrappers_time_nested_calls():
    clock = FakeClock()
    tracer = spans.SpanTracer(clock)

    def inner():
        clock.now += 2.0
        return "x"

    wrapped_inner = tracer.wrap(inner, "inner")

    def outer():
        clock.now += 1.0
        return wrapped_inner()

    assert tracer.wrap(outer, "outer")() == "x"
    assert tracer.self_time == {"inner": 2.0, "outer": 1.0}
    assert tracer.depth == 0


def test_wrapper_closes_span_when_call_raises():
    tracer = spans.SpanTracer(FakeClock())

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "layer")()
    assert tracer.depth == 0 and tracer.calls == {"layer": 1}


def test_wrap_result_times_returned_callable():
    clock = FakeClock()
    tracer = spans.SpanTracer(clock)

    def build():
        def step():
            clock.now += 5.0

        return step

    tracer.wrap(build, "models", wrap_result=True)()()
    assert tracer.self_time == {"models": 5.0}
    assert tracer.calls == {"models": 2}


# -- install / restore ------------------------------------------------------
@pytest.fixture
def toy_modules():
    """A module defining a function and a class, plus a module that did
    ``from toy import helper``."""
    toy = types.ModuleType("perfbench_toy")
    exec(
        "def helper():\n"
        "    return 1\n"
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self.value = 1\n"
        "    def method(self):\n"
        "        return helper()\n",
        toy.__dict__,
    )
    toy.Thing.__module__ = toy.__name__
    user = types.ModuleType("perfbench_toy_user")
    user.helper = toy.helper
    sys.modules[toy.__name__] = toy
    sys.modules[user.__name__] = user
    yield toy, user
    del sys.modules[toy.__name__], sys.modules[user.__name__]


def test_restore_removes_every_wrapper(toy_modules):
    toy, user = toy_modules
    helper, method = toy.helper, toy.Thing.__dict__["method"]
    tracer, patcher = spans.SpanTracer(), spans.Patcher()
    spans.install_layers(tracer, patcher, {
        "toy.helper": ("perfbench_toy:helper",),
        "toy.method": ("perfbench_toy:Thing.method",),
    })
    assert toy.helper is not helper and user.helper is toy.helper
    assert toy.Thing().method() == 1
    assert tracer.calls == {"toy.method": 1, "toy.helper": 1}
    assert "perfbench_toy.helper" in spans.leaked_wrappers()
    patcher.restore()
    assert toy.helper is helper and user.helper is helper
    assert toy.Thing.__dict__["method"] is method
    assert patcher.active == 0
    assert not [leak for leak in spans.leaked_wrappers() if "perfbench_toy" in leak]
    toy.Thing().method()  # untraced call after restore records nothing
    assert tracer.calls == {"toy.method": 1, "toy.helper": 1}


def test_inherited_method_target_is_refused(toy_modules):
    toy, _ = toy_modules

    class Child(toy.Thing):
        pass

    toy.Child = Child
    with pytest.raises(AttributeError):
        spans.Patcher().replace("perfbench_toy:Child.method", lambda fn: fn)


def test_live_count_tracks_high_water(toy_modules):
    toy, _ = toy_modules
    patcher = spans.Patcher()
    counter = spans.LiveCount(patcher, "perfbench_toy:Thing", "perfbench_toy:helper")
    things = [toy.Thing() for _ in range(3)]
    toy.helper()
    del things
    toy.Thing()
    toy.helper()
    patcher.restore()
    assert counter.high_water == 3
    assert not [leak for leak in spans.leaked_wrappers() if "perfbench_toy" in leak]


def test_simulator_layers_install_and_restore_cleanly():
    import repro.cluster  # noqa: F401
    import repro.figures  # noqa: F401
    import repro.serving  # noqa: F401

    before = {
        target: spans._resolve(target.removesuffix("->"))[2]
        for targets in spans.LAYERS.values() for target in targets
    }
    tracer, patcher = spans.SpanTracer(), spans.Patcher()
    spans.install_layers(tracer, patcher)
    assert patcher.active >= len(before)
    assert spans.leaked_wrappers()
    patcher.restore()
    assert spans.leaked_wrappers() == []
    for target, original in before.items():
        assert spans._resolve(target.removesuffix("->"))[2] is original


# -- scoring ----------------------------------------------------------------
def _record(*digests, problems=(), planned=None, error=None):
    record = {
        "mode": "plain",
        "planned": len(digests) if planned is None else planned,
        "runs": [
            {"kind": "cold" if i == 0 else "warm", "seconds": 1.0, "digest": d,
             "problems": list(problems), "info": {}, "layers": {}}
            for i, d in enumerate(digests)
        ],
    }
    if error:
        record["error"] = error
    return record


def test_digest_mismatch_counts_as_failure():
    tally = run.score([_record("good", "good", "bad")], golden="good")
    assert (tally["attempted"], tally["failed"]) == (3, 1)


def test_mismatch_against_golden_fails_every_run():
    tally = run.score([_record("x", "x")], golden="golden")
    assert tally["failed"] == 2


def test_runs_must_agree_without_golden():
    tally = run.score([_record("a", "a"), _record("b")], golden=None)
    assert (tally["attempted"], tally["failed"], tally["reference"]) == (3, 1, "a")


def test_invalid_and_missing_runs_fail():
    invalid = _record("a", problems=["no node crashed"])
    died = _record("a", planned=4, error="Traceback ...")
    tally = run.score([invalid, died], golden="a")
    assert (tally["attempted"], tally["failed"]) == (5, 4)


def test_scaling_covers_every_host_time():
    reference = run.REFERENCE_CALIBRATION_S
    record = _record("a", "a")
    record.update(setup_s=0.5, import_s=0.2, build_s=0.1, peak_rss_mb=50.0,
                  calibration_s=2 * reference)
    record["runs"][0]["calibration_s"] = 2 * reference
    record["runs"][1]["calibration_s"] = 4 * reference
    record["runs"][0]["layers"] = {"hw.gemm_s": 2.0, "hw.gemm_calls": 7, "memo.hit_ratio": 0.5}
    run.scale_times(record)
    assert (record["setup_s"], record["import_s"], record["build_s"]) == (0.25, 0.1, 0.05)
    assert [r["seconds"] for r in record["runs"]] == [0.5, 0.25]
    assert record["runs"][0]["layers"] == {"hw.gemm_s": 1.0, "hw.gemm_calls": 7, "memo.hit_ratio": 0.5}
    assert record["peak_rss_mb"] == 50.0


def test_ok_frac_reports_failures():
    records = [_record("a", "a", "b")]
    records[0]["setup_s"], records[0]["peak_rss_mb"] = 0.5, 50.0
    metrics = run.end_to_end(records, run.score(records, golden="a"))
    assert metrics["ok_frac"] == pytest.approx(2 / 3)
    assert metrics["run_s"] == 1.0 and metrics["warm_run_s"] == 1.0


# -- hermetic environment -----------------------------------------------------
def test_environment_scrub():
    base = {
        "REPRO_ENGINE": "scalar",
        "REPRO_AUDIT": "strict",
        "REPRO_NO_MEMO": "1",
        "REPRO_WORKERS": "auto",
        "REPRO_BACKENDS": "gaudi2,a100,h100",
        "REPRO_BACKEND_PLUGINS": "evil:plugin",
        "REPRO_WATCHDOG_STEPS": "10",
        "REPRO_WATCHDOG_WALL": "0.1",
        "PYTHONPATH": "/elsewhere",
        "OMP_NUM_THREADS": "8",
        "HOME": "/home/user",
    }
    env = run.child_env(base, ROOT / "src")
    assert not [key for key in env if key.startswith("REPRO_")]
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert env["OMP_NUM_THREADS"] == "1" and env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["HOME"] == "/home/user"


# -- the spec and the harness agree -------------------------------------------
def test_benchmark_spec_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    for layer in spans.LAYERS:
        assert f"{layer}_s" in per_layer
    assert {f"figures.{fid}_s" for fid in workloads.FIGURE_IDS} <= per_layer


def test_goldens_cover_the_default_seed():
    goldens = run.load_goldens()
    for name, workload in workloads.WORKLOADS.items():
        key = "*" if workload.seed_free else "0"
        assert len(goldens[name][key]) == 64
