"""Vectorized struct-of-arrays engine core vs the scalar reference.

The fast path must be *observationally invisible*: byte-identical
reports and identical per-request terminal state against the legacy
per-object loop, across backends, attention kernels, preemption, and
streaming arrival feeds.  Plus the slot-recycling safety property and
the constant-memory guarantee of release-mode streaming runs.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import ConfigError, audit_scope
from repro.models.llama import DecodeAttention, LLAMA_3_1_8B, LlamaCostModel
from repro.serving import (
    LlmServingEngine,
    ResiliencePolicy,
    dynamic_sonnet_requests,
    iter_dynamic_sonnet_requests,
)
from repro.serving.engine_core import (
    EngineCore,
    counters_snapshot,
    render_counters,
    reset_counters,
)
from repro.serving.loadgen import poisson_arrivals
from repro.serving.request import Request


def _engine(device, mode, attention=DecodeAttention.PAGED_OPT, **kwargs):
    return LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, device),
        attention,
        engine_mode=mode,
        **kwargs,
    )


def _states(requests):
    return [
        (r.request_id, r.state.value, r.generated, r.first_token_time,
         r.finish_time, r.restarts, r.retries)
        for r in requests
    ]


def _run_both(device, make_requests, attention=DecodeAttention.PAGED_OPT,
              **kwargs):
    """Run the same workload through both regimes; returns the two
    (report-json, states) pairs."""
    scalar_requests = make_requests()
    scalar = _engine(device, "scalar", attention, **kwargs).run(scalar_requests)
    fast_requests = make_requests()
    fast = _engine(device, "vectorized", attention, **kwargs).run(fast_requests)
    return (
        (scalar.to_json(), _states(scalar_requests)),
        (fast.to_json(), _states(fast_requests)),
    )


class TestGoldenEquivalence:
    """Scalar and vectorized runs must be byte-identical."""

    def test_backlog(self, gaudi):
        scalar, fast = _run_both(
            gaudi, lambda: dynamic_sonnet_requests(48, seed=7)
        )
        assert scalar == fast

    def test_poisson_arrivals(self, gaudi):
        scalar, fast = _run_both(
            gaudi,
            lambda: poisson_arrivals(
                dynamic_sonnet_requests(64, seed=1), 20.0, seed=5
            ),
        )
        assert scalar == fast

    def test_preemption_small_kv_pool(self, gaudi):
        scalar, fast = _run_both(
            gaudi,
            lambda: dynamic_sonnet_requests(32, seed=11),
            num_kv_blocks=220,
        )
        assert scalar == fast

    def test_single_token_outputs_finish_at_prefill(self, gaudi):
        def make():
            return [
                Request(r.request_id, r.input_tokens, 1, r.arrival_time)
                for r in dynamic_sonnet_requests(24, seed=9)
            ]

        scalar, fast = _run_both(gaudi, make)
        assert scalar == fast

    @pytest.mark.parametrize("attention", list(DecodeAttention))
    def test_every_attention_kernel(self, gaudi, attention):
        scalar, fast = _run_both(
            gaudi, lambda: dynamic_sonnet_requests(24, seed=2),
            attention=attention,
        )
        assert scalar == fast

    def test_other_backend(self, a100):
        scalar, fast = _run_both(
            a100, lambda: dynamic_sonnet_requests(32, seed=3),
            attention=DecodeAttention.PAGED_CUDA,
        )
        assert scalar == fast

    def test_under_strict_audit(self, gaudi):
        with audit_scope("strict"):
            scalar, fast = _run_both(
                gaudi,
                lambda: poisson_arrivals(
                    dynamic_sonnet_requests(40, seed=4), 15.0, seed=6
                ),
            )
        assert scalar == fast

    def test_auto_mode_picks_fast_path_when_eligible(self, gaudi):
        engine = _engine(gaudi, "auto")
        engine.begin(())
        assert engine._fast
        engine.finish()

    def test_auto_mode_falls_back_with_policy(self, gaudi):
        engine = _engine(gaudi, "auto", policy=ResiliencePolicy())
        engine.begin(())
        assert not engine._fast
        engine.finish()


class TestStreamingRuns:
    def test_stream_matches_list_vectorized(self, gaudi):
        def make():
            return poisson_arrivals(
                dynamic_sonnet_requests(64, seed=8), 25.0, seed=2
            )

        listed = _engine(gaudi, "vectorized").run(make()).to_json()
        streamed = _engine(gaudi, "vectorized").run(iter(make())).to_json()
        assert listed == streamed

    def test_stream_matches_list_scalar(self, gaudi):
        def make():
            return poisson_arrivals(
                dynamic_sonnet_requests(48, seed=8), 25.0, seed=2
            )

        listed = _engine(gaudi, "scalar").run(make()).to_json()
        streamed = _engine(gaudi, "scalar").run(iter(make())).to_json()
        assert listed == streamed

    def test_unsorted_arrivals_rejected(self, gaudi):
        requests = dynamic_sonnet_requests(3, seed=0)
        requests[0].arrival_time = 5.0
        requests[1].arrival_time = 1.0
        with pytest.raises(ConfigError, match="nondecreasing"):
            _engine(gaudi, "vectorized").run(iter(requests))

    def test_lazy_dataset_prefix_stable(self):
        from itertools import islice

        a = list(iter_dynamic_sonnet_requests(100, seed=3))
        b = list(islice(iter_dynamic_sonnet_requests(10**9, seed=3), 100))
        assert [(r.input_tokens, r.output_tokens) for r in a] == [
            (r.input_tokens, r.output_tokens) for r in b
        ]
        # Laziness: taking 100 of a billion-request trace must not
        # materialize the trace (the islice above would never return).


class TestReleaseMode:
    """``retain_requests=False`` folds terminals into aggregates."""

    def test_counts_exact_and_latencies_close(self, gaudi):
        def make():
            return poisson_arrivals(
                dynamic_sonnet_requests(96, seed=5), 20.0, seed=7
            )

        retained = json.loads(_engine(gaudi, "vectorized").run(make()).to_json())
        released = json.loads(
            _engine(gaudi, "vectorized", retain_requests=False)
            .run(iter(make())).to_json()
        )
        for key in ("num_requests", "finished_requests", "total_output_tokens",
                    "engine_steps", "preemptions", "shed_requests",
                    "failed_requests"):
            assert retained[key] == released[key], key
        # Retirement-order folding may differ from feed-order sums in
        # the last ulp (documented in ReportAggregates).
        assert released["mean_ttft"] == pytest.approx(
            retained["mean_ttft"], rel=1e-9
        )
        assert released["mean_tpot"] == pytest.approx(
            retained["mean_tpot"], rel=1e-9
        )

    def test_retained_requests_empty_in_release_mode(self, gaudi):
        engine = _engine(gaudi, "vectorized", retain_requests=False)
        engine.run(iter(dynamic_sonnet_requests(16, seed=1)))
        assert engine.requests == []


class TestEngineModeConfig:
    def test_unknown_mode_rejected(self, gaudi):
        with pytest.raises(ConfigError, match="engine_mode"):
            _engine(gaudi, "turbo")

    def test_explicit_vectorized_with_policy_rejected(self, gaudi):
        engine = _engine(gaudi, "vectorized", policy=ResiliencePolicy())
        with pytest.raises(ConfigError, match="vectorized"):
            engine.begin(())


class TestLifecycleOperations:
    def test_fail_all_matches_scalar(self, gaudi):
        results = {}
        for mode in ("scalar", "vectorized"):
            requests = poisson_arrivals(
                dynamic_sonnet_requests(24, seed=6), 40.0, seed=1
            )
            engine = _engine(gaudi, mode)
            engine.begin(requests)
            engine.advance(0.5)
            victims = engine.fail_all("outage: test")
            results[mode] = (
                sorted(v.request_id for v in victims), _states(requests)
            )
        assert results["scalar"] == results["vectorized"]

    def test_cancel_matches_scalar(self, gaudi):
        results = {}
        for mode in ("scalar", "vectorized"):
            requests = poisson_arrivals(
                dynamic_sonnet_requests(16, seed=6), 40.0, seed=1
            )
            engine = _engine(gaudi, mode)
            engine.begin(requests)
            engine.advance(0.4)
            alive = [r for r in requests if not r.done]
            engine.cancel(alive[-1], "timeout: test")
            engine.advance()
            results[mode] = _states(requests)
        assert results["scalar"] == results["vectorized"]


class TestCounters:
    def test_run_counters(self, gaudi):
        reset_counters()
        _engine(gaudi, "vectorized").run(dynamic_sonnet_requests(8, seed=0))
        _engine(gaudi, "scalar").run(dynamic_sonnet_requests(8, seed=0))
        counters = counters_snapshot()
        assert counters["vectorized_runs"] == 1
        assert counters["scalar_runs"] == 1
        assert counters["vectorized_steps"] > 0
        assert counters["scalar_steps"] > 0
        assert counters["slot_high_water"] > 0
        rendered = render_counters()
        assert "vectorized" in rendered and "high-water" in rendered

    def test_streaming_bumps_arrival_buffer_peak(self, gaudi):
        reset_counters()
        _engine(gaudi, "vectorized").run(
            iter(poisson_arrivals(
                dynamic_sonnet_requests(32, seed=2), 30.0, seed=3
            ))
        )
        assert counters_snapshot()["arrival_buffer_peak"] > 0


class TestSlotRecycling:
    """Recycled slots must never alias two live requests."""

    @given(
        ops=st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                     max_size=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_acquire_release_never_aliases(self, ops):
        core = EngineCore(num_blocks=4096, block_size=128, capacity=4)
        live = {}
        next_id = 0
        for op in ops:
            if op in (0, 1) or not live:
                request = Request(
                    request_id=next_id, input_tokens=64, output_tokens=8
                )
                slot = core.acquire(request)
                assert slot not in live, "slot handed out twice while live"
                live[slot] = request
                next_id += 1
            else:
                slot, request = next(iter(live.items()))
                del live[slot]
                core.release(slot)
            # Every live slot still maps to exactly its own request.
            for slot, request in live.items():
                assert core.objs[slot] is request
            assert len(set(live)) == len(live)
            free = set(core.free_slots)
            assert not free.intersection(live)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None)
    def test_fuzzed_workload_equivalence(self, seed):
        from repro.hw.backend import get_backend

        device = get_backend("gaudi2")
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 20))

        def make():
            gen = np.random.default_rng(seed)
            requests = []
            clock = 0.0
            for i in range(count):
                clock += float(gen.exponential(0.05))
                requests.append(Request(
                    request_id=i,
                    input_tokens=int(gen.integers(16, 700)),
                    output_tokens=int(gen.integers(1, 60)),
                    arrival_time=clock,
                ))
            return requests

        scalar, fast = _run_both(device, make, num_kv_blocks=512)
        assert scalar == fast


class TestBoundedMemory:
    def test_streaming_peak_independent_of_trace_length(self, gaudi):
        def peak(n, trace=True):
            engine = _engine(gaudi, "vectorized", retain_requests=False)
            arrivals = poisson_arrivals(
                iter_dynamic_sonnet_requests(n, seed=0), 10.0, seed=0
            )
            if not trace:
                engine.run(arrivals)
                return 0
            tracemalloc.start()
            engine.run(arrivals)
            _, high = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return high

        # Untraced warmup fills the bounded cost-model caches, so the
        # traced runs below measure only per-run engine state.
        peak(3000, trace=False)
        small, large = peak(300), peak(3000)
        # A 10x longer trace must not grow the peak footprint by more
        # than a small constant factor.
        assert large < 3 * small
