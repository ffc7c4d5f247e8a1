"""Vectorized struct-of-arrays engine core vs the scalar reference.

The fast path must be *observationally invisible*: byte-identical
reports and identical per-request terminal state against the legacy
per-object loop, across backends, attention kernels, preemption, and
streaming arrival feeds.  Plus the slot-recycling safety property and
the constant-memory guarantee of release-mode streaming runs.
"""

import heapq
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunContext
from repro.audit import (
    Auditor,
    AuditMode,
    ConfigError,
    LifecycleError,
    TokenConservationError,
    Watchdog,
    audit_scope,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
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
    heap_entry,
    render_counters,
    reset_counters,
)
from repro.serving.loadgen import poisson_arrivals
from repro.serving.kv_cache import KvCacheError
from repro.serving.request import Request, RequestState, RetryPolicy


#: What still pins a run to the scalar core, as engine keyword arguments.
_SCALAR_ONLY = {
    "injector": lambda: {"injector": FaultInjector(FaultPlan())},
    "watchdog": lambda: {"watchdog": Watchdog(max_steps=10**6)},
    "tracer": lambda: {"ctx": RunContext.create()},
}


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


def _full_states(requests):
    return [
        state + (r.checkpoint, r.shed_reason)
        for state, r in zip(_states(requests), requests)
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

    def test_auto_mode_falls_back_when_ineligible(self, gaudi):
        """A device injector, a watchdog or per-step observability pins
        auto mode to the scalar core; a policy alone does not."""
        for blocker in _SCALAR_ONLY.values():
            engine = _engine(gaudi, "auto", policy=ResiliencePolicy(), **blocker())
            engine.begin(())
            assert not engine._fast
            engine.finish()
        engine = _engine(gaudi, "auto", policy=ResiliencePolicy())
        engine.begin(())
        assert engine._fast
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

    def test_explicit_vectorized_when_ineligible_rejected(self, gaudi):
        for blocker in _SCALAR_ONLY.values():
            engine = _engine(gaudi, "vectorized", **blocker())
            with pytest.raises(ConfigError, match="vectorized"):
                engine.begin(())
        engine = _engine(gaudi, "vectorized", policy=ResiliencePolicy())
        engine.begin(())  # a policy alone is eligible
        engine.finish()


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

    def test_request_states_match_scalar_at_every_horizon(self, gaudi):
        """Observing between horizons: a request that finished in the
        last burst shows FINISHED at ``advance()`` exit on both cores."""
        traces = {}
        for mode in ("scalar", "vectorized"):
            requests = poisson_arrivals(
                dynamic_sonnet_requests(24, seed=6), 40.0, seed=1
            )
            engine = _engine(gaudi, mode, max_decode_batch=8)
            engine.begin(requests)
            trace = []
            horizon = 0.0
            while engine.has_unfinished:
                horizon += 0.05
                engine.advance(horizon)
                trace.append(_states(requests))
            traces[mode] = trace
        assert traces["scalar"] == traces["vectorized"]

    @pytest.mark.parametrize("strict", [False, True], ids=["audit-off", "strict"])
    @pytest.mark.parametrize("pool", [None, 40], ids=["roomy-pool", "small-pool"])
    def test_split_exit_sync_matches_scalar(self, gaudi, strict, pool):
        """``advance(h, sync_exit=False)`` (the fleet node's call)
        publishes every terminal transition as it happens, outbox
        included; only runner progress waits for ``sync_live()``, which
        here runs every third horizon so the core also steps unsynced."""
        terminal = (RequestState.FINISHED, RequestState.SHED, RequestState.FAILED)

        def drive(mode):
            requests = poisson_arrivals(
                dynamic_sonnet_requests(32, seed=6), 40.0, seed=1
            )
            outbox = []
            for request in requests:
                request.outbox = outbox
            engine = _engine(
                gaudi, mode, max_decode_batch=8, num_kv_blocks=pool,
                policy=ResiliencePolicy(deadline=1.0, checkpoint_interval=16),
            )
            engine.begin(requests)
            published, synced = [], []
            horizon = 0.0
            while engine.has_unfinished:
                horizon += 0.05
                engine.advance(horizon, sync_exit=False)
                done = [r for r in requests if r.state in terminal]
                published.append((
                    [(r.request_id, r.state.value, r.generated, r.finish_time)
                     for r in done],
                    sorted(r.request_id for r in outbox),
                ))
                outbox.clear()
                if len(published) % 3 == 0:
                    engine.sync_live()
                    synced.append(_full_states(requests))
            report = engine.finish().to_json()
            return published, synced, report

        if strict:
            with audit_scope("strict"):
                scalar, fast = drive("scalar"), drive("vectorized")
        else:
            scalar, fast = drive("scalar"), drive("vectorized")
        assert scalar == fast
        assert scalar[0][-1][0]  # requests reached terminal states


class TestRunnerAggregates:
    """The core's running decode-batch state under the strict audit."""

    def _core_mid_run(self, gaudi, block_size):
        engine = _engine(gaudi, "vectorized", block_size=block_size)
        engine.begin(poisson_arrivals(
            dynamic_sonnet_requests(24, seed=3), 40.0, seed=2
        ))
        engine.advance(0.5)
        core = engine._core
        assert len(core.runners) > 1
        return core

    @pytest.mark.parametrize("block_size", [100, 128])
    def test_consistent_mid_run(self, gaudi, block_size):
        core = self._core_mid_run(gaudi, block_size)
        Auditor(AuditMode.STRICT, sample_fraction=1.0).check_core_invariants(core)

    @pytest.mark.parametrize("field", [
        "sum_base", "total_blocks", "hist128", "hist_bs", "base_heap",
        "rem_heap",
    ])
    def test_corrupted_field_raises(self, gaudi, field):
        core = self._core_mid_run(gaudi, 100)
        seq, slot = next(iter(core.runners.items()))
        base = int(core.base[slot])
        if field in ("sum_base", "total_blocks"):
            setattr(core, field, getattr(core, field) + 1)
        elif field.startswith("hist"):
            getattr(core, field)[0] += 1
        elif field == "base_heap":
            heapq.heappush(core.base_heap, heap_entry(-(base + 10**6), seq))
        else:
            heapq.heappush(core.rem_heap, heap_entry(-(10**6), seq))
        auditor = Auditor(AuditMode.STRICT, sample_fraction=1.0)
        with pytest.raises(TokenConservationError, match="engine core"):
            auditor.check_core_invariants(core)


class TestWaitingInvariants:
    """The exit sync skips waiting slots, so the strict audit checks
    that their objects match the columns and that the queue keeps the
    scheduler's ``(tier, arrival)`` order."""

    def _core_with_waiters(self, gaudi):
        engine = _engine(gaudi, "vectorized", max_decode_batch=2,
                         policy=ResiliencePolicy())
        requests = dynamic_sonnet_requests(12, seed=4)
        for request in requests:
            request.tier = request.request_id % 3
        engine.begin(requests)
        engine.advance(0.2)
        core = engine._core
        assert core.waiting_count > 2
        Auditor(AuditMode.STRICT, sample_fraction=1.0).check_core_invariants(core)
        return core

    @pytest.mark.parametrize("field", [
        "generated", "first_token_time", "restarts", "retries", "arrival_time",
    ])
    def test_stale_waiting_object_raises(self, gaudi, field):
        core = self._core_with_waiters(gaudi)
        request = core.objs[core.waiting_slots()[-1]]
        setattr(request, field, (getattr(request, field) or 0) + 1)
        auditor = Auditor(AuditMode.STRICT, sample_fraction=1.0)
        with pytest.raises(LifecycleError, match="disagrees with its slot columns"):
            auditor.check_core_invariants(core)

    def test_queue_order_broken_raises(self, gaudi):
        core = self._core_with_waiters(gaudi)
        head = core.wait_head
        q = core.wait_q
        q[head], q[-1] = q[-1], q[head]
        auditor = Auditor(AuditMode.STRICT, sample_fraction=1.0)
        with pytest.raises(LifecycleError, match="tier, arrival"):
            auditor.check_core_invariants(core)


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
    @settings(max_examples=40, deadline=None)
    def test_fuzzed_workload_equivalence(self, seed):
        """Random arrivals over a random pool block size (including one
        that is not a divisor of the 128-token pricing block); a pool
        that is roomy, tight enough to force preemption, or too small
        for a lone runner's decode; an optional ResiliencePolicy (TTFT
        deadline with retries, admission watermark, checkpoints,
        graceful or fail-fast exhaustion) with mixed tiers, per-request
        deadlines and an oversized prompt; a request resumed with
        progress; slowdowns changed between horizons; and an optional
        cancel or fail_all."""
        from repro.hw.backend import get_backend

        device = get_backend("gaudi2")
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 20))
        block_size = int(rng.choice([16, 64, 100, 128, 256]))
        operation = str(rng.choice(["none", "cancel", "fail_all"]))
        horizon = float(rng.uniform(0.0, 1.5))
        pick = float(rng.uniform())
        policy = None
        if rng.uniform() < 0.6:
            policy = ResiliencePolicy(
                shed_on_exhaustion=bool(rng.uniform() < 0.8),
                deadline=(
                    float(rng.uniform(0.05, 1.0)) if rng.uniform() < 0.5 else None
                ),
                retry=RetryPolicy(
                    max_retries=int(rng.integers(0, 4)),
                    backoff_base=float(rng.uniform(0.01, 0.3)),
                    jitter=float(rng.choice([0.0, 0.5])),
                    seed=seed,
                ),
                checkpoint_interval=int(rng.integers(1, 40)),
                admission_watermark=(
                    float(rng.uniform(0.2, 1.0)) if rng.uniform() < 0.5 else 1.0
                ),
            )
        mixed_tiers = bool(rng.uniform() < 0.5)
        deadline_share = float(rng.uniform()) if rng.uniform() < 0.5 else 0.0
        oversized = policy is not None and bool(rng.uniform() < 0.3)
        resumed = bool(rng.uniform() < 0.3)
        slowdowns = [
            (float(rng.uniform(0.0, 1.5)), float(rng.choice([1.0, 1.25, 2.0])))
            for _ in range(int(rng.integers(0, 3)))
        ]
        slowdowns.sort()

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
                    tier=int(gen.integers(0, 3)) if mixed_tiers else 1,
                    deadline=(
                        float(gen.uniform(0.05, 1.0))
                        if gen.uniform() < deadline_share else None
                    ),
                ))
            return requests

        # A tight pool still fits any single request's whole context, so
        # runs preempt under contention; a starved one fits every prompt
        # but not every whole context, so a lone runner can exhaust it
        # (and a resumed request's context can block the idle pool).
        largest = max(-(-(r.input_tokens + r.output_tokens) // block_size)
                      for r in make())
        pool = float(rng.uniform())
        if pool < 0.3:
            num_kv_blocks = largest + int(rng.integers(0, 8))
        elif pool < 0.6:
            num_kv_blocks = max(
                -(-r.input_tokens // block_size) for r in make()
            ) + int(rng.integers(0, 2))
        else:
            num_kv_blocks = 65536 // block_size
        victim_index = int(rng.integers(0, count))
        resumed_index = int(rng.integers(0, count))

        results = {}
        for mode in ("scalar", "vectorized"):
            requests = make()
            if resumed:
                request = requests[resumed_index]
                request.generated = request.output_tokens // 2
                if request.generated:
                    request.first_token_time = request.arrival_time
            if oversized:
                requests[victim_index].input_tokens = num_kv_blocks * block_size + 1
            engine = _engine(device, mode, num_kv_blocks=num_kv_blocks,
                             block_size=block_size, policy=policy)
            victims = []
            outcome = None
            try:
                engine.begin(requests)
                for at, slowdown in slowdowns:
                    engine.advance(at)
                    engine.slowdown = slowdown
                if operation != "none":
                    engine.advance(horizon)
                    alive = [r for r in requests if r.state in (
                        RequestState.WAITING, RequestState.RUNNING
                    )]
                    if operation == "fail_all":
                        victims = sorted(
                            v.request_id for v in engine.fail_all("outage: test")
                        )
                    elif alive:
                        engine.cancel(alive[int(pick * len(alive))], "timeout: test")
                engine.advance()
                outcome = engine.finish().to_json()
            except KvCacheError as error:  # fail-fast exhaustion
                outcome = f"KvCacheError: {error}"
            results[mode] = (outcome, _full_states(requests), victims)
        assert results["scalar"] == results["vectorized"]


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
