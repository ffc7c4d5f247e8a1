"""The struct-of-arrays engine core against its pinned reference.

Every report and per-request terminal state must equal the digests
``tests/engine_digests.json`` recorded on the per-object scalar stepper
before it was deleted, across backends, attention kernels, preemption,
streaming arrival feeds and lifecycle operations between horizons
(see ``tests/engine_goldens.py``).  Binding a RunContext makes every
decode burst a single step; the fuzz checks that this changes no byte.
Plus the slot-recycling safety property and the constant-memory
guarantee of release-mode streaming runs.
"""

import heapq
import json
import math
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
from repro.faults import FaultInjector, FaultPlan
from repro.hw.backend import GAUDI2, get_backend
from repro.models.llama import DecodeAttention, LLAMA_3_1_8B, LlamaCostModel
from repro.serving import (
    KvCacheError,
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
from repro.serving.request import Request, RequestState, RetryPolicy
from tests import engine_goldens


#: Engine configurations the stream-vs-list differential draws under.
STREAM_CONFIGS = [
    "plain", "policy", "faults", "context", "mixed-tiers", "strict", "watchdog",
]


def _drawn_serve(config, seed, stream, fed=None):
    """Serve one seeded draw (request count, arrival rate with tied
    arrivals, batch size, KV pool from roomy to preempting) under
    ``config``; ``stream`` feeds it through an iterator instead of a
    list, and a list run serves only the first ``fed`` requests when
    given.  Returns the report's JSON and every request's lifecycle
    fields, or the typed error a fail-fast run raised."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 40))
    rate = float(rng.uniform(4.0, 60.0))
    ties = float(rng.uniform(0.0, 0.3))
    tiers = config == "mixed-tiers"
    requests = list(poisson_arrivals(
        dynamic_sonnet_requests(count, seed=seed), rate, seed=seed + 1
    ))
    for index in range(1, count):
        if rng.uniform() < ties:
            requests[index].arrival_time = requests[index - 1].arrival_time
        if tiers:
            requests[index].tier = int(rng.integers(0, 3))
    largest = max(-(-(r.input_tokens + r.output_tokens) // 128) for r in requests)
    kwargs = {
        "max_decode_batch": int(rng.choice([2, 4, 8, 16])),
        "num_kv_blocks": (
            largest + int(rng.integers(0, 24)) if rng.uniform() < 0.5 else None
        ),
        "retain_requests": config != "plain" or bool(rng.uniform() < 0.5),
    }
    if config in ("policy", "faults", "watchdog"):
        kwargs["policy"] = ResiliencePolicy(
            deadline=float(rng.uniform(0.05, 1.0)),
            retry=RetryPolicy(
                max_retries=int(rng.integers(0, 4)),
                backoff_base=float(rng.uniform(0.01, 0.3)),
                jitter=float(rng.choice([0.0, 0.5])),
                seed=seed,
            ),
            checkpoint_interval=int(rng.integers(1, 40)),
            admission_watermark=float(rng.uniform(0.3, 1.0)),
        )
    if config == "faults":
        span = requests[-1].arrival_time + 1.0
        fail = float(rng.uniform(0.0, span))
        plan = FaultPlan(seed=seed, kernel_fault_rate=float(rng.uniform(0.0, 0.1)))
        plan.fail_device(0, at=fail, recover_at=fail + float(rng.uniform(0.01, 1.0)))
        plan.kernel_fault_at(float(rng.uniform(0.0, span)))
        kwargs["injector"] = FaultInjector(plan, num_devices=int(rng.integers(1, 3)))
    if config == "context":
        kwargs["ctx"] = RunContext.create()
    if config == "watchdog":
        kwargs["watchdog"] = Watchdog(max_steps=int(rng.integers(1, 60)))
    engine = LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, get_backend(GAUDI2)),
        DecodeAttention.PAGED_OPT,
        **kwargs,
    )
    with audit_scope("strict" if config == "strict" else "off"):
        try:
            outcome = engine.run(
                iter(requests) if stream else requests[:fed]
            ).to_json()
        except KvCacheError as error:  # fail-fast exhaustion
            outcome = f"KvCacheError: {error}"
    return [outcome, engine_goldens.states(requests)]


def _engine(device, attention=DecodeAttention.PAGED_OPT, **kwargs):
    return LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, device), attention, **kwargs
    )


def _assert_pinned(name):
    """Case ``name`` of ``engine_goldens`` reproduces its scalar digest."""
    payload = engine_goldens.CASES[name]()
    assert engine_goldens.digest(payload) == engine_goldens.load_goldens()[name]


class TestGoldenEquivalence:
    """Runs must be byte-identical to the scalar stepper's."""

    def test_backlog(self):
        _assert_pinned("backlog")

    def test_poisson_arrivals(self):
        _assert_pinned("poisson")

    def test_preemption_small_kv_pool(self):
        _assert_pinned("small_kv_pool")

    def test_single_token_outputs_finish_at_prefill(self):
        _assert_pinned("single_token_outputs")

    @pytest.mark.parametrize("attention", list(DecodeAttention))
    def test_every_attention_kernel(self, attention):
        _assert_pinned(f"attention_{attention.name}")

    def test_other_backend(self):
        _assert_pinned("other_backend")

    def test_under_strict_audit(self):
        _assert_pinned("strict_audit")


class TestStreamingRuns:
    def test_stream_matches_list_vectorized(self, gaudi):
        def make():
            return poisson_arrivals(
                dynamic_sonnet_requests(64, seed=8), 25.0, seed=2
            )

        listed = _engine(gaudi).run(make()).to_json()
        streamed = _engine(gaudi).run(iter(make())).to_json()
        assert listed == streamed

    def test_stream_matches_list_scalar(self, gaudi):
        """A streamed trace reproduces the scalar stepper's list run."""
        streamed = _engine(gaudi).run(iter(poisson_arrivals(
            dynamic_sonnet_requests(48, seed=8), 25.0, seed=2
        ))).to_json()
        assert engine_goldens.digest(streamed) == (
            engine_goldens.load_goldens()["stream_reference"]
        )

    def test_unsorted_arrivals_rejected(self, gaudi):
        requests = dynamic_sonnet_requests(3, seed=0)
        requests[0].arrival_time = 5.0
        requests[1].arrival_time = 1.0
        with pytest.raises(ConfigError, match="nondecreasing"):
            _engine(gaudi).run(iter(requests))

    @pytest.mark.parametrize("config", STREAM_CONFIGS)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=12, deadline=None)
    def test_stream_matches_list_drawn(self, config, seed):
        """A drawn workload streams to the report bytes and request
        states of the same workload fed as a list up front."""
        streamed = _drawn_serve(config, seed, stream=True)
        fed = None
        if config == "watchdog":
            # A tripped stream stops drawing: its partial report covers
            # the arrivals fed so far, which is what a list run of just
            # those reports too.
            report = json.loads(streamed[0])
            assert report["watchdog_reason"]
            fed = report["num_requests"]
        assert streamed == _drawn_serve(config, seed, stream=False, fed=fed)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("where", [0, 20], ids=["first", "mid-run"])
    @pytest.mark.parametrize("stream", [False, True], ids=["list", "stream"])
    def test_non_finite_arrival_rejected(self, gaudi, bad, where, stream):
        """A non-finite ``arrival_time`` raises a ConfigError naming the
        request and the field, in a list run before the run opens and
        in a streamed run as the request is drawn; either way no root
        span stays open and no audit handle stays bound."""
        requests = list(poisson_arrivals(
            dynamic_sonnet_requests(24, seed=4), 20.0, seed=1
        ))
        requests[where].arrival_time = bad
        ctx = RunContext.create()
        with audit_scope("strict"):
            engine = _engine(gaudi, max_decode_batch=8, ctx=ctx)
            with pytest.raises(
                ConfigError, match=f"request {requests[where].request_id}: arrival_time"
            ):
                engine.run(iter(requests) if stream else requests)
        assert ctx.tracer.open_spans == 0
        assert engine._audit is None
        if stream and where:
            assert engine._steps > 0  # the stream failed after steps ran
        assert all(r.state is RequestState.WAITING for r in requests[where:])

    @pytest.mark.parametrize("stream", [False, True], ids=["list", "stream"])
    def test_unservable_prompt_closes_the_run(self, gaudi, stream):
        """A fail-fast KvCacheError raised while an up-front request is
        fed leaves no root span open and no audit handle bound, in a
        list run as in a streamed one."""
        requests = [Request(0, input_tokens=5_000, output_tokens=8)]
        ctx = RunContext.create()
        with audit_scope("strict"):
            engine = _engine(gaudi, max_decode_batch=8, num_kv_blocks=4, ctx=ctx)
            with pytest.raises(KvCacheError):
                engine.run(iter(requests) if stream else requests)
        assert ctx.tracer.open_spans == 0
        assert engine._audit is None

    def test_out_of_order_mid_run_closes_the_run(self, gaudi):
        """An arrival earlier than its predecessor, drawn after steps
        ran, raises ConfigError with the root span closed."""
        requests = list(poisson_arrivals(
            dynamic_sonnet_requests(24, seed=4), 20.0, seed=1
        ))
        requests[20].arrival_time = requests[19].arrival_time - 0.5
        ctx = RunContext.create()
        with audit_scope("strict"):
            engine = _engine(gaudi, max_decode_batch=8, ctx=ctx)
            with pytest.raises(ConfigError, match="request 20 has"):
                engine.run(iter(requests))
        assert engine._steps > 0
        assert ctx.tracer.open_spans == 0
        assert engine._audit is None

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

        retained = json.loads(_engine(gaudi).run(make()).to_json())
        released = json.loads(
            _engine(gaudi, retain_requests=False)
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
        engine = _engine(gaudi, retain_requests=False)
        engine.run(iter(dynamic_sonnet_requests(16, seed=1)))
        assert engine.requests == []


class TestLifecycleOperations:
    def test_fail_all_matches_scalar(self):
        _assert_pinned("fail_all")

    def test_cancel_matches_scalar(self):
        _assert_pinned("cancel")

    def test_request_states_match_scalar_at_every_horizon(self):
        """Observing between horizons: a request that finished in the
        last burst shows FINISHED at ``advance()`` exit."""
        _assert_pinned("every_horizon")

    @pytest.mark.parametrize("strict", [False, True], ids=["audit-off", "strict"])
    @pytest.mark.parametrize("pool", [None, 40], ids=["roomy-pool", "small-pool"])
    def test_split_exit_sync_matches_scalar(self, strict, pool):
        """``advance(h, sync_exit=False)`` (the fleet node's call)
        publishes every terminal transition as it happens, outbox
        included; only runner progress waits for ``sync_live()``, which
        runs every third horizon so the core also steps unsynced."""
        pool_id = "roomy" if pool is None else "small"
        _assert_pinned(f"split_exit_{pool_id}_{'strict' if strict else 'off'}")


def _feed(engine, health, requests):
    engine.feed(requests[20])


def _cancel(engine, health, requests):
    running = next(r for r in requests if r.state is RequestState.RUNNING)
    engine.cancel(running, "timeout: test")


def _bind_context(engine, health, requests):
    engine.bind_context(RunContext.create())


def _brownout(engine, health, requests):
    engine.slowdown = 2.0


def _fabric_fault(engine, health, requests):
    health.set_link_factor(0, 1, 0.25)


class TestParkedBursts:
    """A decode burst the horizon alone stops parks, and the next
    ``advance()`` takes its next step without a scheduler iteration
    unless something changed the run in between.  Every run here
    equals the same run with parking forced off."""

    @staticmethod
    def _drive(parking, mutate=None, at=None, sync_exit=False):
        """A TP-8 gaudi2 engine with a TTFT deadline, advanced in 20 ms
        horizons with every request's state read after each.
        ``mutate(engine, health, requests)`` runs once: at horizon
        ``at``, or else at the first horizon from 0.5 s that left a
        burst parked.  ``parking`` is the fixture that counts resumes
        (and may force parking off)."""
        from repro.comm import FabricHealth
        from repro.hw.backend import GAUDI2, get_backend
        from repro.models.llama import default_decode_attention
        from repro.models.tensor_parallel import TensorParallelConfig

        resumed = parking.resumed
        resumed.clear()
        health = FabricHealth()
        device = get_backend(GAUDI2)
        engine = LlmServingEngine(
            LlamaCostModel(
                LLAMA_3_1_8B, device,
                tp=TensorParallelConfig(
                    degree=8, library=device.collective_library().degraded(health)
                ),
            ),
            default_decode_attention(device),
            max_decode_batch=8,
            policy=ResiliencePolicy(deadline=2.0),
        )
        requests = list(poisson_arrivals(
            dynamic_sonnet_requests(24, seed=6), 40.0, seed=1
        ))
        engine.begin(requests[:20])
        run = {"at": None, "kept": None, "resumed_after": None, "trace": []}
        horizon = 0.0
        while engine.has_unfinished:
            horizon = round(horizon + 0.02, 2)
            before = len(resumed)
            engine.advance(horizon, sync_exit=sync_exit)
            if run["at"] is not None and run["resumed_after"] is None:
                run["resumed_after"] = len(resumed) > before
            if not sync_exit:
                engine.sync_live()
            run["trace"].append(engine_goldens.states(requests))
            due = horizon == at if at is not None else (
                horizon >= 0.5 and engine._park_piece is not None
            )
            if mutate is not None and run["at"] is None and due:
                run["at"] = horizon
                mutate(engine, health, requests)
                run["kept"] = engine._park_piece is not None
        run["report"] = engine.finish().to_json()
        run["resumes"] = len(resumed)
        return run

    def _assert_equal_unparked(self, parking, mutate=None, sync_exit=False):
        with audit_scope("off"):
            parked = self._drive(parking, mutate, sync_exit=sync_exit)
            parking.off = True
            reference = self._drive(
                parking, mutate, at=parked["at"], sync_exit=sync_exit
            )
        assert parked["resumes"] > 0 and reference["resumes"] == 0
        assert parked["trace"] == reference["trace"]
        assert parked["report"] == reference["report"]
        return parked

    @pytest.mark.parametrize("mutate,kept", [
        (_feed, False), (_cancel, False), (_bind_context, False),
        # Left in place for the next advance() to refuse: it compares
        # the slowdown and the fabric fault state with the park's.
        (_brownout, True), (_fabric_fault, True),
    ], ids=["feed", "cancel", "bind_context", "brownout-slowdown", "fabric-fault"])
    def test_change_between_advances_drops_the_park(self, parking, mutate, kept):
        run = self._assert_equal_unparked(parking, mutate)
        assert run["at"] is not None
        assert run["kept"] is kept
        assert run["resumed_after"] is False

    def test_resume_syncs_runner_progress_on_exit(self, parking):
        """``advance(h)`` with the default ``sync_exit=True`` still
        copies runner progress onto the live requests after a resumed
        burst: the states read after every horizon match."""
        self._assert_equal_unparked(parking, sync_exit=True)

    @pytest.mark.parametrize("mode", ["strict", "observed"])
    def test_audited_and_observed_runs_never_park(self, gaudi, parking, mode):
        with audit_scope("strict" if mode == "strict" else "off"):
            engine = _engine(gaudi, max_decode_batch=8)
            if mode == "observed":
                engine.bind_context(RunContext.create())
            engine.begin(poisson_arrivals(
                dynamic_sonnet_requests(16, seed=6), 40.0, seed=1
            ))
            horizon = 0.0
            while engine.has_unfinished:
                horizon += 0.02
                engine.advance(horizon)
                assert engine._park_piece is None
            engine.finish()
        assert parking.resumed == []


class TestRunnerAggregates:
    """The core's running decode-batch state under the strict audit."""

    def _core_mid_run(self, gaudi, block_size):
        engine = _engine(gaudi, block_size=block_size)
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
        engine = _engine(gaudi, max_decode_batch=2, policy=ResiliencePolicy())
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
        _engine(gaudi).run(dynamic_sonnet_requests(8, seed=0))
        _engine(gaudi, ctx=RunContext.create()).run(dynamic_sonnet_requests(8, seed=0))
        counters = counters_snapshot()
        assert counters["vectorized_runs"] == 2
        assert counters["vectorized_steps"] > 0
        assert counters["scalar_steps"] == 0
        assert counters["slot_high_water"] > 0
        rendered = render_counters()
        assert "steps" in rendered and "high-water" in rendered

    def test_streaming_bumps_arrival_buffer_peak(self, gaudi):
        reset_counters()
        _engine(gaudi).run(
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
        """A drawn workload (see ``engine_goldens.fuzz_engine_run``)
        gives byte-identical reports and request states with a
        RunContext bound -- one-step bursts, every span and metric --
        and unbound (free bursts); odd seeds run under the strict
        audit."""

        def both():
            return (
                engine_goldens.fuzz_engine_run(seed),
                engine_goldens.fuzz_engine_run(seed, RunContext.create()),
            )

        if seed % 2:
            with audit_scope("strict"):
                free, stepwise = both()
        else:
            free, stepwise = both()
        assert free == stepwise

    def test_pinned_fuzz_draws_match_scalar(self):
        goldens = engine_goldens.load_goldens()
        for seed in range(engine_goldens.FUZZ_DRAWS):
            payload = engine_goldens.fuzz_engine_run(seed)
            assert engine_goldens.digest(payload) == goldens[f"fuzz_engine_{seed}"], seed


class TestBoundedMemory:
    def test_streaming_peak_independent_of_trace_length(self, gaudi):
        def peak(n, trace=True):
            engine = _engine(gaudi, retain_requests=False)
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
