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
import tracemalloc

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
    audit_scope,
)
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
from repro.serving.request import Request
from tests import engine_goldens


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
