"""Runtime invariant auditor: taxonomy, hooks, watchdog, validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import (
    AuditError,
    AuditMode,
    Auditor,
    ClockError,
    CollectiveAuditError,
    ConfigError,
    KvConservationError,
    LifecycleError,
    MemoEquivalenceError,
    ReportConsistencyError,
    TokenConservationError,
    Watchdog,
    WatchdogExceeded,
    audit_scope,
    get_auditor,
    resolve_mode,
)
from repro.models.llama import DecodeAttention, LLAMA_3_1_8B, LlamaCostModel
from repro.serving import (
    LlmServingEngine,
    dynamic_sonnet_requests,
    fixed_length_requests,
)
from repro.serving.engine_core import EngineCore
from repro.serving.request import Request, RequestState


class TestTaxonomy:
    def test_all_rooted_at_audit_error(self):
        for cls in (KvConservationError, LifecycleError, ClockError,
                    TokenConservationError, ReportConsistencyError,
                    MemoEquivalenceError, CollectiveAuditError, ConfigError,
                    WatchdogExceeded):
            assert issubclass(cls, AuditError)
            assert issubclass(cls, RuntimeError)

    def test_check_slugs_distinct(self):
        slugs = [cls.check for cls in (
            KvConservationError, LifecycleError, ClockError,
            TokenConservationError, ReportConsistencyError,
            MemoEquivalenceError, CollectiveAuditError, ConfigError,
            WatchdogExceeded,
        )]
        assert len(slugs) == len(set(slugs))

    def test_config_error_is_value_error(self):
        """Legacy callers catching ValueError keep working."""
        assert issubclass(ConfigError, ValueError)
        with pytest.raises(ValueError):
            raise ConfigError("bad field")

    def test_watchdog_exceeded_carries_budget(self):
        error = WatchdogExceeded("over budget", steps=7, wall_seconds=1.5)
        assert error.steps == 7
        assert error.wall_seconds == 1.5


class TestModeResolution:
    def test_aliases(self):
        assert resolve_mode("") is AuditMode.OFF
        assert resolve_mode("0") is AuditMode.OFF
        assert resolve_mode("false") is AuditMode.OFF
        assert resolve_mode("1") is AuditMode.STRICT
        assert resolve_mode("true") is AuditMode.STRICT
        assert resolve_mode("SAMPLE") is AuditMode.SAMPLE

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            resolve_mode("verbose")

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "sample")
        assert resolve_mode() is AuditMode.SAMPLE

    def test_scope_restores_global(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        before = get_auditor()
        with audit_scope("strict") as auditor:
            assert auditor is get_auditor()
            assert auditor.strict
        assert get_auditor() is before

    def test_configure_exports_env_for_workers(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        with audit_scope("strict"):
            assert os.environ["REPRO_AUDIT"] == "strict"

    def test_bad_sample_fraction(self):
        with pytest.raises(ConfigError):
            Auditor(sample_fraction=1.5)


class TestLifecycle:
    def test_illegal_transition_raises_strict(self):
        auditor = Auditor(AuditMode.STRICT)
        with pytest.raises(LifecycleError):
            auditor.on_transition(1, RequestState.FINISHED, RequestState.RUNNING)

    def test_sample_mode_counts_instead(self):
        auditor = Auditor(AuditMode.SAMPLE)
        auditor.on_transition(1, RequestState.SHED, RequestState.RUNNING)
        assert auditor.violation_counts["lifecycle"] == 1

    def test_request_transitions_audited(self):
        with audit_scope("strict"):
            request = Request(1, input_tokens=8, output_tokens=2)
            request.start_running()
            request.record_token(0.1)
            request.record_token(0.2)   # finishes
            with pytest.raises(LifecycleError):
                request.fail("too late")  # finished -> failed is illegal

    def test_legal_paths_clean(self):
        with audit_scope("strict") as auditor:
            request = Request(2, input_tokens=8, output_tokens=4)
            request.start_running()
            request.restart()           # preemption: running -> waiting
            request.resubmit(1.0)       # waiting -> waiting
            request.start_running()
            request.shed("load")        # running -> shed
            assert auditor.total_violations == 0


class TestKvHardening:
    def test_free_all_audited(self, gaudi):
        """A watchdog trip releases every block the run holds, and the
        audited end of run checks that the pool drained."""
        auditor = Auditor(AuditMode.STRICT)
        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, gaudi),
            DecodeAttention.PAGED_OPT,
            max_decode_batch=4,
            auditor=auditor,
            watchdog=Watchdog(max_steps=10),
        )
        assert engine.run(fixed_length_requests(8, 100, 50)).watchdog_tripped
        assert auditor.checks["kv_conservation"] > 0
        assert auditor.total_violations == 0

    def test_free_and_allocated_overlap_detected(self):
        auditor = Auditor(AuditMode.STRICT, sample_fraction=1.0)
        core = EngineCore(num_blocks=8, block_size=4)
        slot = core.acquire(Request(1, input_tokens=4, output_tokens=2))
        core.free_slots.append(slot)  # corrupt: slot both free and live
        with pytest.raises(LifecycleError, match="simultaneously free and live"):
            auditor.check_core_invariants(core)

    def test_deep_scan_catches_double_ownership(self):
        auditor = Auditor(AuditMode.STRICT, sample_fraction=1.0)
        core = EngineCore(num_blocks=8, block_size=4)
        slot = core.acquire(Request(1, input_tokens=4, output_tokens=2))
        core.acquire(Request(2, input_tokens=4, output_tokens=2))
        core.wait_q.append(slot)  # corrupt: one slot owned twice
        with pytest.raises(LifecycleError, match="appears twice"):
            auditor.check_core_invariants(core)


class TestCollectiveAudit:
    def test_impossible_cost_rejected(self):
        auditor = Auditor(AuditMode.STRICT)
        with pytest.raises(CollectiveAuditError):
            auditor.check_collective(-1.0, 1024.0, 4, 8)

    def test_participants_beyond_degree_rejected(self):
        auditor = Auditor(AuditMode.STRICT)
        with pytest.raises(CollectiveAuditError):
            auditor.check_collective(0.001, 1024.0, 9, 8)

    def test_allreduce_audited_in_run(self, gaudi):
        from repro.models.tensor_parallel import TensorParallelConfig

        with audit_scope("strict") as auditor:
            tp = TensorParallelConfig.for_device(gaudi, 4)
            tp.allreduce_time(1 << 20)
            assert auditor.checks["collective"] > 0
            assert auditor.total_violations == 0


class TestMemoEquivalence:
    def test_poisoned_cache_entry_detected(self):
        from repro.core.memo import CostCache

        with audit_scope("strict", sample_fraction=1.0):
            cache = CostCache("audit-test")
            cache.put("k", 1.0)
            cache._data["k"] = 2.0          # poison the entry
            assert cache.get("k") is None   # sampled hit -> forced recompute
            with pytest.raises(MemoEquivalenceError):
                cache.put("k", 1.0)         # fresh value != poisoned entry

    def test_clean_cache_passes(self):
        from repro.core.memo import CostCache

        with audit_scope("strict", sample_fraction=1.0) as auditor:
            cache = CostCache("audit-clean")
            cache.put("k", 1.0)
            assert cache.get("k") is None
            cache.put("k", 1.0)
            assert auditor.memo_verified == 1
            assert auditor.total_violations == 0

    def test_off_mode_does_not_perturb_hits(self):
        from repro.core.memo import CostCache

        with audit_scope("off"):
            cache = CostCache("audit-off")
            cache.put("k", 1.0)
            assert cache.get("k") == 1.0
            assert cache.hits == 1


class TestTokenAndClock:
    def test_clock_regression_detected(self):
        auditor = Auditor(AuditMode.STRICT)
        run = auditor.begin_run("t")
        run.observe_clock(1.0)
        with pytest.raises(ClockError):
            run.observe_clock(0.5)

    def test_token_ledger_balances(self):
        auditor = Auditor(AuditMode.STRICT)
        run = auditor.begin_run("t")
        run.set_token_baseline(0)
        for _ in range(10):
            run.on_tokens_emitted()
        run.on_tokens_rolled_back(3)
        run.check_token_conservation(7)
        with pytest.raises(TokenConservationError):
            run.check_token_conservation(8)

    def test_report_partition_checked(self):
        auditor = Auditor(AuditMode.STRICT)
        run = auditor.begin_run("t")

        class Bad:
            num_requests = 4
            finished_requests = 1
            shed_requests = 1
            failed_requests = 1
            unfinished_requests = 0   # 3 != 4
            total_time = 1.0
            total_output_tokens = 10
            mean_ttft = 0.1
            mean_tpot = 0.01

        with pytest.raises(ReportConsistencyError):
            run.check_report(Bad())


class TestWatchdog:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Watchdog(max_steps=0)
        with pytest.raises(ConfigError):
            Watchdog(max_wall_seconds=-1.0)

    @pytest.mark.parametrize("budget", [
        {"max_steps": 2.5}, {"max_steps": True}, {"max_steps": "10"},
        {"max_wall_seconds": float("nan")}, {"max_wall_seconds": float("inf")},
        {"max_wall_seconds": "1"},
    ])
    def test_rejects_non_finite_and_non_integer_budgets(self, budget):
        with pytest.raises(ConfigError):
            Watchdog(**budget)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WATCHDOG_STEPS", raising=False)
        monkeypatch.delenv("REPRO_WATCHDOG_WALL", raising=False)
        assert Watchdog.from_env() is None
        monkeypatch.setenv("REPRO_WATCHDOG_STEPS", "100")
        watchdog = Watchdog.from_env()
        assert watchdog is not None and watchdog.max_steps == 100

    def test_step_budget_trips(self):
        watchdog = Watchdog(max_steps=5)
        watchdog.start()
        watchdog.check(4)
        with pytest.raises(WatchdogExceeded):
            watchdog.check(5)

    def test_engine_converts_trip_to_partial_report(self, gaudi):
        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, gaudi),
            DecodeAttention.PAGED_OPT,
            max_decode_batch=4,
            watchdog=Watchdog(max_steps=10),
        )
        report = engine.run(fixed_length_requests(8, 100, 50))
        assert report.watchdog_tripped
        assert "PARTIAL RESULT" in report.render()
        # The watchdog path must not leak KV blocks.
        assert engine.allocated_kv_blocks == 0

    def test_untripped_run_reports_nothing(self, gaudi):
        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, gaudi),
            DecodeAttention.PAGED_OPT,
            max_decode_batch=4,
            watchdog=Watchdog(max_steps=100_000),
        )
        report = engine.run(fixed_length_requests(2, 50, 5))
        assert not report.watchdog_tripped
        assert "PARTIAL RESULT" not in report.render()


class TestStrictEndToEnd:
    def test_serving_run_zero_violations(self, gaudi):
        with audit_scope("strict") as auditor:
            engine = LlmServingEngine(
                LlamaCostModel(LLAMA_3_1_8B, gaudi),
                DecodeAttention.PAGED_OPT,
                max_decode_batch=8,
                auditor=auditor,
            )
            engine.run(dynamic_sonnet_requests(12, seed=5))
            assert auditor.total_violations == 0
            assert auditor.checks["kv_conservation"] > 0
            assert auditor.checks["report_consistency"] > 0

    def test_preemption_churn_zero_violations(self, gaudi):
        with audit_scope("strict") as auditor:
            engine = LlmServingEngine(
                LlamaCostModel(LLAMA_3_1_8B, gaudi),
                DecodeAttention.PAGED_OPT,
                max_decode_batch=8,
                num_kv_blocks=24,
                auditor=auditor,
            )
            report = engine.run(fixed_length_requests(8, 256, 200))
            assert report.preemptions > 0
            assert auditor.total_violations == 0

    def test_summary_and_metrics_export(self):
        from repro.obs.metrics import MetricsRegistry

        auditor = Auditor(AuditMode.SAMPLE)
        auditor.on_transition(1, RequestState.SHED, RequestState.RUNNING)
        summary = auditor.summary()
        assert summary["violations"] == 1
        registry = MetricsRegistry()
        auditor.publish_metrics(registry)
        auditor.publish_metrics(registry)  # delta-idempotent
        assert registry.counter("audit.violations").value == 1
        assert "lifecycle" in auditor.render()


@st.composite
def _op_sequences(draw):
    """Sequences of (op, arg) driving the engine's streaming API."""
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["submit", "step", "cancel", "fail_all", "slow"]),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=40,
    ))


class TestSchedulerPropertyAudit:
    """Arbitrary legal op interleavings keep every invariant intact."""

    @settings(max_examples=60, deadline=None)
    @given(ops=_op_sequences())
    def test_random_schedules_hold_invariants(self, ops):
        """Feeds, horizons, cancellations, failures and slowdowns in any
        order on a pool tight enough to preempt: the strict audit
        (every deep scan on) finds nothing, and the pool drains."""
        from repro.hw.backend import get_backend

        with audit_scope("strict", sample_fraction=1.0) as auditor:
            engine = LlmServingEngine(
                LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2")),
                DecodeAttention.PAGED_OPT,
                max_decode_batch=4,
                block_size=16,
                num_kv_blocks=7,
            )
            requests = [
                Request(i, input_tokens=30, output_tokens=6, arrival_time=0.0)
                for i in range(8)
            ]
            live = (RequestState.WAITING, RequestState.RUNNING)
            submitted = set()
            engine.begin(())
            for op, index in ops:
                request = requests[index]
                if op == "submit" and index not in submitted:
                    engine.feed(request)
                    submitted.add(index)
                elif op == "step":
                    engine.advance(engine.now + 0.01 * (index + 1))
                elif op == "cancel" and index in submitted and request.state in live:
                    engine.cancel(request, "property-test")
                elif op == "fail_all":
                    engine.fail_all("property-test")
                elif op == "slow":
                    engine.slowdown = 1.0 + index / 4
            engine.advance()
            report = engine.finish()
            assert report.num_requests == len(submitted)
            assert engine.allocated_kv_blocks == 0
            assert auditor.total_violations == 0


class TestValidation:
    def test_chaos_config_rejects_bad_fields(self):
        from repro.faults import ChaosConfig

        for kwargs, fragment in [
            (dict(model="13b"), "model"),
            (dict(tp=0), "tp"),
            (dict(max_decode_batch=0), "max_decode_batch"),
            (dict(num_requests=0), "num_requests"),
            (dict(rate=-1.0), "rate"),
            (dict(deadline=0.0), "deadline"),
            (dict(max_retries=-1), "max_retries"),
            (dict(checkpoint_interval=0), "checkpoint_interval"),
            (dict(num_kv_blocks=0), "num_kv_blocks"),
            (dict(admission_watermark=0.0), "admission_watermark"),
        ]:
            with pytest.raises(ConfigError) as excinfo:
                ChaosConfig(**kwargs)
            assert fragment in str(excinfo.value)

    def test_fault_plan_rejects_bad_fields(self):
        from repro.faults import FaultPlan

        with pytest.raises(ConfigError):
            FaultPlan(kernel_fault_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan().fail_device(-1, at=1.0)
        with pytest.raises(ConfigError):
            FaultPlan().degrade_link(0, 0, factor=0.5, at=1.0)
        with pytest.raises(ConfigError):
            FaultPlan().degrade_link(0, 1, factor=1.5, at=1.0)
        with pytest.raises(ConfigError):
            FaultPlan().straggler(2, factor=0.0, at=1.0)
        with pytest.raises(ConfigError):
            FaultPlan().throttle_hbm(0.0, at=1.0)
        with pytest.raises(ConfigError):
            FaultPlan().flap_link(0, 1, at=1.0, period=0.0, cycles=2)
        with pytest.raises(ConfigError):
            FaultPlan().fail_device(1, at=2.0, recover_at=1.0)

    def test_chaos_config_still_value_error_compatible(self):
        from repro.faults import ChaosConfig

        with pytest.raises(ValueError):
            ChaosConfig(model="13b")


class TestReportGuards:
    def test_empty_run_renders(self, gaudi):
        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, gaudi), DecodeAttention.PAGED_OPT
        )
        report = engine.run([])
        assert report.num_requests == 0
        assert "no finished requests" in report.render()

    def test_resilience_report_all_shed_renders(self):
        from repro.faults.report import ResilienceReport

        report = ResilienceReport(
            device="Gaudi-2", model="llama", tp_degree=1, seed=0,
            num_requests=4, finished_requests=0, shed_requests=4,
            failed_requests=0, unfinished_requests=0, retried_requests=0,
            recovered_requests=0, preemptions=0, fault_preemptions=0,
            kernel_retries=0, device_failures=0, device_recoveries=0,
            total_time=0.0, total_output_tokens=0,
            throughput_tokens_per_s=0.0, goodput_tokens_per_s=0.0,
            slo_violation_rate=1.0, mean_ttft=0.0, p99_ttft=0.0,
            mean_tpot=0.0, alive_devices=1, healthy_allreduce_bw=0.0,
            degraded_allreduce_bw=0.0,
        )
        text = report.render()
        assert "no finished requests" in text
        assert "mean TTFT" not in text
