"""Open-loop load generation and sustainable-rate search."""

import pytest

from repro.hw import get_backend
from repro.models.llama import DecodeAttention, LLAMA_3_1_8B, LlamaCostModel
from repro.serving import (
    LlmServingEngine,
    fixed_length_requests,
    max_sustainable_rate,
    poisson_arrivals,
    run_load_test,
)
from repro.serving.loadgen import run_load_sweep


def _engine_factory(device_name="gaudi2", max_batch=16):
    def factory():
        return LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, get_backend(device_name)),
            DecodeAttention.PAGED_OPT,
            max_decode_batch=max_batch,
        )

    return factory


def _request_factory(n=24):
    return lambda: fixed_length_requests(n, input_len=128, output_len=32)


# Top-level (picklable) factories for the process-pool sweep tests.
def _small_engine():
    return LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2")),
        DecodeAttention.PAGED_OPT,
        max_decode_batch=8,
    )


def _small_requests():
    return fixed_length_requests(10, input_len=128, output_len=16)


class TestPoissonArrivals:
    def test_arrivals_monotone(self):
        requests = poisson_arrivals(fixed_length_requests(20, 100, 10), rate=5.0, seed=1)
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)
        assert times[0] > 0

    def test_rate_controls_spacing(self):
        slow = poisson_arrivals(fixed_length_requests(200, 100, 10), rate=1.0, seed=2)
        fast = poisson_arrivals(fixed_length_requests(200, 100, 10), rate=100.0, seed=2)
        assert fast[-1].arrival_time < slow[-1].arrival_time

    def test_seeded_determinism(self):
        a = poisson_arrivals(fixed_length_requests(10, 100, 10), 5.0, seed=3)
        b = poisson_arrivals(fixed_length_requests(10, 100, 10), 5.0, seed=3)
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            poisson_arrivals(fixed_length_requests(4, 100, 10), 0.0)


class TestLoadTest:
    def test_light_load_not_saturated(self):
        report = run_load_test(
            engine_factory=_engine_factory(), request_factory=_request_factory(),
            offered_rate=2.0,
        )
        assert not report.saturated
        assert report.mean_ttft < 1.0

    def test_overload_saturates(self):
        report = run_load_test(
            engine_factory=_engine_factory(max_batch=2),
            request_factory=_request_factory(48), offered_rate=500.0,
        )
        assert report.saturated
        assert report.achieved_rate < report.offered_rate

    def test_latency_grows_with_load(self):
        light, heavy = (
            run_load_test(
                engine_factory=_engine_factory(), request_factory=_request_factory(),
                offered_rate=rate,
            )
            for rate in (2.0, 200.0)
        )
        assert heavy.p99_ttft > light.p99_ttft
        assert heavy.p99_ttft >= heavy.mean_ttft


class TestLoadSweep:
    RATES = [2.0, 400.0]

    def test_serial_sweep_is_deterministic(self):
        a = run_load_sweep(
            engine_factory=_small_engine, request_factory=_small_requests,
            rates=self.RATES, seed=5,
        )
        b = run_load_sweep(
            engine_factory=_small_engine, request_factory=_small_requests,
            rates=self.RATES, seed=5,
        )
        assert a == b

    def test_parallel_matches_serial(self):
        """Satellite 6: the sweep is bit-identical across a process pool."""
        serial = run_load_sweep(
            engine_factory=_small_engine, request_factory=_small_requests,
            rates=self.RATES, seed=5, workers=1,
        )
        parallel = run_load_sweep(
            engine_factory=_small_engine, request_factory=_small_requests,
            rates=self.RATES, seed=5, workers=2,
        )
        assert serial == parallel

    def test_points_get_distinct_seeds(self):
        # Two identical rates must still draw different arrival processes.
        reports = run_load_sweep(
            engine_factory=_small_engine, request_factory=_small_requests,
            rates=[8.0, 8.0], seed=5,
        )
        assert reports[0] != reports[1]


class TestSustainableRate:
    def test_bisection_converges_between_bounds(self):
        rate = max_sustainable_rate(
            _engine_factory(), _request_factory(), low=1.0, high=500.0, iterations=5
        )
        assert 1.0 <= rate <= 500.0
        # The found rate must itself be sustainable.
        report = run_load_test(
            engine_factory=_engine_factory(), request_factory=_request_factory(),
            offered_rate=rate,
        )
        assert not report.saturated

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            max_sustainable_rate(_engine_factory(), _request_factory(), 10.0, 5.0)

    def test_parallel_search_finds_sustainable_rate(self):
        rate = max_sustainable_rate(
            _small_engine, _small_requests, low=1.0, high=500.0,
            iterations=4, workers=2,
        )
        assert 1.0 <= rate <= 500.0
        report = run_load_test(
            engine_factory=_small_engine, request_factory=_small_requests,
            offered_rate=rate,
        )
        assert not report.saturated

    def test_gaudi_sustains_higher_rate_than_a100(self):
        """The Figure 17(d) ordering under open-loop load."""
        gaudi_rate = max_sustainable_rate(
            _engine_factory("gaudi2"), _request_factory(), 1.0, 400.0, iterations=5
        )
        a100_rate = max_sustainable_rate(
            _engine_factory("a100"), _request_factory(), 1.0, 400.0, iterations=5
        )
        assert gaudi_rate >= 0.8 * a100_rate


class TestStreamingLoadgen:
    """Lazy arrival iterables and the factory-misuse guard."""

    def test_lazy_poisson_matches_list(self):
        listed = poisson_arrivals(fixed_length_requests(50, 100, 10), 5.0, seed=4)
        lazy = list(
            poisson_arrivals(iter(fixed_length_requests(50, 100, 10)), 5.0, seed=4)
        )
        assert [r.arrival_time for r in lazy] == [r.arrival_time for r in listed]

    def test_lazy_diurnal_matches_list(self):
        from repro.serving.loadgen import diurnal_arrivals

        listed = diurnal_arrivals(
            fixed_length_requests(50, 100, 10), 5.0, seed=4
        )
        lazy = list(
            diurnal_arrivals(
                iter(fixed_length_requests(50, 100, 10)), 5.0, seed=4
            )
        )
        assert [r.arrival_time for r in lazy] == [r.arrival_time for r in listed]

    def test_streaming_factory_matches_list_factory(self):
        list_report = run_load_test(
            engine_factory=_small_engine, request_factory=_small_requests,
            offered_rate=20.0,
        )
        stream_report = run_load_test(
            engine_factory=_small_engine,
            request_factory=lambda: iter(_small_requests()),
            offered_rate=20.0,
        )
        assert stream_report == list_report

    def test_bare_generator_factory_rejected(self):
        from repro.audit import ConfigError

        with pytest.raises(ConfigError, match="zero-argument callable"):
            run_load_test(
                engine_factory=_small_engine,
                request_factory=iter(_small_requests()),
                offered_rate=20.0,
            )

    def test_bare_generator_rejected_in_sweep(self):
        from repro.audit import ConfigError

        with pytest.raises(ConfigError, match="zero-argument callable"):
            run_load_sweep(
                engine_factory=_small_engine,
                request_factory=iter(_small_requests()),
                rates=[5.0, 10.0],
            )

    def test_non_callable_factory_rejected(self):
        from repro.audit import ConfigError

        with pytest.raises(ConfigError, match="callable"):
            run_load_test(
                engine_factory=_small_engine,
                request_factory=_small_requests(),
                offered_rate=20.0,
            )
