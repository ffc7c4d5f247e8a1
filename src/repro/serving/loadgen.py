"""Open-loop load generation and sustainable-throughput search.

The paper's Figure 17(d, e) sweeps the engine's batch-size knob under a
backlog; production serving instead sees an *arrival process*.  This
module adds the standard open-loop methodology on top of the engine:
Poisson arrivals at a target request rate, latency percentiles under
load, and a bisection search for the maximum sustainable rate (the
knee of the latency curve).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.audit import ConfigError
from repro.core.metrics import goodput_fraction, percentile, slo_violation_rate
from repro.core.parallel import map_with_retries, resolve_worker_count
from repro.serving.engine import LlmServingEngine, ServingReport
from repro.serving.request import Request, RequestState, RetryPolicy

__all__ = [
    "LoadTestReport",
    "ResilientLoadReport",
    "RetryPolicy",
    "diurnal_arrivals",
    "max_sustainable_rate",
    "poisson_arrivals",
    "run_load_sweep",
    "run_load_test",
    "run_resilient_load_test",
    "sweep_seeds",
]


def sweep_seeds(seed: int, n: int) -> List[int]:
    """``n`` independent child seeds derived from one sweep seed.

    Uses :class:`numpy.random.SeedSequence` spawning, so each sweep
    point gets its own stream regardless of execution order -- serial
    and parallel sweeps see identical arrival processes.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return [int(child.generate_state(1)[0]) for child in np.random.SeedSequence(seed).spawn(n)]


@dataclass(frozen=True)
class LoadTestReport:
    """One open-loop load point."""

    offered_rate: float          # requests/s offered
    achieved_rate: float         # requests/s completed
    mean_ttft: float
    p99_ttft: float
    mean_tpot: float
    saturated: bool              # completions lag arrivals

    @property
    def goodput_fraction(self) -> float:
        return self.achieved_rate / self.offered_rate if self.offered_rate else 0.0

    def to_dict(self) -> dict:
        """Exact (unrounded) JSON payload; round-trips bit-identically
        through :meth:`from_dict` -- the sweep-journal contract."""
        return {
            "offered_rate": self.offered_rate,
            "achieved_rate": self.achieved_rate,
            "mean_ttft": self.mean_ttft,
            "p99_ttft": self.p99_ttft,
            "mean_tpot": self.mean_tpot,
            "saturated": self.saturated,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoadTestReport":
        return cls(
            offered_rate=float(data["offered_rate"]),
            achieved_rate=float(data["achieved_rate"]),
            mean_ttft=float(data["mean_ttft"]),
            p99_ttft=float(data["p99_ttft"]),
            mean_tpot=float(data["mean_tpot"]),
            saturated=bool(data["saturated"]),
        )


def _check_request_factory(request_factory: object) -> None:
    """Reject a bare iterable passed where a factory is required.

    Sweeps and bisection searches serve one workload *per load point*,
    so they need a zero-argument callable that yields a fresh, finite
    arrival stream each call -- a generator object can only be consumed
    once and would silently starve every point after the first."""
    if callable(request_factory):
        return
    if isinstance(request_factory, Iterable):
        raise ConfigError(
            "request_factory must be a zero-argument callable, not a bare "
            "iterable/generator (it would be consumed by the first load "
            "point); wrap it in a factory, e.g. "
            "lambda: iter_dynamic_sonnet_requests(n, seed)"
        )
    raise ConfigError(
        f"request_factory must be callable, got "
        f"{type(request_factory).__name__!r}"
    )


def poisson_arrivals(
    requests: Iterable[Request], rate: float, seed: int = 0
) -> Union[List[Request], Iterator[Request]]:
    """Assign Poisson arrival times (rate in requests/s), in place.

    A :class:`Sequence` is stamped and returned as a list (the
    original, byte-golden path); any other iterable is wrapped lazily
    -- requests are stamped one by one as they are pulled, so a
    million-request generator never materializes.  Both draw the gaps
    from the same seeded stream.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if not isinstance(requests, Sequence):
        return _lazy_poisson(requests, rate, seed)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=len(requests))
    clock = 0.0
    for request, gap in zip(requests, gaps):
        clock += float(gap)
        request.arrival_time = clock
    return list(requests)


def _lazy_poisson(
    requests: Iterable[Request], rate: float, seed: int
) -> Iterator[Request]:
    rng = np.random.default_rng(seed)
    clock = 0.0
    for request in requests:
        clock += float(rng.exponential(1.0 / rate))
        request.arrival_time = clock
        yield request


def diurnal_arrivals(
    requests: Iterable[Request],
    rate: float,
    period: float = 60.0,
    amplitude: float = 0.8,
    seed: int = 0,
) -> Union[List[Request], Iterator[Request]]:
    """Assign sinusoidally-modulated Poisson arrival times, in place.

    A non-homogeneous Poisson process with instantaneous rate
    ``rate * (1 + amplitude * sin(2*pi*t / period))`` (mean ``rate``),
    sampled by Lewis-Shedler thinning against the peak rate -- the
    standard diurnal traffic shape that exercises autoscalers with
    alternating overload peaks and idle troughs.

    As with :func:`poisson_arrivals`, a non-``Sequence`` iterable is
    stamped lazily; the thinning loop already draws per request, so
    both paths consume the identical random stream.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if period <= 0:
        raise ValueError("period must be positive")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    if not isinstance(requests, Sequence):
        return _lazy_diurnal(requests, rate, period, amplitude, seed)
    return list(_lazy_diurnal(requests, rate, period, amplitude, seed))


def _lazy_diurnal(
    requests: Iterable[Request],
    rate: float,
    period: float,
    amplitude: float,
    seed: int,
) -> Iterator[Request]:
    rng = np.random.default_rng(seed)
    peak = rate * (1.0 + amplitude)
    clock = 0.0
    for request in requests:
        while True:
            clock += float(rng.exponential(1.0 / peak))
            instantaneous = rate * (
                1.0 + amplitude * np.sin(2.0 * np.pi * clock / period)
            )
            if rng.random() * peak <= instantaneous:
                break
        request.arrival_time = clock
        yield request


def run_load_test(
    *,
    engine_factory: Callable[[], LlmServingEngine],
    request_factory: Callable[[], List[Request]],
    offered_rate: float,
    seed: Optional[int] = None,
    ctx=None,
) -> LoadTestReport:
    """Serve one Poisson-arrival workload at ``offered_rate``.

    With a :class:`~repro.api.RunContext` passed as ``ctx``, the run is
    traced/metered through it and its seed serves as the default.

    ``request_factory`` may return a lazy iterable instead of a list;
    the workload then streams through the engine without ever being
    materialized (p99 TTFT comes from the engine, which in
    ``retain_requests=False`` release mode is the histogram upper
    bound over finished requests).
    """
    _check_request_factory(request_factory)
    seed = ctx.resolve_seed(seed) if ctx is not None else (0 if seed is None else seed)
    workload = request_factory()
    if not isinstance(workload, Sequence):
        arrivals = poisson_arrivals(workload, offered_rate, seed)
        engine = engine_factory()
        if ctx is not None:
            engine.bind_context(ctx)
        report = engine.run(arrivals)
        achieved = (
            report.num_requests / report.total_time
            if report.total_time > 0 else 0.0
        )
        return LoadTestReport(
            offered_rate=offered_rate,
            achieved_rate=achieved,
            mean_ttft=report.mean_ttft,
            p99_ttft=engine.ttft_p99(),
            mean_tpot=report.mean_tpot,
            saturated=report.total_time > 1.25 * engine.last_fed_arrival,
        )
    requests = poisson_arrivals(workload, offered_rate, seed)
    engine = engine_factory()
    if ctx is not None:
        engine.bind_context(ctx)
    report: ServingReport = engine.run(requests)
    last_arrival = max((r.arrival_time for r in requests), default=0.0)
    achieved = len(requests) / report.total_time if report.total_time > 0 else 0.0
    # Shed/failed requests never saw a first token; exclude them so
    # zero-completion runs report zeros instead of raising.
    ttfts = [r.ttft for r in requests if r.first_token_time is not None]
    return LoadTestReport(
        offered_rate=offered_rate,
        achieved_rate=achieved,
        mean_ttft=report.mean_ttft,
        p99_ttft=percentile(ttfts, 99) if ttfts else 0.0,
        mean_tpot=report.mean_tpot,
        # Saturated when the engine finishes well after arrivals stop.
        saturated=report.total_time > 1.25 * last_arrival,
    )


@dataclass(frozen=True)
class ResilientLoadReport:
    """One open-loop load point under graceful degradation.

    Unlike :class:`LoadTestReport`, the engine is expected to shed and
    retry, so completions are partitioned and quality is measured as
    goodput (tokens of requests finished within the SLO) rather than
    raw throughput.
    """

    offered_rate: float
    finished: int
    shed: int
    failed: int
    retried: int
    mean_ttft: float
    p99_ttft: float
    slo_violation_rate: float
    goodput_fraction: float       # fraction of submitted tokens delivered in-SLO
    serving: ServingReport

    @property
    def completion_rate(self) -> float:
        return self.serving.completion_rate

    def to_dict(self) -> dict:
        """JSON payload for sweep journaling.  Top-level fields are
        exact; the nested serving report keeps its standard (rounded at
        1e-9) encoding."""
        return {
            "offered_rate": self.offered_rate,
            "finished": self.finished,
            "shed": self.shed,
            "failed": self.failed,
            "retried": self.retried,
            "mean_ttft": self.mean_ttft,
            "p99_ttft": self.p99_ttft,
            "slo_violation_rate": self.slo_violation_rate,
            "goodput_fraction": self.goodput_fraction,
            "serving": self.serving.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResilientLoadReport":
        return cls(
            offered_rate=float(data["offered_rate"]),
            finished=int(data["finished"]),
            shed=int(data["shed"]),
            failed=int(data["failed"]),
            retried=int(data["retried"]),
            mean_ttft=float(data["mean_ttft"]),
            p99_ttft=float(data["p99_ttft"]),
            slo_violation_rate=float(data["slo_violation_rate"]),
            goodput_fraction=float(data["goodput_fraction"]),
            serving=ServingReport.from_dict(data["serving"]),
        )


def run_resilient_load_test(
    *,
    engine_factory: Callable[[], LlmServingEngine],
    request_factory: Callable[[], List[Request]],
    offered_rate: float,
    seed: Optional[int] = None,
    ctx=None,
) -> ResilientLoadReport:
    """Serve one Poisson workload on a degradation-enabled engine.

    The factory must return an engine constructed with a
    :class:`~repro.serving.engine.ResiliencePolicy` (and optionally a
    fault injector); shed requests then surface in the report instead
    of crashing the run.  ``ctx`` works as in :func:`run_load_test`.

    A lazy ``request_factory`` streams through the engine like in
    :func:`run_load_test`, but the engine must retain requests
    (``retain_requests=True``, the default): goodput and SLO violations
    need every finished request's TTFT against the deadline, which the
    release-mode aggregates do not keep.
    """
    _check_request_factory(request_factory)
    seed = ctx.resolve_seed(seed) if ctx is not None else (0 if seed is None else seed)
    workload = request_factory()
    streaming = not isinstance(workload, Sequence)
    arrivals = poisson_arrivals(workload, offered_rate, seed)
    engine = engine_factory()
    if streaming and not engine.retain_requests:
        raise ConfigError(
            "streaming resilient load tests need retain_requests=True "
            "engines: per-request TTFTs against the SLO deadline cannot "
            "be recovered from release-mode aggregates"
        )
    if ctx is not None:
        engine.bind_context(ctx)
    report = engine.run(arrivals)
    requests = arrivals if not streaming else engine.requests
    finished = [r for r in requests if r.state is RequestState.FINISHED]
    ttfts = [r.ttft for r in finished]
    deadline = engine.policy.deadline if engine.policy else None
    if deadline is not None:
        good = [r for r in finished if r.ttft <= deadline]
        violations = (
            slo_violation_rate(ttfts, deadline) * len(finished)
            + (len(requests) - len(finished))
        ) / len(requests)
    else:
        good = finished
        violations = (len(requests) - len(finished)) / len(requests)
    good_tokens = sum(r.output_tokens for r in good)
    submitted_tokens = sum(r.output_tokens for r in requests)
    return ResilientLoadReport(
        offered_rate=offered_rate,
        finished=len(finished),
        shed=report.shed_requests,
        failed=report.failed_requests,
        retried=report.retried_requests,
        mean_ttft=report.mean_ttft,
        p99_ttft=percentile(ttfts, 99) if ttfts else 0.0,
        slo_violation_rate=violations,
        goodput_fraction=goodput_fraction(good_tokens, submitted_tokens),
        serving=report,
    )


def _load_point(task) -> LoadTestReport:
    """Process-pool task: one load point.  Top-level so it pickles."""
    engine_factory, request_factory, rate, point_seed, resilient = task
    runner = run_resilient_load_test if resilient else run_load_test
    return runner(
        engine_factory=engine_factory,
        request_factory=request_factory,
        offered_rate=rate,
        seed=point_seed,
    )


def _point_key(index: int) -> str:
    """Journal key of sweep point ``index``."""
    return f"point-{index:04d}"


def run_load_sweep(
    *,
    engine_factory: Callable[[], LlmServingEngine],
    request_factory: Callable[[], List[Request]],
    rates: Sequence[float],
    seed: Optional[int] = None,
    workers: Optional[object] = None,
    resilient: bool = False,
    journal: Optional[object] = None,
    ctx=None,
) -> List[LoadTestReport]:
    """Serve one load point per rate; results are in ``rates`` order.

    Each point draws its arrival process from its own
    :func:`sweep_seeds` child seed, so the sweep is bit-identical
    whether it runs serially or across a process pool (``workers``,
    resolved by :func:`repro.core.parallel.resolve_worker_count`).
    Worker-process death is retried with backoff
    (:func:`repro.core.parallel.map_with_retries`), so a killed worker
    costs a rebuilt pool, not the sweep.

    With ``journal`` set (a :class:`~repro.core.journal.RunJournal` or
    a path), each completed point is durably appended as it finishes,
    and re-running the same sweep against the same journal reuses the
    completed points instead of recomputing them -- crash-safe resume.
    The journal header pins ``(rates, seed, resilient)``; a mismatch
    raises :class:`~repro.audit.JournalError`.

    With ``workers > 1`` the factories must be picklable (top-level
    functions, not closures) and ``ctx`` observability stays on the
    parent process only; pass ``resilient=True`` to run
    :func:`run_resilient_load_test` points instead.
    """
    _check_request_factory(request_factory)
    seed = ctx.resolve_seed(seed) if ctx is not None else (0 if seed is None else seed)
    rates = list(rates)
    if not rates:
        return []
    point_seeds = sweep_seeds(seed, len(rates))
    tasks = [
        (engine_factory, request_factory, rate, point_seed, resilient)
        for rate, point_seed in zip(rates, point_seeds)
    ]
    report_cls = ResilientLoadReport if resilient else LoadTestReport
    reports: List[Optional[LoadTestReport]] = [None] * len(tasks)
    if journal is not None:
        from repro.core.journal import RunJournal

        if not isinstance(journal, RunJournal):
            journal = RunJournal(journal)
        journal.write_header({
            "tool": "load_sweep",
            "rates": [float(rate) for rate in rates],
            "seed": int(seed),
            "resilient": bool(resilient),
        })
        points = journal.completed_keys()
        for index in range(len(tasks)):
            payload = points.get(_point_key(index))
            if payload is not None:
                reports[index] = report_cls.from_dict(payload)
    pending = [index for index in range(len(tasks)) if reports[index] is None]

    def _store(position: int, report) -> None:
        index = pending[position]
        reports[index] = report
        if journal is not None:
            journal.append(_point_key(index), report.to_dict())

    if pending:
        map_with_retries(
            _load_point,
            [tasks[index] for index in pending],
            workers=workers,
            on_result=_store,
        )
    return reports


def max_sustainable_rate(
    engine_factory: Callable[[], LlmServingEngine],
    request_factory: Callable[[], List[Request]],
    low: float,
    high: float,
    iterations: int = 6,
    seed: int = 0,
    workers: Optional[object] = None,
) -> float:
    """Bisect for the highest rate the engine keeps up with.

    With ``workers > 1`` each iteration probes that many evenly spaced
    interior rates concurrently (every probe reuses ``seed``, exactly
    like the serial bisection), then narrows the bracket to the lowest
    saturated / highest unsaturated probe -- a k-section that converges
    faster per wall-clock iteration but returns the same kind of lower
    bound.  ``workers`` resolving to 1 keeps the classic bisection.
    """
    if not 0 < low < high:
        raise ValueError("need 0 < low < high")
    _check_request_factory(request_factory)
    count = resolve_worker_count(workers, 2**31)
    if count <= 1:
        for _ in range(iterations):
            mid = (low + high) / 2
            report = run_load_test(
                engine_factory=engine_factory,
                request_factory=request_factory,
                offered_rate=mid,
                seed=seed,
            )
            if report.saturated:
                high = mid
            else:
                low = mid
        return low
    for _ in range(iterations):
        span = high - low
        probes = [low + span * (j + 1) / (count + 1) for j in range(count)]
        tasks = [
            (engine_factory, request_factory, rate, seed, False)
            for rate in probes
        ]
        reports = map_with_retries(_load_point, tasks, workers=count)
        new_high = high
        new_low = low
        for rate, report in zip(probes, reports):
            if report.saturated:
                new_high = min(new_high, rate)
                break
            new_low = rate
        low, high = new_low, new_high
    return low
