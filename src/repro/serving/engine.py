"""Step-driven LLM serving engine (the vLLM analog).

The engine advances a virtual clock: each iteration retires finished
requests and admits waiting ones (vLLM-style continuous batching: in
``(tier, arrival)`` order while the decode batch is below
``max_decode_batch`` -- the knob swept in Figure 17(d, e) -- and the
paged KV pool holds their prompts), charges a prefill phase for newly
admitted prompts, then decode steps for the whole running batch, using
the bound :class:`~repro.models.llama.LlamaCostModel` and the selected
decode-attention implementation.  Request state lives in the
struct-of-arrays :class:`~repro.serving.engine_core.EngineCore`, and
consecutive decode steps of an unchanged batch are priced as one burst.
TTFT and TPOT fall out of the per-request timestamps, which is how
Figure 17(d, e) is regenerated.

With a :class:`ResiliencePolicy` (and optionally a
:class:`~repro.faults.injector.FaultInjector`) bound, the engine
degrades gracefully instead of crashing: requests that can never fit
the KV pool are shed with a reason, TTFT deadlines trigger client-style
retries with exponential backoff, device faults preempt the running
batch into checkpointed recompute, and transient kernel failures cost a
wasted step rather than the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.audit import (
    ConfigError,
    KvConservationError,
    Watchdog,
    WatchdogExceeded,
    get_auditor,
)
from repro.hw.power import ActivityAccumulator, PowerModel
from repro.models.llama import DecodeAttention, LlamaCostModel
from repro.serving.engine_core import (
    SLOT_FAILED,
    SLOT_FINISHED,
    SLOT_FREE,
    SLOT_RUNNING,
    SLOT_SHED,
    SLOT_WAITING,
    SEQ_BITS,
    SEQ_MASK,
    EngineCore,
    ReportAggregates,
    bump_counter,
)
from repro.serving.request import Request, RequestState, RetryPolicy

#: Default KV block size in tokens (matches the paged-attention kernel).
DEFAULT_BLOCK_SIZE = 128


class KvCacheError(RuntimeError):
    """Raised, without a :class:`ResiliencePolicy`, when a request can
    never fit the KV block pool or the pool runs out during decode."""


@dataclass(frozen=True)
class ResiliencePolicy:
    """Graceful-degradation knobs for one serving run.

    ``deadline`` is a TTFT SLO in seconds: a request still waiting past
    it is retried (client-style, with exponential backoff per
    ``retry``) and finally shed.  ``checkpoint_interval`` bounds the
    recompute after a device fault; ``admission_watermark`` keeps a
    fraction of the KV pool free for decode growth.
    """

    shed_on_exhaustion: bool = True
    deadline: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    checkpoint_interval: int = 32
    admission_watermark: float = 1.0

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ConfigError(f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}")
        if self.deadline is not None and not self.deadline > 0:
            raise ConfigError(f"deadline must be positive, got {self.deadline!r}")
        if not 0.0 < self.admission_watermark <= 1.0:
            raise ConfigError(
                f"admission_watermark must be in (0, 1], got {self.admission_watermark!r}"
            )


@dataclass
class FaultStats:
    """Counters of degradation events during one run."""

    device_failures: int = 0
    device_recoveries: int = 0
    fault_preemptions: int = 0
    kernel_retries: int = 0
    deadline_retries: int = 0
    recovered_requests: int = 0


@dataclass(frozen=True)
class ServingReport:
    """Aggregate metrics of one serving run.

    Latency means are computed over *finished* requests only;
    ``num_requests`` counts everything submitted, partitioned into
    finished / shed / failed / unfinished.
    """

    device: str
    attention: str
    num_requests: int
    max_decode_batch: int
    total_time: float
    total_output_tokens: int
    mean_ttft: float
    mean_tpot: float
    average_power: float
    engine_steps: int
    preemptions: int
    finished_requests: int = 0
    shed_requests: int = 0
    failed_requests: int = 0
    unfinished_requests: int = 0
    retried_requests: int = 0
    kernel_retries: int = 0
    device_failures: int = 0
    #: Non-empty when a :class:`~repro.audit.Watchdog` stopped the run
    #: early -- the report is then a typed *partial* result.
    watchdog_reason: str = ""

    @property
    def watchdog_tripped(self) -> bool:
        return bool(self.watchdog_reason)

    @property
    def throughput_tokens_per_s(self) -> float:
        return self.total_output_tokens / self.total_time if self.total_time > 0 else 0.0

    @property
    def requests_per_s(self) -> float:
        return self.num_requests / self.total_time if self.total_time > 0 else 0.0

    @property
    def energy_per_token(self) -> float:
        if self.total_output_tokens == 0:
            return 0.0
        return self.average_power * self.total_time / self.total_output_tokens

    @property
    def completion_rate(self) -> float:
        """Fraction of submitted requests served to completion."""
        return self.finished_requests / self.num_requests if self.num_requests else 0.0

    # -- Report protocol ----------------------------------------------
    def to_dict(self) -> dict:
        """All fields plus the derived rates, as one plain dict."""
        return {
            "device": self.device,
            "attention": self.attention,
            "num_requests": self.num_requests,
            "max_decode_batch": self.max_decode_batch,
            "total_time": round(self.total_time, 9),
            "total_output_tokens": self.total_output_tokens,
            "throughput_tokens_per_s": round(self.throughput_tokens_per_s, 6),
            "requests_per_s": round(self.requests_per_s, 6),
            "mean_ttft": round(self.mean_ttft, 9),
            "mean_tpot": round(self.mean_tpot, 9),
            "average_power": round(self.average_power, 3),
            "energy_per_token": round(self.energy_per_token, 9),
            "engine_steps": self.engine_steps,
            "preemptions": self.preemptions,
            "finished_requests": self.finished_requests,
            "shed_requests": self.shed_requests,
            "failed_requests": self.failed_requests,
            "unfinished_requests": self.unfinished_requests,
            "retried_requests": self.retried_requests,
            "kernel_retries": self.kernel_retries,
            "device_failures": self.device_failures,
            "completion_rate": round(self.completion_rate, 6),
            "watchdog_reason": self.watchdog_reason,
        }

    def to_json(self) -> str:
        """The report as a JSON document."""
        import json

        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """The report as one CSV row."""
        from repro.api.report import rows_to_csv

        return rows_to_csv([self.to_dict()])

    def render(self) -> str:
        """Fixed-format text report (byte-identical per seed)."""
        lines = [
            f"Serving report: {self.device} "
            f"({self.attention}, max decode batch {self.max_decode_batch})",
            f"  requests   : {self.num_requests} submitted | "
            f"{self.finished_requests} finished | {self.shed_requests} shed | "
            f"{self.failed_requests} failed | {self.unfinished_requests} unfinished",
            f"  throughput : {self.throughput_tokens_per_s:.0f} tokens/s over "
            f"{self.total_time:.4f} s ({self.total_output_tokens} tokens)",
        ]
        if self.finished_requests == 0:
            lines.append("  latency    : no finished requests")
        else:
            lines.append(f"  mean TTFT  : {self.mean_ttft:.3f} s")
            lines.append(f"  mean TPOT  : {self.mean_tpot * 1e3:.1f} ms")
        lines += [
            f"  power      : {self.average_power:.0f} W",
            f"  energy     : {self.energy_per_token * 1e3:.2f} mJ/token",
            f"  engine     : {self.engine_steps} steps | {self.preemptions} "
            f"preemptions | {self.kernel_retries} kernel retries",
        ]
        if self.watchdog_reason:
            lines.append(f"  watchdog   : PARTIAL RESULT ({self.watchdog_reason})")
        return "\n".join(lines)


def _check_arrival(request: Request, last: float = -math.inf) -> None:
    """Reject an ``arrival_time`` the clock could never reach, or one
    earlier than ``last``, the arrival a stream drew before it (the
    single-pass clock cannot travel back)."""
    at = request.arrival_time
    if not math.isfinite(at):
        raise ConfigError(
            f"request {request.request_id}: arrival_time must be finite, got {at!r}"
        )
    if at < last:
        raise ConfigError(
            "streaming arrivals must be sorted by nondecreasing "
            f"arrival_time (request {request.request_id} has {at!r} "
            f"after {last!r})"
        )


class LlmServingEngine:
    """Serves batches of requests over a Llama cost model."""

    def __init__(
        self,
        model: LlamaCostModel,
        attention: DecodeAttention = DecodeAttention.PAGED_OPT,
        max_decode_batch: int = 64,
        block_size: int = DEFAULT_BLOCK_SIZE,
        num_kv_blocks: Optional[int] = None,
        policy: Optional[ResiliencePolicy] = None,
        injector: Optional[object] = None,
        ctx: Optional[object] = None,
        auditor: Optional[object] = None,
        watchdog: Optional[object] = None,
        retain_requests: bool = True,
    ) -> None:
        """``injector`` is a :class:`~repro.faults.injector.FaultInjector`
        (duck-typed so the serving layer stays import-independent of
        :mod:`repro.faults`).  ``ctx`` is a
        :class:`~repro.api.RunContext`; with one bound, the run records
        hierarchical spans on the virtual clock and ``engine.*`` /
        ``kv.*`` / ``scheduler.*`` / ``power.*`` metrics (see
        :meth:`bind_context`).  ``auditor`` overrides the process
        auditor (``REPRO_AUDIT``); ``watchdog`` is a
        :class:`~repro.audit.Watchdog` bounding the run by steps/wall
        time -- tripping it yields a typed partial report instead of a
        wedged simulation.

        ``retain_requests=False`` folds terminal requests into constant-
        memory aggregates instead of keeping every object alive, which
        is what makes million-request streaming runs possible; latency
        means are then accumulated in retirement order (ulp-level
        differences from the retained path) and the run is excluded from
        byte-golden comparisons."""
        self.model = model
        self.attention = attention
        if num_kv_blocks is None:
            capacity_tokens = model.max_kv_tokens()
            num_kv_blocks = capacity_tokens // block_size
            if num_kv_blocks < 1:
                raise ConfigError(
                    f"{model.config.name} on {model.device.name} at TP "
                    f"{model.tp.degree} leaves room for {capacity_tokens} KV "
                    f"tokens per device, less than one {block_size}-token "
                    "block; raise the TP degree"
                )
        if num_kv_blocks < 1 or block_size < 1:
            raise ConfigError("num_kv_blocks and block_size must be positive")
        if max_decode_batch < 1:
            raise ConfigError(f"max_decode_batch must be positive, got {max_decode_batch}")
        self.num_kv_blocks = num_kv_blocks
        self.block_size = block_size
        self.policy = policy
        self.injector = injector
        self.auditor = auditor if auditor is not None else get_auditor()
        self.watchdog = watchdog if watchdog is not None else Watchdog.from_env()
        self.max_decode_batch = max_decode_batch
        self.fault_stats = FaultStats()
        self._fault_restarted_ids: set = set()
        #: Multiplier on every step's compute time (a cluster node's
        #: brownout sets ``1 / factor``); composes with the injector's.
        self.slowdown = 1.0
        self._power_model = PowerModel(self.model.device.spec.power)
        self.ctx = None
        self._tracer = None
        self._metrics = None
        self._traced_request_ids: set = set()
        # Streaming-run state (see begin/feed/advance/finish).
        self._audit = None
        self._now = 0.0
        self._steps = 0
        self._preemptions = 0
        self._activity: Optional[ActivityAccumulator] = None
        self._all_requests: List[Request] = []
        self.retain_requests = retain_requests
        self._core: Optional[EngineCore] = None
        self._aggregates: Optional[ReportAggregates] = None
        self._max_fed_arrival = 0.0
        self._synced_steps = 0
        #: The piece of the decode burst a horizon cut short, or None
        #: (see _resume_burst); anything that changes the run drops it.
        #: The burst's other parked state is in the ``_park_*`` fields
        #: (plain stores: a burst parks at every horizon it crosses).
        self._park_piece: Optional[tuple] = None
        if ctx is not None:
            self.bind_context(ctx)

    def bind_context(self, ctx) -> None:
        """Bind a :class:`~repro.api.RunContext` (or None to unbind)."""
        self._park_piece = None
        self.ctx = ctx
        self._tracer = ctx.tracer if ctx is not None else None
        self._metrics = ctx.metrics if ctx is not None else None

    # -- observability helpers -----------------------------------------
    def _trace_request_begin(self, request: Request, now: float) -> None:
        """Open the per-request async span on first admission."""
        if request.request_id in self._traced_request_ids:
            return
        self._traced_request_ids.add(request.request_id)
        self._tracer.async_begin(
            f"request-{request.request_id}",
            "request",
            min(request.arrival_time, now),
            request.request_id,
            prompt_tokens=request.input_tokens,
        )

    def _emit_comm_spans(self, tokens: int, end: float) -> None:
        """Publish the AllReduces of the model phase over ``tokens``
        tokens that just ended at ``end``: count them in the metrics
        and lay them as back-to-back spans ending at ``end``.

        The cost model reports AllReduce durations, not timestamps, so
        the spans are reconstructed at the tail of the phase window --
        which is where they sit in a real execution: the activation
        AllReduce follows the sharded matmuls it synchronises."""
        collectives = self.model.collectives(tokens)
        if not collectives:
            return
        metrics = self._metrics
        if metrics is not None:
            calls = metrics.counter("comm.allreduce.calls")
            sent = metrics.counter("comm.allreduce.bytes")
            seconds = metrics.histogram("comm.allreduce.seconds")
            for time, size_bytes in collectives:
                calls.inc()
                sent.inc(size_bytes)
                seconds.observe(time)
        tracer = self._tracer
        if tracer is None:
            return
        library = self.model.tp.library
        name = type(library).__name__.replace("Library", "").lower() + ".all_reduce"
        start = end - sum(time for time, _ in collectives)
        for time, size_bytes in collectives:
            tracer.record(
                name, "collective", start, start + time, size_bytes=size_bytes
            )
            start += time

    def _observe_pool(self, event: str, blocks: int) -> None:
        """Publish one KV-pool mutation as ``kv.*`` metrics: an
        ``allocate`` (an admission's prompt), a ``grow`` (decode appends
        starting new blocks) or a ``free``."""
        metrics = self._metrics
        if event == "free":
            metrics.counter("kv.frees").inc()
            metrics.counter("kv.blocks_freed").inc(blocks)
        else:
            if event == "allocate":
                metrics.counter("kv.allocations").inc()
            metrics.counter("kv.blocks_allocated").inc(blocks)
        core = self._core
        metrics.gauge("kv.occupancy").set(
            (core.num_blocks - core.free_blocks) / core.num_blocks
        )

    def _observe_schedule(self, now: float, admitted: int, retired: int) -> None:
        """The virtual scheduler step's span and ``scheduler.*`` metrics."""
        core = self._core
        running = len(core.runners) + admitted
        waiting = core.waiting_count
        if self._tracer is not None:
            # Scheduling is instantaneous on the virtual clock, so the
            # span is zero-width; its args carry the admission ledger.
            self._tracer.record(
                "scheduler.step", "scheduler", now, now,
                admitted=admitted, retired=retired, running=running,
                waiting=waiting,
            )
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("scheduler.steps").inc()
            if admitted:
                metrics.counter("scheduler.admitted").inc(admitted)
            if retired:
                metrics.counter("scheduler.retired").inc(retired)
            metrics.gauge("scheduler.running").set(running)
            metrics.gauge("scheduler.waiting").set(waiting)

    def _observe_event(self, name: str, metric: str, count: int = 1, **args) -> None:
        """A scheduler instant (stamped with the last virtual scheduler
        step's time) and its counter."""
        if self._tracer is not None:
            self._tracer.instant(name, "scheduler", self._sched_now, **args)
        if self._metrics is not None:
            self._metrics.counter(metric).inc(count)

    def _finish_step(
        self,
        step_span: Optional[object],
        step_start: float,
        now: float,
        step_activity: ActivityAccumulator,
        batch_size: int,
    ) -> None:
        """Close one iteration's span and record its samples: a power
        span on the ``power`` track, counter tracks for watts / KV
        occupancy / batch size, and the per-step metrics."""
        tracer = self._tracer
        metrics = self._metrics
        duration = now - step_start
        watts = 0.0
        if duration > 0:
            watts = self._power_model.power(step_activity.profile(duration))
        allocated = self._core.num_blocks - self._core.free_blocks
        if tracer is not None:
            tracer.record(
                "power.sample", "power", step_start, now, watts=round(watts, 3)
            )
            tracer.counter("power.watts", now, round(watts, 3))
            tracer.counter("kv.allocated_blocks", now, allocated)
            tracer.counter("batch.running", now, batch_size)
            if step_span is not None:
                tracer.end(step_span, now, batch=batch_size)
        if metrics is not None:
            metrics.counter("engine.steps").inc()
            metrics.histogram("engine.batch_size").observe(batch_size)
            metrics.histogram("power.watts").observe(watts)
            metrics.gauge("kv.allocated_blocks").set(allocated)
            step_activity.record_to(metrics)

    @property
    def _graceful(self) -> bool:
        return self.policy is not None and self.policy.shed_on_exhaustion

    # -- streaming run API ---------------------------------------------
    # ``run()`` packages the canonical one-shot flow; the four-phase
    # API below (begin / feed / advance / finish) lets an external
    # event loop -- a cluster Node on the shared fleet clock -- embed
    # the engine, feeding requests as a gateway routes them and
    # advancing the simulation in bounded horizons.

    def begin(self, requests: Sequence[Request] = ()) -> None:
        """Open a run: arm the audit ledger and watchdog, start the
        root span, and submit any up-front ``requests`` (a non-finite
        ``arrival_time`` raises :class:`ConfigError` before anything is
        armed; a request that fails to submit, e.g. a fail-fast
        :class:`KvCacheError`, closes the run before propagating)."""
        for request in requests:
            _check_arrival(request)
        policy = self.policy
        self._core = EngineCore(
            self.num_kv_blocks,
            self.block_size,
            checkpoint_interval=policy.checkpoint_interval if policy else 0,
            admission_watermark=policy.admission_watermark if policy else 1.0,
            deadlines=policy is not None,
        )
        self._synced_steps = 0
        #: The decode-piece pricers by runner count, built under the
        #: fabric fault state ``_stepper_fabric`` (see _refresh_steppers).
        self._steppers: Dict[int, Callable] = {}
        self._stepper_fabric = None
        self._park_piece = None
        self._aggregates = None if self.retain_requests else ReportAggregates()
        self._max_fed_arrival = 0.0
        bump_counter("vectorized_runs")
        self._audit = self.auditor.begin_run("serving.run") if self.auditor else None
        if self.watchdog is not None:
            self.watchdog.start()
        self._now = 0.0
        #: Virtual time of the last scheduler step; preemption, shed and
        #: failure instants are stamped with it.
        self._sched_now = 0.0
        self._steps = 0
        self._preemptions = 0
        self._activity = ActivityAccumulator()
        self._all_requests: List[Request] = []
        if self._tracer is not None:
            self._tracer.begin(
                "serving.run", "engine", self._now,
                device=self.model.device.name,
                attention=self.attention.value,
                requests=len(requests),
            )
        try:
            for request in requests:
                self.feed(request)
        except BaseException:
            self._abandon()
            raise

    def feed(self, request: Request) -> None:
        """Submit one request to an open run (streaming admission)."""
        self._park_piece = None
        request.coerce_builtins()
        if self.policy and self.policy.deadline is not None and request.deadline is None:
            request.deadline = self.policy.deadline
        if self._audit is not None and request.generated:
            # Fed progress (up front or late) extends the conservation
            # baseline.
            self._audit.set_token_baseline(
                self._audit._token_baseline + request.generated
            )
        if request.arrival_time > self._max_fed_arrival:
            self._max_fed_arrival = request.arrival_time
        if self._aggregates is not None:
            self._aggregates.fed += 1
        if self.retain_requests:
            self._all_requests.append(request)
        self._submit(request)

    def _fold_terminal(self, request: Request) -> None:
        """Retirement hook for ``retain_requests=False`` runs."""
        if self._aggregates is not None:
            self._aggregates.fold_terminal(request)

    @property
    def now(self) -> float:
        """Current virtual time of the open run."""
        return self._now

    @property
    def requests(self) -> List[Request]:
        """Every request fed to the current run, in feed order (empty
        when ``retain_requests=False`` -- terminal requests are folded
        into aggregates instead of retained)."""
        return list(self._all_requests)

    @property
    def has_unfinished(self) -> bool:
        return self._core is not None and self._core.has_unfinished

    @property
    def allocated_kv_blocks(self) -> int:
        """KV blocks held by running requests of the current run."""
        core = self._core
        return 0 if core is None else core.num_blocks - core.free_blocks

    def advance(self, horizon: float = math.inf, *, sync_exit: bool = True) -> float:
        """Drive the step loop while work remains and steps start at or
        before ``horizon``; returns the clock.

        A step that *starts* within the horizon executes to completion
        (the batch-synchronous clock cannot split an iteration), so the
        returned time may overrun ``horizon`` -- callers observe
        completions at the next advance, exactly like polling a real
        engine between scheduler ticks.  Raises
        :class:`~repro.audit.WatchdogExceeded` when the armed watchdog
        budget is exhausted (``run()`` converts that into a typed
        partial report).

        Terminal transitions are always published when they happen.
        ``sync_exit=False`` skips the exit copy of runner progress
        (``generated``, ``first_token_time``, ``checkpoint``) onto the
        live Request objects; a caller that passes it reads runner
        progress only after :meth:`sync_live`.

        A call that picks up a decode burst the last horizon cut short
        (:meth:`_resume_burst`) skips the scheduler iteration it would
        only repeat; when that burst reaches the new horizon too, the
        call ends there.
        """
        if self._park_piece is not None and self._resume_burst(horizon):
            if sync_exit:
                self.sync_live()
            return self._now
        return self._advance_fast(horizon, sync_exit)

    def _advance_fast(
        self,
        horizon: float,
        sync_exit: bool = True,
        arrivals: Optional[Iterator[Request]] = None,
    ) -> float:
        """The step loop over the struct-of-arrays core.

        One step-loop iteration is one virtual scheduler iteration, or many
        when its decode burst runs several steps: fault events and the
        deadline scan, a virtual scheduler step (retire, then admit in
        ``(tier, arrival)`` order under the admission watermark) against
        the slot columns, sequential prefills for admissions, capacity
        preemption, then a *decode burst* -- consecutive decode steps
        priced against the runner set's integer context aggregates until
        the next membership-changing event.  Request objects are only
        touched at lifecycle events (a finisher is materialized as it
        finishes) and runners are re-synchronized on exit (only when a
        step ran).

        With a watchdog, a device fault injector or an observer bound,
        every burst is one step, so each iteration does one step's work
        in order: the watchdog check, fault events (a device failure
        preempts every runner back to its checkpoint; a total outage
        waits for a recovery), the step's slowdown, a transient kernel
        fault drawn before the decode step (its time passes, its tokens
        are lost), and the spans and metrics of every event.

        A fleet node enters here at a fleet event that changed its
        engine or found a scheduler step due (a pure decode continuation
        resumes its parked burst instead, see :meth:`_resume_burst`), so
        what does not change inside one call is read once per call: the
        brownout slowdown (an injector's varies per step) and the fabric
        fault state the pricer table answers to
        (:meth:`_refresh_steppers`).  The retire and admit steps do
        their slot and pool bookkeeping inline.  A run without an
        observer, injector, watchdog or audit handle parks the burst a
        horizon cuts short.

        With ``arrivals`` (a streamed run, see :meth:`run_streaming`)
        the loop draws one arrival ahead and holds the horizon just
        before it; wherever the loop stops for that horizon -- a step
        due at or past it, an idle jump or a total outage's wait past
        it, or no work left -- it feeds the arrival (:meth:`_feed_due`)
        and runs on, so one call serves the whole stream.  Nothing
        parks while a stream is open: the next feed would drop the
        park.
        """
        core = self._core
        audit = self._audit
        model = self.model
        max_batch = self.max_decode_batch
        bs = core.block_size
        inp = core.input_tokens
        out = core.output_tokens
        gen = core.generated
        first = core.first_token
        state = core.state
        runners = core.runners
        wait_q = core.wait_q
        objs = core.objs
        free_slots = core.free_slots
        finished_pending = core.finished_pending
        aggregates = self._aggregates
        activity = self._activity
        watchdog = self.watchdog
        injector = self.injector
        tracer = self._tracer
        metrics = self._metrics
        observing = tracer is not None or metrics is not None
        stepwise = observing or injector is not None or watchdog is not None
        burst_horizon = -math.inf if stepwise else horizon
        park = not stepwise and audit is None and arrivals is None
        slowdown = self.slowdown
        self._refresh_steppers()
        pending = None
        if arrivals is not None:
            pending = next(arrivals, None)
            if pending is not None:
                _check_arrival(pending)
        while True:
            # Every break of the step loop lands at the feed below.
            while runners or finished_pending or core.wait_head < len(wait_q):
                now = self._now
                if now > horizon:
                    break
                if watchdog is not None:
                    watchdog.check(self._steps)
                if injector is not None:
                    now = self._advance_faults(now)
                    self._refresh_steppers()
                    if now > horizon:
                        # A total outage was waited out past the horizon:
                        # what arrives before the recovery must be fed
                        # before the scheduler step it runs.
                        self._now = now
                        break
                if audit is not None:
                    audit.observe_clock(now)
                    if self.auditor is not None:
                        core.sync_generated()
                        self.auditor.check_core_invariants(core)
                if now >= core.next_expiry:
                    self._enforce_deadlines_fast(now)
                # Virtual scheduler step: retire, then admit.
                retired = len(finished_pending)
                if retired:
                    if tracer is not None:
                        # Pool bookkeeping is instantaneous on the virtual
                        # clock; zero-width spans mark each release on the
                        # ``kv`` track, in admission order.
                        for slot in sorted(finished_pending, key=core.join_seq.__getitem__):
                            tracer.record(
                                "kv.free", "kv", now, now,
                                request_id=objs[slot].request_id,
                                blocks=core.blocks_held(slot),
                            )
                    for slot in finished_pending:
                        # Return the slot's blocks (core.blocks_held), fold
                        # its materialized Request, recycle the slot.
                        held = -(-(inp[slot] + gen[slot] - 1) // bs)
                        core.free_blocks += held
                        if metrics is not None:
                            self._observe_pool("free", held)
                        if aggregates is not None:
                            aggregates.fold_terminal(objs[slot])
                        state[slot] = SLOT_FREE
                        objs[slot] = None
                        free_slots.append(slot)
                    finished_pending.clear()
                admitted: List[int] = []
                single_tier = core.single_tier
                index = core.wait_head
                while index < len(wait_q) and len(runners) + len(admitted) < max_batch:
                    slot = wait_q[index]
                    request = objs[slot]  # current while waiting
                    if request.arrival_time > now:
                        if single_tier:
                            break  # arrival-sorted: nothing behind has arrived
                        index += 1
                        continue
                    # core.fits(needed, free), inline.
                    needed = -(-(inp[slot] + gen[slot]) // bs)
                    free = core.free_blocks
                    if needed > free or (
                        core.num_blocks - free + needed > core.admit_limit
                        and free != core.num_blocks
                    ):
                        break
                    if index == core.wait_head:
                        core.pop_waiting_head()
                        index = core.wait_head  # the pop may compact the queue
                    else:
                        del wait_q[index]
                    core.free_blocks = free - needed
                    request.start_running()
                    state[slot] = SLOT_RUNNING
                    admitted.append(slot)
                    if observing:
                        if tracer is not None:
                            tracer.record(
                                "kv.allocate", "kv", now, now,
                                request_id=request.request_id, blocks=needed,
                            )
                        if metrics is not None:
                            self._observe_pool("allocate", needed)
                if observing:
                    self._sched_now = now
                    self._observe_schedule(now, len(admitted), retired)
                if not runners and not admitted:
                    self._now = now
                    if not core.waiting_count:
                        break  # everything retired in this step
                    index = core.first_arrived(now)
                    if index >= 0:
                        # Nothing runs, nothing admits, and the highest-
                        # priority arrived request is blocked: the pool can
                        # never serve it.
                        obj = objs[wait_q[index]]
                        reason = (
                            f"kv-exhausted: {obj.context_len} prompt tokens exceed "
                            "the free KV pool with no running request to retire"
                        )
                        if self._graceful:
                            self._shed_slot(core.take_waiting(index), reason)
                            continue
                        self.sync_live()
                        raise KvCacheError(
                            f"request {obj.request_id} cannot be admitted: {reason}"
                        )
                    next_arrival = core.next_arrival()
                    if next_arrival > horizon:
                        break  # idle until past the horizon: feed, do not jump
                    # All remaining requests arrive later; jump the clock.
                    self._now = max(now, next_arrival)
                    continue
                if injector is not None:
                    slowdown = self.slowdown * injector.compute_slowdown()
                step_start = now
                step_span = None
                if observing:
                    step_activity = ActivityAccumulator()
                    if tracer is not None:
                        step_span = tracer.begin(
                            "engine.step", "engine", now,
                            step=self._steps, admitted=len(admitted),
                        )
                # Prefills run sequentially, one prompt at a time (vLLM
                # style); a fault-restarted request recomputes its
                # checkpointed tokens too.
                for slot in admitted:
                    if tracer is not None:
                        request = objs[slot]
                        self._trace_request_begin(request, now)
                        prefill_span = tracer.begin(
                            "prefill", "engine", now,
                            request_id=request.request_id,
                            prompt_tokens=inp[slot] + gen[slot],
                        )
                    phase = model.prefill(1, inp[slot] + gen[slot])
                    now += phase.time * slowdown
                    activity.merge(phase.activity)
                    if observing:
                        step_activity.merge(phase.activity)
                        self._emit_comm_spans(inp[slot] + gen[slot], now)
                        if tracer is not None:
                            tracer.end(prefill_span, now)
                    gen[slot] += 1
                    if math.isnan(first[slot]):
                        first[slot] = now
                    if gen[slot] >= out[slot]:
                        # Never a runner, but retired in admission order.
                        core.join_seq[slot] = core.join_count
                        core.join_count += 1
                        core.finish_slot(slot, now)
                    else:
                        core.join(slot)
                if admitted and audit is not None:
                    audit.on_tokens_emitted(len(admitted))
                if not runners:
                    self._steps += 1
                    self._now = now
                    if observing:
                        self._finish_step(step_span, step_start, now, step_activity, 0)
                    continue
                # Capacity preemption: evict the newest runners until every
                # remaining one can grow a block.
                while core.free_blocks < len(runners) and len(runners) > 1:
                    self._preempt(next(reversed(runners.values())), from_checkpoint=False)
                    self._preemptions += 1
                batch = len(runners)
                lost = injector is not None and injector.kernel_fault()
                if not observing:
                    now = self._decode_burst(
                        now, burst_horizon, slowdown, activity, lost, park
                    )
                    continue
                decode_span = None
                if tracer is not None:
                    decode_span = tracer.begin("decode.step", "engine", now, batch=batch)
                phase_activity = ActivityAccumulator()
                try:
                    now = self._decode_burst(now, burst_horizon, slowdown, phase_activity, lost)
                finally:
                    # A fail-fast exhaustion raises after the step's time
                    # passed: the step is still accounted and its span closed.
                    activity.merge(phase_activity)
                    step_activity.merge(phase_activity)
                    self._emit_comm_spans(batch, self._now)
                    if tracer is not None:
                        tracer.end(decode_span, self._now)
                if lost and tracer is not None:
                    tracer.instant("kernel_fault", "engine", now)
                if lost and self._metrics is not None:
                    self._metrics.counter("engine.kernel_retries").inc()
                self._finish_step(step_span, step_start, now, step_activity, batch)
            if pending is None:
                break
            # The loop stopped where a step would start at or past the
            # next arrival, or ran out of work before it: feed it, and
            # run on to just before the arrival after.  A step that
            # starts earlier may overrun that arrival, exactly as in the
            # all-at-once run, so the report bytes match.
            pending = self._feed_due(pending, arrivals)
            horizon = (
                math.inf if pending is None
                else math.nextafter(pending.arrival_time, -math.inf)
            )
            if not stepwise:
                burst_horizon = horizon
        if sync_exit:
            self.sync_live()
        return self._now

    def _feed_due(self, pending: Request, arrivals: Iterator[Request]) -> Optional[Request]:
        """Feed ``pending``, then every arrival drawn after it that the
        clock has reached or an idle engine waits for; returns the
        first arrival left unfed (None once the stream is spent), each
        checked as it is drawn.  At most one drawn request is ever
        unfed, so the buffer tracks the waiting queue, not the trace."""
        core = self._core
        while True:
            self.feed(pending)
            bump_counter("arrival_buffer_peak", core.waiting_count)
            last = pending.arrival_time
            pending = next(arrivals, None)
            if pending is None:
                return None
            at = pending.arrival_time
            if not last <= at < math.inf:  # NaN, +inf or out of order
                _check_arrival(pending, last)
            if at > self._now and core.has_unfinished:
                return pending

    def sync_live(self) -> None:
        """Copy the core's runner progress onto the live Request
        objects, unless no step ran since the last sync."""
        if self._core is not None and self._steps != self._synced_steps:
            self._core.sync_live_objects()
            self._synced_steps = self._steps

    def _enforce_deadlines_fast(self, now: float) -> None:
        """Retry or shed every waiting request whose TTFT deadline
        passed, in waiting order: a retry re-arrives after the policy's
        backoff (rolling back its tokens in the audit ledger), the last
        one sheds.  Requeued slots re-enter the queue in scan order
        after the survivors, which is where one-at-a-time reinsertion
        puts them too."""
        core = self._core
        retry = self.policy.retry
        kept: List[int] = []
        requeued: List[int] = []
        for slot in core.waiting_slots():
            request = core.objs[slot]
            if not request.deadline_missed(now):
                kept.append(slot)
            elif request.retries < retry.max_retries:
                delay = retry.backoff(request.retries, token=request.request_id)
                if self._audit is not None:
                    self._audit.on_tokens_rolled_back(request.generated)
                request.resubmit(now + delay)
                core.arrival[slot] = request.arrival_time
                core.wait_key[slot] = (request.tier, request.arrival_time)
                core.retries[slot] = request.retries
                core.generated[slot] = 0
                core.first_token[slot] = math.nan
                core.ckpt_floor[slot] = 0
                requeued.append(slot)
                self.fault_stats.deadline_retries += 1
                if self._tracer is not None:
                    self._tracer.instant(
                        "deadline_retry", "engine", now,
                        request_id=request.request_id, retry=request.retries,
                    )
                if self._metrics is not None:
                    self._metrics.counter("engine.deadline_retries").inc()
            else:
                self._shed_slot(
                    slot,
                    f"deadline: no first token within {request.deadline:g}s "
                    f"after {request.retries} retries",
                )
        core.wait_q[core.wait_head:] = kept
        for slot in requeued:
            core.insort_waiting(slot)
        core.refresh_expiry()

    def _release_blocks(self, slot: int) -> None:
        """Return the KV blocks a slot holds to the pool."""
        core = self._core
        held = core.blocks_held(slot)
        core.free_blocks += held
        if self._metrics is not None:
            self._observe_pool("free", held)

    def _shed_slot(self, slot: int, reason: str) -> None:
        """Shed a slot already taken out of the wait queue or the runner
        set, with its blocks returned."""
        core = self._core
        request = core.sync_object(slot)
        request.shed(reason)
        core.state[slot] = SLOT_SHED
        self._fold_terminal(request)
        core.release(slot)
        self._observe_event(
            "shed", "scheduler.sheds", request_id=request.request_id, reason=reason
        )

    def _preempt(self, slot: int, from_checkpoint: bool) -> Request:
        """Evict a runner back to the wait queue, ahead of later
        arrivals of its tier.  Capacity preemption recomputes from
        scratch; a device fault resumes from the last checkpoint,
        keeping the first token those tokens delivered."""
        core = self._core
        core.leave(slot)
        self._release_blocks(slot)
        request = core.sync_object(slot)  # keeps the checkpoint reached
        if self._audit is not None:
            kept = request.checkpoint if from_checkpoint else 0
            self._audit.on_tokens_rolled_back(request.generated - kept)
        request.restart(from_checkpoint=from_checkpoint)
        first = request.first_token_time
        core.generated[slot] = request.generated
        core.first_token[slot] = math.nan if first is None else first
        core.finish[slot] = math.nan
        core.restarts[slot] = request.restarts
        core.ckpt_floor[slot] = request.generated
        core.state[slot] = SLOT_WAITING
        core.insort_waiting(slot, left=True)
        self._observe_event(
            "preempt", "scheduler.preemptions",
            request_id=request.request_id, from_checkpoint=from_checkpoint,
        )
        return request

    def _burst_wake(self, now: float, n: int, free: int) -> Tuple[float, int]:
        """When a decode burst of ``n`` runners starting at ``now`` with
        ``free`` blocks free must stop to let the scheduler act:
        ``(wake, needed)`` such that any admission or deadline scan due
        after a step implies the clock reached ``wake`` with ``needed``
        blocks still free.

        Free blocks only shrink during a burst, so a waiting request
        that does not fit now never will; the candidates are the fitting
        requests the admission scan can reach (just the head for a
        single tier; in mixed tiers everything up to the first arrived
        request, which blocks the rest).  With a deadline pending, the
        earliest of both wakes regardless of free blocks.  Waking early
        only splits a burst, which is always safe.
        """
        core = self._core
        wake = math.inf
        needed_min = core.num_blocks
        if n < self.max_decode_batch:
            wait_q = core.wait_q
            objs = core.objs
            index = core.wait_head
            while index < len(wait_q):
                request = objs[wait_q[index]]  # current while waiting
                at = request.arrival_time
                needed = core.blocks_needed(request.input_tokens + request.generated)
                if core.fits(needed, free):
                    if at < wake:
                        wake = at
                    if needed < needed_min:
                        needed_min = needed
                if core.single_tier or at <= now:
                    break
                index += 1
        if core.next_expiry < math.inf:
            if core.next_expiry < wake:
                wake = core.next_expiry
            needed_min = 0
        return wake, needed_min

    def _resume_burst(self, horizon: float) -> bool:
        """Carry on with the decode burst the last horizon stopped.

        A burst parks only when the horizon alone stopped it: no runner
        finished and no retirement is pending.  If nothing touched the
        run since (``feed``, ``cancel``, ``fail_all``, ``begin``,
        ``bind_context`` and ``finish`` drop the park; a changed
        ``slowdown`` or fabric fault state is checked here), the
        scheduler iteration ``_advance_fast`` would run next retires
        nothing, and it admits nothing and scans no deadline unless the
        burst's wake is due; with capacity preemption not due either,
        the burst takes its next step where it stopped.

        Returns True when the resumed burst stopped at ``horizon`` too
        (the ``advance`` call is complete), else False: the park is
        gone and ``_advance_fast`` takes over from the current clock.
        """
        piece = self._park_piece
        self._park_piece = None
        now = self._now
        slowdown = self._park_slowdown
        if (
            now > horizon
            or slowdown != self.slowdown
            or self.model._fabric_key() is not self._stepper_fabric
        ):
            return False
        core = self._core
        n = len(core.runners)
        free = core.free_blocks
        wake = self._park_wake
        needed = self._park_needed
        if wake is None:
            wake, needed = self._burst_wake(now, n, free)
        if (wake <= now and needed <= free) or (free < n and n > 1):
            return False  # the scheduler acts before the next step
        self._decode_burst(
            now, horizon, slowdown, self._activity, False, True,
            piece, self._park_left, wake, needed,
        )
        return self._park_piece is not None

    def _refresh_steppers(self) -> None:
        """Drop the pricer table once the model's fabric fault state is
        no longer the one it was filled under.  The fabric only changes
        between two ``advance()`` calls or at the fault events an
        injector applies, so those are the two places that call this,
        and a burst reads the table directly."""
        fabric = self.model._fabric_key()
        if fabric is not self._stepper_fabric:
            # FabricHealth rebuilds its state key on every mutation, so
            # identity tells whether a fault hit since the table filled.
            self._steppers = {}
            self._stepper_fabric = fabric

    def _stepper(self, n: int) -> Callable:
        """Fill the pricer table's entry for ``n`` runners: built once
        per runner count and fabric fault state."""
        stepper = self.model.decode_stepper(n, self.attention)
        self._steppers[n] = stepper
        return stepper

    def _decode_burst(
        self,
        now: float,
        horizon: float,
        slowdown: float,
        activity: ActivityAccumulator,
        lost: bool = False,
        park: bool = False,
        piece: Optional[tuple] = None,
        left: int = 0,
        wake: Optional[float] = None,
        wake_needed: int = 0,
    ) -> float:
        """Price consecutive decode steps for the fixed runner set
        without any per-request work, adding their activity into
        ``activity``; returns the clock after the burst.

        The burst ends just before the first virtual iteration whose
        scheduler step would diverge from a pure decode continuation: a
        runner finishing, a pending retirement, a waiting request
        becoming admissible or missing its deadline (see
        :meth:`_burst_wake`), capacity preemption, or the horizon.  Step
        costs come from the pricer ``LlamaCostModel.decode_stepper``
        returns, called once per *piece*: the priced step's time and
        activity hold until the aggregates leave the piece's box, so
        the steps inside one add the same values in the same order as
        pricing each step would.  The aggregates are the core's running
        state, so a burst costs O(steps + finishers).  ``lost`` is a
        transient kernel fault: one step's time passes and no runner
        gains a token.

        With ``park``, a burst the horizon alone stops keeps its piece,
        the ``left`` steps it still covers, its scheduler wake and its
        slowdown in the ``_park_*`` fields; :meth:`_resume_burst` passes
        all but the slowdown back to carry on with the next step.  A fresh
        burst prices its first piece in the loop and computes its wake
        when it first needs it.
        """
        core = self._core
        bs = core.block_size
        n = len(core.runners)
        offset = core.decoded
        total_context = core.sum_base + n * offset
        total_blocks = core.total_blocks
        # The runner-set extrema are the live heap tops (the methods
        # pop stale entries first when a top is stale).
        top = core.base_heap[0]
        low = core.rem_heap[0]
        runners = core.runners
        if top & SEQ_MASK in runners and low & SEQ_MASK in runners:
            max_context = offset - (top >> SEQ_BITS)
            min_rem = (low >> SEQ_BITS) - offset
        else:
            max_context = core.max_context()
            min_rem = core.min_remaining()
        price = self._steppers.get(n) or self._stepper(n)
        if lost:
            step_time, matrix, weighted, vector, memory, comm = price(
                total_context, total_blocks, max_context
            )[:6]
            now += step_time * slowdown
            activity.matrix_seconds += matrix
            activity.matrix_active_weighted += weighted
            activity.vector_seconds += vector
            activity.memory_seconds += memory
            activity.comm_seconds += comm
            self._steps += 1
            core.vectorized_steps += 1
            self._now = now
            self.fault_stats.kernel_retries += 1
            return now
        if piece is not None:
            (
                step_time, matrix, weighted, vector, memory, comm,
                context_hi, blocks_hi, max_hi,
            ) = piece
            step = step_time * slowdown
        # Pricing always buckets KV at the kernel's 128-token blocks;
        # the engine's pool may use a different block size, so shadow
        # growth reads its own residue histogram.  A runner with base b
        # has context b + offset + j after j steps, so the upcoming
        # step's growth counts bases congruent to 1 - j - offset -- the
        # residue whose count the previous step just added to
        # total_blocks, so one lookup serves both when the pool uses
        # 128-token blocks too.
        hist128 = core.hist128
        hist_bs = core.hist_bs
        same_hist = hist_bs is hist128
        start = now
        # A prefill finisher awaiting retirement ends the burst after
        # one step, as a runner finishing does.
        stop = 1 if core.finished_pending else min_rem
        free = free_before = core.free_blocks
        j = 0  # completed steps this burst
        exhausted = False
        growth = hist_bs[(1 - offset) % bs]
        # Activity sums stay in locals for the burst: the same additions
        # in the same order as adding into ``activity`` step by step.
        acc_matrix = activity.matrix_seconds
        acc_weighted = activity.matrix_active_weighted
        acc_vector = activity.vector_seconds
        acc_memory = activity.memory_seconds
        acc_comm = activity.comm_seconds
        while True:
            if not left:
                # After j steps the context sum has grown by n * j and
                # the longest context by j.
                context = total_context + n * j
                longest = max_context + j
                piece = price(context, total_blocks, longest)
                (
                    step_time, matrix, weighted, vector, memory, comm,
                    context_hi, blocks_hi, max_hi,
                ) = piece
                step = step_time * slowdown
                # Steps the piece covers; a block crossing past
                # blocks_hi ends it early.
                left = (context_hi - context) // n
                if max_hi - longest < left:
                    left = max_hi - longest
                left += 1
            now += step
            acc_matrix += matrix
            acc_weighted += weighted
            acc_vector += vector
            acc_memory += memory
            acc_comm += comm
            left -= 1
            j += 1
            if growth > free:
                # Only reachable with a single runner (the headroom
                # guard below breaks first for n > 1): the step's time
                # is charged, then the append fails before any token is
                # recorded.
                exhausted = True
                break
            free -= growth
            crossed = hist128[(1 - j - offset) % 128]
            total_blocks += crossed
            if total_blocks > blocks_hi:
                left = 0
            if j >= stop:
                break  # a runner finished, or a retirement is pending
            if now > horizon:
                if park:
                    self._park_piece = piece
                    self._park_left = left
                    self._park_wake = wake
                    self._park_needed = wake_needed
                    self._park_slowdown = slowdown
                break
            # The scheduler wake is computed on the first step that
            # outlives the horizon check (a fleet node's burst rarely
            # does).
            if wake is None:
                wake, wake_needed = self._burst_wake(start, n, free_before)
            if wake <= now and wake_needed <= free:
                break  # the scheduler may admit or scan deadlines next step
            if free < n and n > 1:
                break  # capacity preemption due next step
            growth = crossed if same_hist else hist_bs[(1 - j - offset) % bs]
        core.free_blocks = free
        recorded = j - 1 if exhausted else j  # steps whose tokens were recorded
        activity.matrix_seconds = acc_matrix
        activity.matrix_active_weighted = acc_weighted
        activity.vector_seconds = acc_vector
        activity.memory_seconds = acc_memory
        activity.comm_seconds = acc_comm
        if self._metrics is not None and free < free_before:
            self._observe_pool("grow", free_before - free)
        if recorded >= min_rem:
            finished = core.end_burst(recorded, total_blocks)
        else:  # no runner's budget ran out
            core.decoded = offset + recorded
            core.total_blocks = total_blocks
            finished = ()
        self._steps += j
        core.vectorized_steps += j
        self._now = now
        if self._audit is not None and recorded:
            self._audit.on_tokens_emitted(n * recorded)
        if exhausted:
            if not self._graceful:
                self.sync_live()
                raise KvCacheError("out of KV blocks during decode")
            slot = next(iter(core.runners.values()))
            core.leave(slot)
            self._release_blocks(slot)
            self._shed_slot(slot, "kv-exhausted: pool full during decode")
        for slot in finished:
            core.finish_slot(slot, now)
        return now

    def finish(self, watchdog_reason: str = "") -> ServingReport:
        """Close the run: end the root span, unbind the audit handle,
        and return the aggregate report over every fed request."""
        self._park_piece = None
        if self._tracer is not None:
            self._tracer.finish(self._now)
        self.sync_live()
        bump_counter("vectorized_steps", self._steps)
        audit = self._audit
        self._audit = None
        requests = self._all_requests
        report = self._build_report(
            requests, self._now, self._steps, self._preemptions,
            self._activity, watchdog_reason,
        )
        if audit is not None:
            audit.observe_clock(self._now)
            if self.auditor is not None:
                core = self._core
                self.auditor.check(
                    core.free_blocks == core.num_blocks,
                    KvConservationError,
                    f"KV pool not drained at end of run: "
                    f"{core.free_blocks}/{core.num_blocks} blocks free",
                )
            audit.check_token_conservation(self._total_generated())
            ttfts = None
            if self.retain_requests:
                ttfts = [r.ttft for r in requests if r.state is RequestState.FINISHED]
            audit.check_report(report, ttfts)
        return report

    @property
    def last_fed_arrival(self) -> float:
        """Latest ``arrival_time`` among fed requests -- the load
        generator's saturation denominator for streaming runs, where no
        materialized request list exists to take a ``max`` over."""
        return self._max_fed_arrival

    def ttft_p99(self) -> float:
        """P99 TTFT over finished requests: the exact nearest-rank
        percentile when requests are retained, else the release-mode
        histogram upper bound from :class:`ReportAggregates`."""
        if self._aggregates is not None:
            return self._aggregates.p99_ttft()
        ttfts = [
            r.ttft for r in self._all_requests
            if r.state is RequestState.FINISHED
        ]
        if not ttfts:
            return 0.0
        from repro.core.metrics import percentile

        return percentile(ttfts, 99)

    def _total_generated(self) -> int:
        """Generated-token total for the conservation check, covering
        both retained and folded (``retain_requests=False``) runs."""
        if self._aggregates is None:
            return sum(r.generated for r in self._all_requests)
        return self._aggregates.terminal_tokens + self._core.live_generated_total()

    def run(self, requests: Iterable[Request]) -> ServingReport:
        """Serve ``requests``; returns aggregate metrics.

        A :class:`Sequence` is fed up front (the canonical golden
        path); any other iterable -- a generator of arrivals -- is
        served through :meth:`run_streaming` without ever being
        materialized, which is how million-request traces run in
        bounded memory.

        Without a policy, an unservable request raises
        :class:`KvCacheError` (fail fast); with one, it is shed with a
        reason and the run continues.  An empty request list yields an
        empty report (rendered as "no finished requests") rather than
        raising.  With a watchdog armed, exceeding its step/wall budget
        stops the run and returns a partial report carrying the typed
        ``watchdog_reason``.
        """
        if not isinstance(requests, Sequence):
            return self.run_streaming(requests)
        self.begin(requests)
        return self._drive(self.advance)

    def run_streaming(self, arrivals: Iterable[Request]) -> ServingReport:
        """Serve a lazily generated arrival stream in bounded memory.

        ``arrivals`` must yield requests with finite, nondecreasing
        ``arrival_time`` (:class:`~repro.audit.ConfigError` otherwise,
        raised as the offending request is drawn -- the single-pass
        clock cannot travel back to an earlier arrival).  One
        ``_advance_fast`` call serves the whole stream: it holds one
        drawn-but-unfed request and feeds it where a step would start
        at or past its arrival, so the in-memory working set tracks the
        concurrent batch, not the trace length.  Combined with
        ``retain_requests=False`` the whole run is constant-memory.
        The report is byte-identical to feeding the same requests as a
        list up front (under the same ``retain_requests`` setting).
        """
        arrivals = iter(arrivals)
        self.begin(())
        return self._drive(lambda: self._advance_fast(math.inf, arrivals=arrivals))

    def _drive(self, serve: Callable[[], object]) -> ServingReport:
        """Run ``serve`` on the open run and finish it.  A tripped
        watchdog becomes a typed partial result: every held block is
        released and the report covers what completed so far.  Any
        other error (e.g. a fail-fast KvCacheError) still closes the
        root span and drops the audit handle before propagating."""
        watchdog_reason = ""
        try:
            serve()
        except WatchdogExceeded as error:
            watchdog_reason = str(error)
            core = self._core
            core.sync_generated()
            for slot in core.running_slots():
                self._release_blocks(slot)
            if self._tracer is not None:
                self._tracer.instant("watchdog_exceeded", "engine", self._now)
            if self._metrics is not None:
                self._metrics.counter("engine.watchdog_trips").inc()
        except BaseException:
            self._abandon()
            raise
        return self.finish(watchdog_reason)

    def _abandon(self) -> None:
        """Close a run an error cut short: the root span ends and the
        audit handle drops, so no later run inherits either."""
        if self._tracer is not None:
            self._tracer.finish(self._now)
        self._audit = None

    # -- cluster-facing lifecycle wrappers ------------------------------
    def fail_all(self, reason: str) -> List[Request]:
        """Terminally fail every in-flight request (the cluster node
        crash path, and a permanent total outage).  Requests that
        FINISHED awaiting retirement are retired, not failed."""
        self._park_piece = None
        core = self._core
        if core is None:
            return []  # no run opened yet
        waiting = core.waiting_slots()
        running = list(core.runners.values())
        for slot in running:
            core.leave(slot)
        finished_slots = list(core.finished_pending)
        for slot in running + finished_slots:
            self._release_blocks(slot)
        victim_slots = waiting + running
        core.finished_pending.clear()
        core.wait_q.clear()
        core.wait_head = 0
        for slot in finished_slots:
            self._fold_terminal(core.objs[slot])
            core.release(slot)
        victims: List[Request] = []
        for slot in victim_slots:
            request = core.sync_object(slot)
            request.fail(reason)
            core.state[slot] = SLOT_FAILED
            victims.append(request)
            self._fold_terminal(request)
            core.release(slot)
        if victims:
            self._observe_event(
                "fail_all", "scheduler.failed", len(victims),
                victims=len(victims), reason=reason,
            )
        return victims

    def cancel(self, request: Request, reason: str) -> None:
        """Shed one scheduled request (the gateway cancellation path);
        a FINISHED request awaiting retirement is retired instead."""
        self._park_piece = None
        core = self._core
        q = core.wait_q
        for i in range(core.wait_head, len(q)):
            if core.objs[q[i]] is request:
                self._shed_slot(core.take_waiting(i), reason)
                return
        for slot in core.running_slots():
            if core.objs[slot] is not request:
                continue
            if core.state[slot] == SLOT_FINISHED:
                core.finished_pending.remove(slot)
                self._release_blocks(slot)
                self._fold_terminal(core.objs[slot])
                core.release(slot)
            else:
                core.leave(slot)
                self._release_blocks(slot)
                self._shed_slot(slot, reason)
            return
        raise ValueError(f"request {request.request_id} is not scheduled")

    # ------------------------------------------------------------------
    def _submit(self, request: Request) -> None:
        """Queue a fed request; an oversized prompt fails hard without a
        policy and is shed with a reason under one."""
        core = self._core
        if request.state is not RequestState.WAITING:
            raise ValueError(f"request {request.request_id} is not schedulable")
        needed = core.blocks_needed(request.input_tokens)
        if needed > core.num_blocks:
            error = KvCacheError(
                f"request {request.request_id}'s prompt needs {needed} KV "
                f"blocks but the pool only has {core.num_blocks}; "
                "it can never be scheduled"
            )
            if not self._graceful:
                raise error
            request.shed(f"oversized: {error}")
            self._fold_terminal(request)
            return
        core.acquire(request)

    def _advance_faults(self, now: float) -> float:
        """Apply fault events due at ``now``; returns the clock, advanced
        past any total-outage window the run had to wait out."""
        self._apply_fault_summary(self.injector.advance(now), now)
        # Total outage: with every device down nothing can execute.  The
        # clock can only move to the next scheduled event (a recovery, if
        # one is coming); a permanent outage fails everything in flight.
        while self.injector.alive_devices() == 0:
            next_time = self.injector.next_event_time
            if next_time is None:
                self.fail_all("outage: all devices down")
                break
            now = max(now, next_time)
            self._apply_fault_summary(self.injector.advance(now), now)
        return now

    def _apply_fault_summary(self, summary: object, now: float) -> None:
        self.fault_stats.device_failures += summary.device_failures
        self.fault_stats.device_recoveries += summary.device_recoveries
        if self._tracer is not None:
            if summary.device_failures:
                self._tracer.instant(
                    "device_failure", "engine", now, count=summary.device_failures
                )
            if summary.device_recoveries:
                self._tracer.instant(
                    "device_recovery", "engine", now, count=summary.device_recoveries
                )
        if self._metrics is not None:
            if summary.device_failures:
                self._metrics.counter("engine.device_failures").inc(
                    summary.device_failures
                )
            if summary.device_recoveries:
                self._metrics.counter("engine.device_recoveries").inc(
                    summary.device_recoveries
                )
        if summary.device_failures:
            # A device fault kills the in-flight batch: preempt every
            # runner into checkpointed recompute.  A request that
            # FINISHED in the last step was already served; it stays for
            # retirement instead of restarting (double-serving).
            for slot in list(self._core.runners.values()):
                request = self._preempt(slot, from_checkpoint=True)
                self.fault_stats.fault_preemptions += 1
                self._fault_restarted_ids.add(request.request_id)

    def _build_report(
        self,
        requests: Sequence[Request],
        now: float,
        steps: int,
        preemptions: int,
        activity: ActivityAccumulator,
        watchdog_reason: str = "",
    ) -> ServingReport:
        if self._aggregates is not None:
            return self._build_report_from_aggregates(
                now, steps, preemptions, activity, watchdog_reason
            )
        finished = [r for r in requests if r.state is RequestState.FINISHED]
        self.fault_stats.recovered_requests = sum(
            1 for r in finished if r.request_id in self._fault_restarted_ids
        )
        shed = [r for r in requests if r.state is RequestState.SHED]
        failed = [r for r in requests if r.state is RequestState.FAILED]
        unfinished = len(requests) - len(finished) - len(shed) - len(failed)
        mean_ttft = sum(r.ttft for r in finished) / len(finished) if finished else 0.0
        mean_tpot = sum(r.tpot for r in finished) / len(finished) if finished else 0.0
        total_tokens = sum(r.generated for r in requests)
        if self._tracer is not None:
            for request in requests:
                if request.request_id not in self._traced_request_ids:
                    continue
                self._tracer.async_end(
                    f"request-{request.request_id}",
                    "request",
                    now,
                    request.request_id,
                    state=request.state.value,
                    generated=request.generated,
                )
            self._traced_request_ids.clear()
        if self._metrics is not None:
            for request in finished:
                self._metrics.histogram("request.ttft").observe(request.ttft)
                self._metrics.histogram("request.tpot").observe(request.tpot)
        power = 0.0
        if now > 0:
            power = PowerModel(self.model.device.spec.power).power(activity.profile(now))
        return ServingReport(
            device=self.model.device.name,
            attention=self.attention.value,
            num_requests=len(requests),
            max_decode_batch=self.max_decode_batch,
            total_time=now,
            total_output_tokens=total_tokens,
            mean_ttft=mean_ttft,
            mean_tpot=mean_tpot,
            average_power=power,
            engine_steps=steps,
            preemptions=preemptions,
            finished_requests=len(finished),
            shed_requests=len(shed),
            failed_requests=len(failed),
            unfinished_requests=unfinished,
            retried_requests=sum(1 for r in requests if r.retries > 0),
            kernel_retries=self.fault_stats.kernel_retries,
            device_failures=self.fault_stats.device_failures,
            watchdog_reason=watchdog_reason,
        )

    def _build_report_from_aggregates(
        self,
        now: float,
        steps: int,
        preemptions: int,
        activity: ActivityAccumulator,
        watchdog_reason: str = "",
    ) -> ServingReport:
        """Constant-memory report for ``retain_requests=False`` runs:
        terminal requests were folded at retirement, so only the live
        (still-scheduled) remainder is walked here."""
        agg = self._aggregates
        live_tokens = 0
        live_retried = 0
        core = self._core
        core.sync_generated()
        for slot in core.running_slots() + core.waiting_slots():
            live_tokens += core.generated[slot]
            if core.retries[slot] > 0:
                live_retried += 1
        finished = agg.finished
        power = 0.0
        if now > 0:
            power = PowerModel(self.model.device.spec.power).power(activity.profile(now))
        return ServingReport(
            device=self.model.device.name,
            attention=self.attention.value,
            num_requests=agg.fed,
            max_decode_batch=self.max_decode_batch,
            total_time=now,
            total_output_tokens=agg.terminal_tokens + live_tokens,
            mean_ttft=agg.sum_ttft / finished if finished else 0.0,
            mean_tpot=agg.sum_tpot / finished if finished else 0.0,
            average_power=power,
            engine_steps=steps,
            preemptions=preemptions,
            finished_requests=finished,
            shed_requests=agg.shed,
            failed_requests=agg.failed,
            unfinished_requests=agg.fed - finished - agg.shed - agg.failed,
            retried_requests=agg.retried + live_retried,
            kernel_retries=self.fault_stats.kernel_retries,
            device_failures=self.fault_stats.device_failures,
            watchdog_reason=watchdog_reason,
        )

