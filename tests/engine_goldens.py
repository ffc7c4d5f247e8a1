"""Pinned serving-engine outputs: the reference the engine core answers to.

Each case below runs one fixed workload and returns a JSON-able payload
(report bytes plus every request's final state, or a fleet report
payload, or CLI output).  ``engine_digests.json`` holds the SHA-256 of
each payload as the per-object scalar stepper produced it, before that
stepper was deleted; the struct-of-arrays core must reproduce every
digest.  The cases cover what the scalar-vs-vectorized differentials
used to: every attention kernel, two backends, preemption, streaming,
lifecycle operations between horizons, fleets with chaos and hedging,
40 seeded draws of each fuzz generator, device-fault chaos runs and
the golden trace.

Every engine a case builds goes through :func:`make_engine`, so a
recorder can pin the stepper (``python -m tests.engine_goldens
--write`` rewrites the file from the current engine; do that only for
a deliberate change of outputs).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
from typing import Callable, Dict

import numpy as np

GOLDEN_PATH = pathlib.Path(__file__).with_name("engine_digests.json")

#: How many seeded draws of each fuzz generator are pinned.
FUZZ_DRAWS = 40


def digest(payload) -> str:
    """SHA-256 of a JSON-able payload (floats at full precision)."""
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def load_goldens() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def make_engine(model, attention, **kwargs):
    from repro.serving import LlmServingEngine

    return LlmServingEngine(model, attention, **kwargs)


def states(requests):
    """Every request's lifecycle fields, in feed order."""
    return [
        [r.request_id, r.state.value, r.generated, r.first_token_time,
         r.finish_time, r.restarts, r.retries, r.checkpoint, r.shed_reason]
        for r in requests
    ]


def _device(name="gaudi2"):
    from repro.hw.backend import get_backend

    return get_backend(name)


def _engine(attention=None, device="gaudi2", **kwargs):
    from repro.models.llama import LLAMA_3_1_8B, DecodeAttention, LlamaCostModel

    return make_engine(
        LlamaCostModel(LLAMA_3_1_8B, _device(device)),
        attention or DecodeAttention.PAGED_OPT,
        **kwargs,
    )


def _sonnet(count, seed, rate=None, rate_seed=0):
    from repro.serving import dynamic_sonnet_requests
    from repro.serving.loadgen import poisson_arrivals

    requests = dynamic_sonnet_requests(count, seed=seed)
    if rate is not None:
        requests = poisson_arrivals(requests, rate, seed=rate_seed)
    return list(requests)


def _served(requests, **kwargs):
    report = _engine(**kwargs).run(requests)
    return [report.to_json(), states(requests)]


# -- single-engine workloads ----------------------------------------------
def case_backlog():
    return _served(_sonnet(48, 7))


def case_poisson():
    return _served(_sonnet(64, 1, 20.0, 5))


def case_small_kv_pool():
    return _served(_sonnet(32, 11), num_kv_blocks=220)


def case_single_token_outputs():
    from repro.serving.request import Request

    requests = [
        Request(r.request_id, r.input_tokens, 1, r.arrival_time)
        for r in _sonnet(24, 9)
    ]
    return _served(requests)


def _case_attention(name):
    def case():
        from repro.models.llama import DecodeAttention

        return _served(_sonnet(24, 2), attention=DecodeAttention[name])

    return case


def case_other_backend():
    from repro.models.llama import DecodeAttention

    return _served(
        _sonnet(32, 3), attention=DecodeAttention.PAGED_CUDA, device="a100"
    )


def case_strict_audit():
    from repro.audit import audit_scope

    with audit_scope("strict"):
        return _served(_sonnet(40, 4, 15.0, 6))


def case_stream_reference():
    """The list run the streamed run of the same trace must equal."""
    return _engine().run(_sonnet(48, 8, 25.0, 2)).to_json()


def case_fail_all():
    requests = _sonnet(24, 6, 40.0, 1)
    engine = _engine()
    engine.begin(requests)
    engine.advance(0.5)
    victims = engine.fail_all("outage: test")
    return [sorted(v.request_id for v in victims), states(requests)]


def case_cancel():
    requests = _sonnet(16, 6, 40.0, 1)
    engine = _engine()
    engine.begin(requests)
    engine.advance(0.4)
    alive = [r for r in requests if not r.done]
    engine.cancel(alive[-1], "timeout: test")
    engine.advance()
    return states(requests)


def case_every_horizon():
    """Request states observed after every 50 ms horizon."""
    requests = _sonnet(24, 6, 40.0, 1)
    engine = _engine(max_decode_batch=8)
    engine.begin(requests)
    trace = []
    horizon = 0.0
    while engine.has_unfinished:
        horizon += 0.05
        engine.advance(horizon)
        trace.append(states(requests))
    return trace


def _case_split_exit(pool, strict):
    """``advance(h, sync_exit=False)`` with ``sync_live()`` every third
    horizon: what each horizon published, the synced states, the report."""

    def drive():
        from repro.serving import ResiliencePolicy
        from repro.serving.request import RequestState

        terminal = (RequestState.FINISHED, RequestState.SHED, RequestState.FAILED)
        requests = _sonnet(32, 6, 40.0, 1)
        outbox = []
        for request in requests:
            request.outbox = outbox
        engine = _engine(
            max_decode_batch=8, num_kv_blocks=pool,
            policy=ResiliencePolicy(deadline=1.0, checkpoint_interval=16),
        )
        engine.begin(requests)
        published, synced = [], []
        horizon = 0.0
        while engine.has_unfinished:
            horizon += 0.05
            engine.advance(horizon, sync_exit=False)
            done = [r for r in requests if r.state in terminal]
            published.append([
                [[r.request_id, r.state.value, r.generated, r.finish_time]
                 for r in done],
                sorted(r.request_id for r in outbox),
            ])
            outbox.clear()
            if len(published) % 3 == 0:
                engine.sync_live()
                synced.append(states(requests))
        return [published, synced, engine.finish().to_json()]

    def case():
        if not strict:
            return drive()
        from repro.audit import audit_scope

        with audit_scope("strict"):
            return drive()

    return case


def numpy_typed_run(numpy_fields=False):
    """The column-writer workload of ``test_engine_core_types``:
    preemption, deadline requeues, checkpoints and sheds."""
    from repro.serving import ResiliencePolicy
    from repro.serving.request import RetryPolicy

    engine = _engine(
        max_decode_batch=16, num_kv_blocks=100,
        policy=ResiliencePolicy(
            deadline=2.0, checkpoint_interval=8,
            retry=RetryPolicy(max_retries=1, backoff_base=0.1),
        ),
    )
    requests = _sonnet(48, 5, 40.0, 3)
    if numpy_fields:
        for request in requests:
            request.input_tokens = np.int64(request.input_tokens)
            request.output_tokens = np.int64(request.output_tokens)
            request.arrival_time = np.float64(request.arrival_time)
    report = engine.run(requests)
    return engine, requests, report


def case_column_writers():
    _, requests, report = numpy_typed_run()
    return [report.to_json(), states(requests)]


def tp8_fabric_fault_run(mutate, horizon=1.0):
    """A TP-8 run whose fabric ``mutate`` faults between two advances;
    returns the engine, the model's fabric keys before and after, and
    the report."""
    from repro.comm import FabricHealth
    from repro.hw.backend import GAUDI2
    from repro.models.llama import (
        LLAMA_3_1_8B,
        LlamaCostModel,
        default_decode_attention,
    )
    from repro.models.tensor_parallel import TensorParallelConfig

    health = FabricHealth()
    device = _device(GAUDI2)
    model = LlamaCostModel(
        LLAMA_3_1_8B, device,
        tp=TensorParallelConfig(degree=8, library=device.collective_library().degraded(health)),
    )
    engine = make_engine(model, default_decode_attention(device), max_decode_batch=32)
    engine.begin(_sonnet(64, 2, 30.0, 4))
    engine.advance(horizon)
    before = model._fabric_key()
    mutate(health)
    engine.advance()
    return engine, (before, model._fabric_key()), engine.finish()


FABRIC_FAULTS = {
    "link-factor": lambda health: health.set_link_factor(0, 1, 0.25),
    "fail-device": lambda health: health.fail_device(3),
}


def _case_tp8(name):
    def case():
        return tp8_fabric_fault_run(FABRIC_FAULTS[name])[2].to_json()

    return case


# -- the engine fuzz generator --------------------------------------------
def fuzz_engine_run(seed, ctx=None):
    """One seeded draw of the engine fuzz: random arrivals over a random
    pool block size (including one that is not a divisor of the
    128-token pricing block); a pool that is roomy, tight enough to
    force preemption, or too small for a lone runner's decode; an
    optional ResiliencePolicy (TTFT deadline with retries, admission
    watermark, checkpoints, graceful or fail-fast exhaustion) with
    mixed tiers, per-request deadlines and an oversized prompt; a
    request resumed with progress; slowdowns changed between horizons;
    and an optional cancel or fail_all.  ``ctx`` is a RunContext to
    bind (None runs unobserved)."""
    from repro.serving import KvCacheError, ResiliencePolicy
    from repro.serving.request import Request, RequestState, RetryPolicy

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

    requests = make()
    if resumed:
        request = requests[resumed_index]
        request.generated = request.output_tokens // 2
        if request.generated:
            request.first_token_time = request.arrival_time
    if oversized:
        requests[victim_index].input_tokens = num_kv_blocks * block_size + 1
    engine = _engine(num_kv_blocks=num_kv_blocks, block_size=block_size,
                     policy=policy, ctx=ctx)
    victims = []
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
    return [outcome, states(requests), victims]


def _case_fuzz_engine(seed):
    return lambda: fuzz_engine_run(seed)


# -- fleets ---------------------------------------------------------------
def fleet_payload(config, ctx=None) -> str:
    from repro.cluster import run_fleet

    return json.dumps(run_fleet(config, ctx=ctx).to_payload(), sort_keys=True)


def fleet_chaos_config(seed):
    """The perfbench ``fleet_chaos`` workload's fleet, verbatim."""
    from repro.cluster import (
        AdmissionPolicy,
        BreakerPolicy,
        FleetConfig,
        NodeFaultPlan,
        TenantSpec,
    )

    return FleetConfig(
        nodes=(("gaudi2", 2), ("a100", 2)),
        max_decode_batch=8,
        num_requests=3_600,
        rate=300.0,
        seed=seed,
        timeout=2.0,
        tenants=(
            TenantSpec(name="gold", tier=0, share=0.25, weight=4.0, ttft_slo=2.0),
            TenantSpec(name="silver", tier=1, share=0.35, weight=2.0),
            TenantSpec(name="bronze", tier=2, share=0.40, weight=1.0,
                       quota_rate=8.0, quota_burst=8.0),
        ),
        admission=AdmissionPolicy(
            target_queue_delay=0.4, shed_queue_delay=0.8, max_queue_delay=20.0
        ),
        breaker=BreakerPolicy(),
        plan=NodeFaultPlan.from_spec(
            "crash:gaudi2-1@t=2,recover=6;brownout:a100-0@t=1,factor=0.5,until=4"
        ),
    )


def hedging_fleet_config():
    """Hedges read a live attempt's first token, which fleet nodes copy
    onto the attempt only on demand (``engine.sync_live()``)."""
    from repro.cluster import FleetConfig, NodeFaultPlan

    return FleetConfig(
        nodes=(("gaudi2", 2), ("a100", 1)),
        num_requests=96,
        rate=40.0,
        max_decode_batch=4,
        policy="least-loaded",
        timeout=20.0,
        hedge_after=0.05,
        plan=NodeFaultPlan.from_spec("crash:gaudi2-1@t=1,recover=3"),
    )


def autoscale_fleet_config():
    """A diurnal single-pool fleet whose autoscaler provisions nodes
    inside the event loop at each peak and drains them (to retirement)
    in each trough."""
    from repro.cluster import AutoscalePolicy, FleetConfig

    return FleetConfig(
        nodes=(("gaudi2", 1),),
        max_decode_batch=4,
        num_requests=300,
        rate=15.0,
        diurnal=True,
        diurnal_period=10.0,
        timeout=20.0,
        autoscale=AutoscalePolicy(
            target_p99_ttft=1.0, evaluate_interval=1.0, cooldown=2.0,
            scale_down_factor=0.9, max_nodes=3, provision_delay=0.5,
        ),
    )


def diurnal_fleet_config():
    """Diurnal arrivals attributed to tenants, under admission control,
    breakers and a node crash."""
    from repro.cluster import (
        AdmissionPolicy,
        BreakerPolicy,
        FleetConfig,
        NodeFaultPlan,
        TenantSpec,
    )

    return FleetConfig(
        nodes=(("gaudi2", 2), ("a100", 1)),
        max_decode_batch=4,
        num_requests=300,
        rate=40.0,
        diurnal=True,
        diurnal_period=8.0,
        timeout=20.0,
        tenants=(
            TenantSpec(name="gold", tier=0, share=0.3, weight=4.0, ttft_slo=2.0),
            TenantSpec(name="bronze", tier=2, share=0.7,
                       quota_rate=20.0, quota_burst=8.0),
        ),
        admission=AdmissionPolicy(
            target_queue_delay=0.4, shed_queue_delay=0.8, max_queue_delay=10.0
        ),
        breaker=BreakerPolicy(),
        plan=NodeFaultPlan.from_spec("crash:gaudi2-1@t=2,recover=5"),
    )


def drawn_fleet_config(seed):
    """One seeded draw of a small heterogeneous fleet exercising every
    node-level policy: tenants with TTFT SLOs and quotas, admission,
    crash, brownout, fabric and blip faults, breakers, rolling upgrade,
    hedging, retries, deadlines, checkpoints and watermarks."""
    from repro.cluster import (
        AdmissionPolicy,
        BreakerPolicy,
        FleetConfig,
        NodeFaultPlan,
        TenantSpec,
        UpgradePlan,
    )
    from repro.faults.events import MIN_LINK_FACTOR
    from repro.serving.request import RetryPolicy

    rng = np.random.default_rng(seed)

    def coin():
        return bool(rng.uniform() < 0.5)

    def maybe(value):
        return value if coin() else None

    gaudi = int(rng.integers(1, 3))
    a100 = int(rng.integers(0, 2))
    nodes = (("gaudi2", gaudi),) + ((("a100", a100),) if a100 else ())
    names = [f"gaudi2-{i}" for i in range(gaudi)] + [f"a100-{i}" for i in range(a100)]

    def name():
        return names[int(rng.integers(0, len(names)))]

    tenants = ()
    if coin():
        tenants = (
            TenantSpec(name="gold", tier=0, share=float(rng.uniform(0.1, 1.0)),
                       weight=4.0, ttft_slo=maybe(float(rng.uniform(0.2, 3.0)))),
            TenantSpec(name="silver", tier=int(rng.integers(0, 3)), share=0.35,
                       weight=2.0, ttft_slo=maybe(float(rng.uniform(0.2, 3.0)))),
            TenantSpec(name="bronze", tier=2, share=0.4, weight=1.0,
                       quota_rate=maybe(float(rng.uniform(2.0, 20.0)))),
        )
    admission = None
    if tenants and coin():
        target = float(rng.uniform(0.1, 1.0))
        admission = AdmissionPolicy(
            target_queue_delay=target,
            shed_queue_delay=target * 2,
            brownout_max_new_tokens=int(rng.integers(8, 65)),
            max_queue_delay=10.0,
        )
    plan = NodeFaultPlan()
    if coin():
        at = float(rng.uniform(0.2, 3.0))
        plan.crash(name(), at,
                   recover_at=maybe(float(rng.uniform(at + 0.5, at + 4.0))))
    if coin():
        at = float(rng.uniform(0.0, 3.0))
        plan.brownout(name(), float(rng.uniform(0.2, 0.9)), at,
                      until=at + float(rng.uniform(0.5, 4.0)))
    if coin():
        at = float(rng.uniform(0.0, 3.0))
        # A down link (0) or any factor the plan accepts.
        factor = 0.0 if coin() else float(rng.uniform(MIN_LINK_FACTOR, 0.9))
        plan.degrade_fabric(name(), factor, at,
                            until=at + float(rng.uniform(0.5, 4.0)))
    if coin():
        plan.blip(name(), float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.1, 1.0)))
    return FleetConfig(
        nodes=nodes,
        tp=int(rng.choice([2, 8])),
        max_decode_batch=int(rng.integers(2, 9)),
        num_kv_blocks=maybe(int(rng.integers(12, 81))),
        num_requests=int(rng.integers(8, 61)),
        rate=float(rng.uniform(4.0, 60.0)),
        seed=int(rng.integers(0, 2**16)),
        policy=str(rng.choice(["round-robin", "least-loaded", "latency-aware"])),
        timeout=maybe(float(rng.uniform(0.5, 10.0))),
        retry=RetryPolicy(max_retries=int(rng.integers(0, 4)), jitter=0.5),
        hedge_after=maybe(float(rng.uniform(0.1, 2.0))),
        deadline=maybe(float(rng.uniform(0.2, 3.0))),
        checkpoint_interval=int(rng.integers(1, 65)),
        admission_watermark=float(rng.choice([1.0, 0.9, 0.6])),
        tenants=tenants,
        admission=admission,
        breaker=BreakerPolicy(failure_threshold=2, cooldown=1.0) if coin() else None,
        upgrade=UpgradePlan(start=float(rng.uniform(0.0, 3.0))) if coin() else None,
        plan=plan,
    )


def _case_fleet(config_fn, *args):
    return lambda: fleet_payload(config_fn(*args))


# -- device-fault chaos and tracing ---------------------------------------
#: The verify skill's chaos flows, as ``repro`` argv.
CHAOS_FLOWS = {
    "chaos_fail_device_text": ["chaos", "--seed", "0", "--fail-device", "3@t=2.0"],
    "chaos_fail_device_json": [
        "chaos", "--seed", "0", "--fail-device", "3@t=2.0", "--json",
    ],
    "chaos_kv_shedding": [
        "chaos", "--kv-blocks", "40", "--deadline", "0.5", "--max-retries", "1",
    ],
    "chaos_multi_fault": [
        "chaos", "--seed", "0", "--requests", "400",
        "--fail-device", "3@t=2.0,recover=6",
        "--degrade-link", "0-1@t=1,factor=0.3,until=5",
        "--flap-link", "2-5@t=1,period=0.5,cycles=4",
        "--kernel-fault-rate", "0.01", "--format", "json",
    ],
}


def cli_stdout(argv) -> str:
    """What ``python -m repro <argv>`` prints, run in-process."""
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(list(argv)) == 0
    return buffer.getvalue()


def _case_chaos(name):
    def case():
        if name != "chaos_multi_fault":
            return cli_stdout(CHAOS_FLOWS[name])
        from repro.audit import audit_scope

        with audit_scope("strict"):
            return cli_stdout(CHAOS_FLOWS[name])

    return case


def traced_run(ctx=None):
    """The golden-trace configuration: four staggered requests on a
    TP-4 Gaudi-2 box, with ``ctx`` bound (None runs unobserved)."""
    from repro.hw.device import Gaudi2Device
    from repro.models.llama import LLAMA_3_1_8B, DecodeAttention, LlamaCostModel
    from repro.models.tensor_parallel import TensorParallelConfig
    from repro.serving import Request

    device = Gaudi2Device()
    model = LlamaCostModel(
        LLAMA_3_1_8B, device, tp=TensorParallelConfig.for_device(device, 4)
    )
    engine = make_engine(
        model, DecodeAttention.PAGED_OPT, max_decode_batch=8, ctx=ctx
    )
    requests = [
        Request(request_id=i, input_tokens=128, output_tokens=32, arrival_time=0.01 * i)
        for i in range(4)
    ]
    return engine.run(requests)


def observed(ctx, payload):
    """``payload`` plus the chrome trace and metrics ``ctx`` recorded."""
    return [payload, ctx.chrome_trace(), ctx.metrics.to_json()]


def case_golden_trace():
    from repro.api import RunContext

    ctx = RunContext.create(seed=0, device="gaudi2")
    return observed(ctx, traced_run(ctx).to_json())


def chaos_run(name, ctx=None):
    """``run_chaos`` on the config of one of :data:`CHAOS_FLOWS`."""
    from repro.cli import build_parser
    from repro.faults import ChaosConfig, FaultPlan, run_chaos

    args = build_parser().parse_args(CHAOS_FLOWS[name])
    plan = FaultPlan.from_specs(
        seed=args.seed, fail_device=args.fail_device,
        degrade_link=args.degrade_link, flap_link=args.flap_link,
        throttle_hbm=args.throttle_hbm, straggler=args.straggler,
        kernel_fault_rate=args.kernel_fault_rate,
    )
    config = ChaosConfig(
        model=args.model, device=args.device, tp=args.tp,
        max_decode_batch=args.max_batch, num_requests=args.requests,
        rate=args.rate, seed=args.seed, deadline=args.deadline,
        max_retries=args.max_retries,
        checkpoint_interval=args.checkpoint_interval,
        num_kv_blocks=args.kv_blocks, admission_watermark=args.watermark,
        plan=plan,
    )
    return run_chaos(config=config, ctx=ctx).to_json()


def _case_traced_chaos(name):
    def case():
        from repro.api import RunContext

        ctx = RunContext.create()
        return observed(ctx, chaos_run(name, ctx))

    return case


def watchdog_run(ctx=None):
    """A deadline-policy run stopped by a 60-step watchdog budget."""
    from repro.audit import Watchdog
    from repro.serving import ResiliencePolicy

    requests = _sonnet(40, 3, 30.0, 2)
    engine = _engine(
        max_decode_batch=8, num_kv_blocks=120, ctx=ctx,
        watchdog=Watchdog(max_steps=60),
        policy=ResiliencePolicy(deadline=0.5, checkpoint_interval=8),
    )
    return [engine.run(requests).to_json(), states(requests)]


def case_traced_watchdog():
    from repro.api import RunContext

    ctx = RunContext.create()
    return observed(ctx, watchdog_run(ctx))


def _case_traced_fuzz_engine(seed):
    def case():
        from repro.api import RunContext

        ctx = RunContext.create()
        return observed(ctx, fuzz_engine_run(seed, ctx))

    return case


def _case_traced_fleet(config_fn, *args):
    def case():
        from repro.api import RunContext

        ctx = RunContext.create()
        return observed(ctx, fleet_payload(config_fn(*args), ctx))

    return case


CASES: Dict[str, Callable[[], object]] = {
    "backlog": case_backlog,
    "poisson": case_poisson,
    "small_kv_pool": case_small_kv_pool,
    "single_token_outputs": case_single_token_outputs,
    **{
        f"attention_{name}": _case_attention(name)
        for name in ("STATIC", "PAGED_BASE", "PAGED_OPT", "PAGED_CUDA")
    },
    "other_backend": case_other_backend,
    "strict_audit": case_strict_audit,
    "stream_reference": case_stream_reference,
    "fail_all": case_fail_all,
    "cancel": case_cancel,
    "every_horizon": case_every_horizon,
    **{
        f"split_exit_{pool_id}_{audit_id}": _case_split_exit(pool, strict)
        for pool, pool_id in ((None, "roomy"), (40, "small"))
        for strict, audit_id in ((False, "off"), (True, "strict"))
    },
    "column_writers": case_column_writers,
    **{f"tp8_{name}": _case_tp8(name) for name in FABRIC_FAULTS},
    **{f"fuzz_engine_{seed}": _case_fuzz_engine(seed) for seed in range(FUZZ_DRAWS)},
    **{
        f"fleet_chaos_{seed}": _case_fleet(fleet_chaos_config, seed)
        for seed in range(4)
    },
    "fleet_hedging": _case_fleet(hedging_fleet_config),
    "fleet_autoscale": _case_fleet(autoscale_fleet_config),
    "fleet_diurnal": _case_fleet(diurnal_fleet_config),
    **{
        f"fuzz_fleet_{seed}": _case_fleet(drawn_fleet_config, seed)
        for seed in range(FUZZ_DRAWS)
    },
    **{name: _case_chaos(name) for name in CHAOS_FLOWS},
    "golden_trace": case_golden_trace,
    **{
        f"traced_{name}": _case_traced_chaos(name)
        for name in CHAOS_FLOWS if name != "chaos_fail_device_text"
    },
    "watchdog": watchdog_run,
    "traced_watchdog": case_traced_watchdog,
    **{
        f"traced_fuzz_engine_{seed}": _case_traced_fuzz_engine(seed)
        for seed in range(FUZZ_DRAWS)
    },
    "traced_fleet_hedging": _case_traced_fleet(hedging_fleet_config),
    **{
        f"traced_fuzz_fleet_{seed}": _case_traced_fleet(drawn_fleet_config, seed)
        for seed in range(FUZZ_DRAWS)
    },
}


def record() -> Dict[str, str]:
    """Digest of every case under the current engine."""
    return {name: digest(case()) for name, case in CASES.items()}


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.engine_goldens --write")
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
