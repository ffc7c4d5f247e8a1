"""Chaos harness: one serving run under a fault plan.

Wires the whole degradation story together: a shared
:class:`~repro.comm.FabricHealth` sits between the
:class:`~repro.faults.injector.FaultInjector` (which mutates it as
events fire) and the degraded topology view bound into the model's
tensor-parallel collective library (which reads it when pricing every
AllReduce).  Killing a device mid-run therefore slows decode through
the exact Figure 10 port-count bandwidth cliff, while the engine sheds,
retries, and recomputes per its :class:`ResiliencePolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.audit import ConfigError, get_auditor
from repro.comm.api import HcclLibrary, NcclLibrary
from repro.comm.topology import (
    DegradedMeshTopology,
    DegradedSwitchTopology,
    FabricHealth,
    P2PMeshTopology,
    SwitchTopology,
)
from repro.core.metrics import percentile
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.report import ResilienceReport, shed_reason_counts
from repro.hw.backend import GAUDI2, get_backend, resolve_backend
from repro.hw.spec import get_spec
from repro.models.llama import (
    LLAMA_3_1_70B,
    LLAMA_3_1_8B,
    LlamaCostModel,
    check_tp_degree,
    default_decode_attention,
)
from repro.models.tensor_parallel import TensorParallelConfig
from repro.serving.engine import LlmServingEngine, ResiliencePolicy
from repro.serving.loadgen import poisson_arrivals
from repro.serving.request import RequestState, RetryPolicy
from repro.serving.dataset import dynamic_sonnet_requests

#: Probe size for the healthy-vs-degraded AllReduce comparison: large
#: enough that the per-step base latency is negligible, so the ratio is
#: purely the Figure 10 port-count model.
_BANDWIDTH_PROBE_BYTES = 64 * 2**20


@dataclass
class ChaosConfig:
    """One chaos experiment (all knobs surfaced by ``repro chaos``)."""

    model: str = "8b"
    device: str = GAUDI2
    tp: int = 8
    max_decode_batch: int = 32
    num_requests: int = 128
    rate: Optional[float] = None          # requests/s; None = backlog at t=0
    seed: int = 0
    deadline: Optional[float] = None      # TTFT SLO in seconds
    max_retries: int = 3
    checkpoint_interval: int = 32
    num_kv_blocks: Optional[int] = None
    admission_watermark: float = 1.0
    plan: FaultPlan = field(default_factory=FaultPlan)

    def __post_init__(self) -> None:
        """Reject impossible experiments at construction, naming the
        offending field (:class:`~repro.audit.ConfigError` is also a
        ``ValueError``, so older ``except ValueError`` callers hold)."""
        if self.model not in ("8b", "70b"):
            raise ConfigError(f"model must be '8b' or '70b', got {self.model!r}")
        # Normalize to the canonical registry key (raises ConfigError,
        # listing the registered backends, on unknown names).
        self.device = resolve_backend(self.device)
        if self.tp < 1:
            raise ConfigError(f"tp must be >= 1, got {self.tp}")
        check_tp_degree(LLAMA_3_1_8B if self.model == "8b" else LLAMA_3_1_70B, self.tp)
        if self.max_decode_batch < 1:
            raise ConfigError(
                f"max_decode_batch must be >= 1, got {self.max_decode_batch}"
            )
        if self.num_requests < 1:
            raise ConfigError(f"num_requests must be >= 1, got {self.num_requests}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.rate is not None and not self.rate > 0:
            raise ConfigError(f"rate must be positive, got {self.rate}")
        if self.deadline is not None and not self.deadline > 0:
            raise ConfigError(f"deadline must be positive, got {self.deadline}")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.checkpoint_interval < 1:
            raise ConfigError(
                f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}"
            )
        if self.num_kv_blocks is not None and self.num_kv_blocks < 1:
            raise ConfigError(
                f"num_kv_blocks must be >= 1, got {self.num_kv_blocks}"
            )
        if not 0.0 < self.admission_watermark <= 1.0:
            raise ConfigError(
                f"admission_watermark must be in (0, 1], got {self.admission_watermark}"
            )
        # The injector's box has max(tp, 1) devices (see run_chaos).
        devices = max(self.tp, 1)
        for event in self.plan.events:
            if max(event.device, event.peer) >= devices:
                raise ConfigError(f"fault event '{event.describe()}' targets a device "
                                  f"outside the box (devices 0..{devices - 1})")


def build_degraded_collectives(device: str, tp: int, health: FabricHealth):
    """(tp_config, healthy_library, degraded_library) for one box.

    The degraded library prices every collective through a topology
    view of ``health``, so mutating the shared ``health`` mid-run
    (device deaths, link slowdowns) re-prices AllReduce on the Figure
    10 port-count cliff.  Shared by the single-box chaos harness and
    each cluster :class:`~repro.cluster.Node`.
    """
    if tp == 1:
        return TensorParallelConfig(degree=1), None, None
    num_devices = max(8, tp)
    spec = get_spec(device)
    if spec.interconnect.kind == "p2p-mesh":
        healthy = HcclLibrary(P2PMeshTopology(num_devices=num_devices))
        degraded_topology = DegradedMeshTopology(healthy.topology, health)
    else:
        healthy = NcclLibrary(SwitchTopology(num_devices=num_devices))
        degraded_topology = DegradedSwitchTopology(healthy.topology, health)
    degraded = healthy.with_topology(degraded_topology)
    tp_config = TensorParallelConfig(degree=tp, library=degraded)
    return tp_config, healthy, degraded


def run_chaos(*, config: ChaosConfig, ctx=None) -> ResilienceReport:
    """Run one fault-injected serving experiment end to end.

    With a :class:`~repro.api.RunContext` passed as ``ctx``, the
    serving run records spans and metrics through it.
    """
    device = get_backend(config.device)
    health = FabricHealth()
    tp_config, healthy_lib, degraded_lib = build_degraded_collectives(
        config.device, config.tp, health
    )
    llama = LLAMA_3_1_8B if config.model == "8b" else LLAMA_3_1_70B
    model = LlamaCostModel(llama, device, tp=tp_config)
    attention = default_decode_attention(device)
    injector = FaultInjector(config.plan, num_devices=max(config.tp, 1), health=health)
    policy = ResiliencePolicy(
        deadline=config.deadline,
        retry=RetryPolicy(max_retries=config.max_retries),
        checkpoint_interval=config.checkpoint_interval,
        admission_watermark=config.admission_watermark,
    )
    engine = LlmServingEngine(
        model,
        attention,
        max_decode_batch=config.max_decode_batch,
        num_kv_blocks=config.num_kv_blocks,
        policy=policy,
        injector=injector,
        ctx=ctx,
    )
    requests = dynamic_sonnet_requests(config.num_requests, seed=config.seed)
    if config.rate is not None:
        poisson_arrivals(requests, config.rate, seed=config.seed)
    report = engine.run(requests)

    finished = [r for r in requests if r.state is RequestState.FINISHED]
    ttfts = sorted(r.ttft for r in finished)
    if config.deadline is not None:
        good = [r for r in finished if r.ttft <= config.deadline]
        violations = len(requests) - len(good)
    else:
        good = finished
        violations = len(requests) - len(finished)
    good_tokens = sum(r.output_tokens for r in good)
    goodput = good_tokens / report.total_time if report.total_time > 0 else 0.0

    healthy_bw = degraded_bw = 0.0
    if healthy_lib is not None:
        healthy_bw = healthy_lib.all_reduce(
            _BANDWIDTH_PROBE_BYTES, config.tp
        ).bus_bandwidth
        alive = degraded_lib.alive_participants(config.tp)
        if alive >= 2:
            degraded_bw = degraded_lib.all_reduce(
                _BANDWIDTH_PROBE_BYTES, alive
            ).bus_bandwidth

    shed_reasons = shed_reason_counts(requests)
    resilience = ResilienceReport(
        device=device.name,
        model=llama.name,
        tp_degree=config.tp,
        seed=config.seed,
        num_requests=report.num_requests,
        finished_requests=report.finished_requests,
        shed_requests=report.shed_requests,
        failed_requests=report.failed_requests,
        unfinished_requests=report.unfinished_requests,
        retried_requests=report.retried_requests,
        recovered_requests=engine.fault_stats.recovered_requests,
        preemptions=report.preemptions,
        fault_preemptions=engine.fault_stats.fault_preemptions,
        kernel_retries=engine.fault_stats.kernel_retries,
        device_failures=engine.fault_stats.device_failures,
        device_recoveries=engine.fault_stats.device_recoveries,
        total_time=report.total_time,
        total_output_tokens=report.total_output_tokens,
        throughput_tokens_per_s=report.throughput_tokens_per_s,
        goodput_tokens_per_s=goodput,
        slo_violation_rate=violations / len(requests),
        mean_ttft=report.mean_ttft,
        p99_ttft=percentile(ttfts, 99) if ttfts else 0.0,
        mean_tpot=report.mean_tpot,
        alive_devices=injector.alive_devices(),
        healthy_allreduce_bw=healthy_bw,
        degraded_allreduce_bw=degraded_bw,
        shed_reasons=tuple(sorted(shed_reasons.items())),
        fault_log=tuple(event.describe() for event in injector.fired),
    )
    auditor = get_auditor()
    if auditor is not None:
        # The engine audited its own ServingReport; this re-checks the
        # chaos-level aggregation (partition, latency signs, p50<=p99).
        auditor.begin_run("chaos.report").check_report(resilience, ttfts)
    return resilience
