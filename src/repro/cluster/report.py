"""Fleet-level resilience reporting.

A :class:`FleetResilienceReport` partitions the run at two levels that
must never be conflated: the *fleet* ledger counts client-visible
requests (admitted = finished + shed + unfinished), while the
*attempt* ledger counts per-node engine requests (a single fleet
request that failed over twice contributed three attempts).  Shed
reasons are likewise split by scope -- gateway-decided
(``gateway-``-prefixed) vs engine-decided -- via
:func:`repro.faults.report.shed_reason_counts`, so fleet and node
reports never double-count a rejection.

The journal encoding is :func:`repro.core.journal.encode` (exact,
unrounded floats, so a resumed run rebuilds the report
byte-identically); ``to_payload`` is that encoding.  ``to_dict`` is the
display encoding (rounded), and ``render`` is fixed-format -- the same
seed and config always produce the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.journal import encode

__all__ = ["FleetResilienceReport", "NodeReport", "TenantReport"]


@dataclass(frozen=True)
class TenantReport:
    """One tenant's slice of a fleet run's client-visible ledger."""

    name: str
    tier: int
    admitted: int           # requests attributed to this tenant
    finished: int
    shed: int
    quota_shed: int         # shed by the tenant's token bucket
    overload_shed: int      # shed by the CoDel overload response
    unfinished: int
    mean_ttft: float
    p99_ttft: float
    ttft_slo: float         # 0.0 = no SLO configured
    slo_violations: int     # finished requests with TTFT above the SLO


@dataclass(frozen=True)
class NodeReport:
    """One node's contribution to a fleet run."""

    name: str
    node_class: str
    device: str
    final_state: str
    crashes: int
    attempts: int           # attempts routed to this node
    finished: int           # attempts served to completion here
    shed_engine: int        # engine-decided sheds (KV, deadline, ...)
    shed_gateway: int       # gateway cancellations (timeout, lost hedge)
    failed: int             # attempts failed (node crash)
    engine_steps: int
    total_output_tokens: int
    mean_ttft: float
    clock: float            # node engine's final virtual time


@dataclass(frozen=True)
class FleetResilienceReport:
    """Aggregate outcome of one multi-node fleet run."""

    # -- configuration echo --------------------------------------------
    nodes_spec: str
    policy: str
    seed: int
    # -- fleet request ledger (client-visible) -------------------------
    admitted: int
    finished: int
    shed: int
    unfinished: int
    # -- attempt ledger (per-node engine requests) ---------------------
    attempts: int
    attempt_finished: int
    attempt_shed_engine: int
    attempt_shed_gateway: int
    attempt_failed: int
    # -- gateway pipeline ----------------------------------------------
    retries: int
    failovers: int
    timeouts: int
    hedges: int
    hedge_wasted: int
    probes: int
    # -- chaos / autoscale ---------------------------------------------
    node_crashes: int
    scale_ups: int
    scale_downs: int
    # -- service quality -----------------------------------------------
    total_time: float
    total_output_tokens: int
    throughput_tokens_per_s: float
    mean_ttft: float
    p99_ttft: float
    mean_tpot: float
    p99_tpot: float
    shed_reasons_gateway: Tuple[Tuple[str, int], ...] = ()
    shed_reasons_engine: Tuple[Tuple[str, int], ...] = ()
    node_reports: Tuple[NodeReport, ...] = ()
    fault_log: Tuple[str, ...] = field(default=(), repr=False)
    autoscale_log: Tuple[str, ...] = field(default=(), repr=False)
    watchdog_reason: str = ""
    # -- tenants / admission (all default: pre-admission journals) -----
    tenant_reports: Tuple[TenantReport, ...] = ()
    quota_sheds: int = 0
    overload_sheds: int = 0
    brownout_entries: int = 0
    admission_mode_log: Tuple[str, ...] = field(default=(), repr=False)
    # -- circuit breakers ----------------------------------------------
    breaker_opens: int = 0
    breaker_probes: int = 0
    breaker_closes: int = 0
    breaker_short_circuits: int = 0
    # -- rolling upgrades ----------------------------------------------
    upgrades_started: int = 0
    upgrades_completed: int = 0
    upgrade_log: Tuple[str, ...] = field(default=(), repr=False)

    @property
    def watchdog_tripped(self) -> bool:
        return bool(self.watchdog_reason)

    @property
    def completion_rate(self) -> float:
        return self.finished / self.admitted if self.admitted else 0.0

    def to_payload(self) -> Dict[str, object]:
        """The exact journal encoding (:func:`~repro.core.journal.encode`)."""
        return encode(self)

    # -- Report protocol (display encodings) ---------------------------
    def to_dict(self) -> Dict[str, object]:
        payload = self.to_payload()
        for key in ("total_time", "mean_ttft", "p99_ttft"):
            payload[key] = round(float(payload[key]), 9)
        for key in ("mean_tpot", "p99_tpot"):
            payload[key] = round(float(payload[key]), 9)
        payload["throughput_tokens_per_s"] = round(self.throughput_tokens_per_s, 6)
        payload["completion_rate"] = round(self.completion_rate, 6)
        payload["shed_reasons_gateway"] = dict(self.shed_reasons_gateway)
        payload["shed_reasons_engine"] = dict(self.shed_reasons_engine)
        for node in payload["node_reports"]:
            node["mean_ttft"] = round(float(node["mean_ttft"]), 9)
            node["clock"] = round(float(node["clock"]), 9)
        for tenant in payload["tenant_reports"]:
            tenant["mean_ttft"] = round(float(tenant["mean_ttft"]), 9)
            tenant["p99_ttft"] = round(float(tenant["p99_ttft"]), 9)
        return payload

    def to_json(self) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """The report as one CSV row (nested fields JSON-encoded)."""
        from repro.api.report import rows_to_csv

        row = self.to_dict()
        for key in (
            "shed_reasons_gateway", "shed_reasons_engine", "node_reports",
            "fault_log", "autoscale_log", "tenant_reports",
            "admission_mode_log", "upgrade_log",
        ):
            row[key] = json.dumps(row[key], sort_keys=True)
        return rows_to_csv([row])

    def render(self) -> str:
        """Fixed-format text report (byte-identical per seed)."""
        lines: List[str] = []
        lines.append(
            f"Fleet resilience report: {self.nodes_spec} "
            f"(policy={self.policy}, seed={self.seed})"
        )
        lines.append(
            f"  requests   : {self.admitted} admitted | "
            f"{self.finished} finished | {self.shed} shed | "
            f"{self.unfinished} unfinished"
        )
        lines.append(
            f"  attempts   : {self.attempts} dispatched | "
            f"{self.attempt_finished} finished | "
            f"{self.attempt_shed_engine} shed by engines | "
            f"{self.attempt_shed_gateway} cancelled by gateway | "
            f"{self.attempt_failed} failed"
        )
        lines.append(
            f"  pipeline   : {self.retries} retries | {self.failovers} failovers | "
            f"{self.timeouts} timeouts | {self.hedges} hedges "
            f"({self.hedge_wasted} wasted) | {self.probes} probes"
        )
        lines.append(
            f"  chaos      : {self.node_crashes} node crashes | "
            f"{self.scale_ups} scale-ups | {self.scale_downs} scale-downs"
        )
        if self.tenant_reports:
            lines.append(
                f"  admission  : {self.quota_sheds} quota sheds | "
                f"{self.overload_sheds} overload sheds | "
                f"{self.brownout_entries} brownout entries"
            )
        if (
            self.breaker_opens or self.breaker_probes
            or self.breaker_short_circuits
        ):
            lines.append(
                f"  breakers   : {self.breaker_opens} opened | "
                f"{self.breaker_probes} probes | {self.breaker_closes} closed | "
                f"{self.breaker_short_circuits} short-circuits"
            )
        if self.upgrades_started:
            lines.append(
                f"  upgrades   : {self.upgrades_started} started | "
                f"{self.upgrades_completed} completed"
            )
        if self.finished > 0:
            lines.append(
                f"  latency    : mean TTFT {self.mean_ttft:.4f} s | "
                f"p99 TTFT {self.p99_ttft:.4f} s | "
                f"mean TPOT {self.mean_tpot * 1e3:.3f} ms | "
                f"p99 TPOT {self.p99_tpot * 1e3:.3f} ms"
            )
        else:
            lines.append("  latency    : no finished requests")
        lines.append(
            f"  throughput : {self.throughput_tokens_per_s:.2f} tokens/s over "
            f"{self.total_time:.4f} s ({self.total_output_tokens} tokens)"
        )
        if self.shed_reasons_gateway:
            lines.append("  shed (gw)  : " + "; ".join(
                f"{count}x {reason}" for reason, count in self.shed_reasons_gateway
            ))
        if self.shed_reasons_engine:
            lines.append("  shed (eng) : " + "; ".join(
                f"{count}x {reason}" for reason, count in self.shed_reasons_engine
            ))
        for tenant in self.tenant_reports:
            slo = (
                f"SLO {tenant.ttft_slo:g}s ({tenant.slo_violations} violations)"
                if tenant.ttft_slo > 0 else "no SLO"
            )
            latency = (
                f"mean TTFT {tenant.mean_ttft:.4f} s | "
                f"p99 TTFT {tenant.p99_ttft:.4f} s"
                if tenant.finished > 0 else "no finished requests"
            )
            lines.append(
                f"  tenant     : {tenant.name} (tier {tenant.tier}) | "
                f"{tenant.admitted} admitted | {tenant.finished} finished | "
                f"{tenant.shed} shed ({tenant.quota_shed} quota, "
                f"{tenant.overload_shed} overload) | {latency} | {slo}"
            )
        for node in self.node_reports:
            lines.append(
                f"  node       : {node.name} [{node.device}] {node.final_state} | "
                f"{node.attempts} attempts | {node.finished} finished | "
                f"{node.shed_engine}+{node.shed_gateway} shed | "
                f"{node.failed} failed | {node.crashes} crashes | "
                f"{node.engine_steps} steps"
            )
        for entry in self.fault_log:
            lines.append(f"  event      : {entry}")
        for entry in self.autoscale_log:
            lines.append(f"  autoscale  : {entry}")
        for entry in self.admission_mode_log:
            lines.append(f"  admission  : {entry}")
        for entry in self.upgrade_log:
            lines.append(f"  upgrade    : {entry}")
        if self.watchdog_reason:
            lines.append(f"  watchdog   : PARTIAL RESULT ({self.watchdog_reason})")
        return "\n".join(lines)
