"""The fleet event loop: nodes, gateway, chaos, and autoscaling on one
shared virtual clock.

Clock/ownership model (see DESIGN.md for the full discussion):

* The *fleet clock* advances through a deterministic event heap keyed
  ``(time, seq)`` -- arrivals, fault events, health probes, timeouts,
  retry re-dispatches, hedges, autoscale ticks.  It is monotone and
  audited (:meth:`~repro.audit.RunAudit.observe_clock`).
* Each :class:`~repro.cluster.node.Node` owns its engine's clock.
  Before an event is handled, every node that can change is advanced
  *to* the event time; a batch-synchronous engine step that starts at
  or before the horizon runs to completion, so node clocks may overrun
  the fleet clock by up to one step.  Completions inside the overrun
  are *observed* at the next advance -- exactly the smearing a real
  gateway sees polling engines between scheduler ticks.  Only nodes
  with something in their reap outbox (or draining) are reaped, so an
  event costs O(changes), not O(nodes) engine calls.
* The gateway owns logical :class:`~repro.cluster.gateway.FleetRequest`
  state; nodes own per-attempt engine requests.  An attempt never
  outlives its node; a fleet request never belongs to a node.
* The fleet ledger holds only live requests: each ``FleetRequest`` is
  built when its arrival event fires (the next arrival is heaped
  then) and leaves the ledger once it is terminal and every attempt
  has been reaped.  Its outcome is folded into running aggregates as
  it turns terminal, so the ledger's size follows the requests in
  flight, not the trace length.

Determinism: the heap ordering, routing policies, backoff jitter
(seeded, stateless), and synthetic workload are all derived from the
config's seed, so the same ``FleetConfig`` always produces a
byte-identical :class:`~repro.cluster.report.FleetResilienceReport`,
chaos included.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.audit import (
    ConfigError,
    FleetConservationError,
    FleetDrainError,
    FleetRoutingError,
    JournalError,
    WatchdogExceeded,
    get_auditor,
)
from repro.cluster.admission import (
    AdmissionController,
    AdmissionPolicy,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    TenantSpec,
    UpgradePlan,
    bump_counter,
)
from repro.cluster.autoscaler import AutoscalePolicy, Autoscaler
from repro.cluster.faults import NodeFaultEvent, NodeFaultKind, NodeFaultPlan
from repro.cluster.gateway import ROUTING_POLICIES, FleetRequest, Gateway
from repro.cluster.node import Node, NodeClass, NodeState
from repro.cluster.report import FleetResilienceReport, NodeReport, TenantReport
from repro.core.journal import RunJournal, decode, encode
from repro.core.metrics import percentile
from repro.faults.report import GATEWAY_SHED_PREFIX
from repro.hw.backend import GAUDI2, resolve_backend
from repro.serving.engine import ResiliencePolicy
from repro.serving.dataset import dynamic_sonnet_lengths
from repro.serving.loadgen import arrival_times
from repro.serving.request import Request, RequestState, RetryPolicy

__all__ = ["FleetConfig", "MAX_FLEET_NODES", "resume_fleet", "run_fleet"]

#: Most nodes a fleet may start with, over every pool.  Each node is a
#: whole serving engine, so a mistyped count must fail at validation
#: instead of building engines until memory runs out.
MAX_FLEET_NODES = 1024

#: The health states the gateway may route new work to.
_ROUTABLE_STATES = (NodeState.HEALTHY, NodeState.DEGRADED)

#: The avoid set while every breaker is closed.
_NO_AVOID: frozenset = frozenset()


@dataclass
class FleetConfig:
    """One fleet experiment (all knobs surfaced by ``repro fleet``)."""

    #: Heterogeneous pools: ((class name, count), ...); class names are
    #: device names ("gaudi2", "a100") and double as pool names.
    nodes: Tuple[Tuple[str, int], ...] = ((GAUDI2, 2),)
    model: str = "8b"
    tp: int = 8
    max_decode_batch: int = 32
    num_kv_blocks: Optional[int] = None
    num_requests: int = 64
    rate: float = 8.0
    diurnal: bool = False
    diurnal_period: float = 60.0
    seed: int = 0
    policy: str = "round-robin"
    #: Per-attempt gateway timeout in seconds (None = no timeout).
    timeout: Optional[float] = None
    #: Gateway retry/backoff budget (jittered, deterministic).
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(jitter=0.5))
    #: Hedge a second attempt when the first is quiet this long.
    hedge_after: Optional[float] = None
    probe_interval: float = 1.0
    #: RECOVERING -> HEALTHY delay after a crash recovery.
    recovery_warmup: float = 0.5
    #: Engine-level TTFT SLO inside each node (None = gateway-only).
    deadline: Optional[float] = None
    checkpoint_interval: int = 32
    admission_watermark: float = 1.0
    autoscale: Optional[AutoscalePolicy] = None
    #: Multi-tenant traffic classes; empty = the untenanted workload.
    tenants: Tuple[TenantSpec, ...] = ()
    #: Gateway admission control (quotas + fair queueing + overload
    #: response); requires ``tenants``.
    admission: Optional[AdmissionPolicy] = None
    #: Per-node circuit breakers (None = disabled).
    breaker: Optional[BreakerPolicy] = None
    #: Rolling-upgrade drain schedule (None = no upgrade).
    upgrade: Optional[UpgradePlan] = None
    plan: NodeFaultPlan = field(default_factory=NodeFaultPlan)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigError("fleet needs at least one node pool")
        for name, count in self.nodes:
            resolve_backend(name)  # typed error naming registered backends
            if count < 1:
                raise ConfigError(f"pool {name!r} needs count >= 1, got {count}")
        total = sum(count for _, count in self.nodes)
        if total > MAX_FLEET_NODES:
            raise ConfigError(
                f"nodes: {total} nodes exceed the fleet ceiling of {MAX_FLEET_NODES}"
            )
        if self.num_kv_blocks is not None and self.num_kv_blocks < 1:
            raise ConfigError(
                f"num_kv_blocks must be >= 1, got {self.num_kv_blocks}"
            )
        if self.num_requests < 1:
            raise ConfigError(f"num_requests must be >= 1, got {self.num_requests}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.rate > 0:
            raise ConfigError(f"rate must be positive, got {self.rate!r}")
        if not self.diurnal_period > 0:
            raise ConfigError(
                f"diurnal_period must be positive, got {self.diurnal_period!r}"
            )
        if self.policy not in ROUTING_POLICIES:
            raise ConfigError(
                f"unknown routing policy {self.policy!r} (expected one of "
                f"{', '.join(ROUTING_POLICIES)})"
            )
        if self.timeout is not None and not self.timeout > 0:
            raise ConfigError(f"timeout must be positive, got {self.timeout!r}")
        if self.hedge_after is not None and not self.hedge_after > 0:
            raise ConfigError(
                f"hedge_after must be positive, got {self.hedge_after!r}"
            )
        if not self.probe_interval > 0:
            raise ConfigError(
                f"probe_interval must be positive, got {self.probe_interval!r}"
            )
        if not self.recovery_warmup >= 0:
            raise ConfigError(
                f"recovery_warmup must be >= 0, got {self.recovery_warmup!r}"
            )
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names in {sorted(names)}")
        if self.admission is not None and not self.tenants:
            raise ConfigError("admission control requires at least one tenant")

    @property
    def nodes_spec(self) -> str:
        """Display form, e.g. ``"4x gaudi2,2x a100"``."""
        return ",".join(f"{count}x {name}" for name, count in self.nodes)


@dataclass
class _Outcomes:
    """One tenant's terminal fleet requests (or the untenanted fleet's),
    folded as each turns terminal: what the report reads of them."""

    #: Requests drawn for this tenant, arrived or not.
    admitted: int = 0
    output_tokens: int = 0
    #: Client TTFT and TPOT of each finished request, in finish order.
    ttfts: List[float] = field(default_factory=list)
    tpots: List[float] = field(default_factory=list)
    #: Shed-reason category (the reason up to its first ``:``) -> count.
    shed_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def finished(self) -> int:
        return len(self.ttfts)

    @property
    def shed(self) -> int:
        return sum(self.shed_reasons.values())

    def shed_as(self, *prefixes: str) -> int:
        """Sheds whose reason starts with one of ``prefixes`` (none of
        which holds a ``:``, so the category decides)."""
        return sum(
            count for category, count in self.shed_reasons.items()
            if category.startswith(prefixes)
        )

    @classmethod
    def merged(cls, scopes) -> "_Outcomes":
        """The whole fleet's outcomes from its tenants' (samples are
        sorted where they are read, so their order does not matter)."""
        total = cls()
        for scope in scopes:
            total.admitted += scope.admitted
            total.output_tokens += scope.output_tokens
            total.ttfts += scope.ttfts
            total.tpots += scope.tpots
            for category, count in scope.shed_reasons.items():
                total.shed_reasons[category] = total.shed_reasons.get(category, 0) + count
        return total


class _FleetRun:
    """Mutable state of one fleet simulation (one-shot)."""

    def __init__(self, config: FleetConfig, ctx=None) -> None:
        self.config = config
        self.ctx = ctx
        self.tracer = ctx.tracer if ctx is not None else None
        self.metrics = ctx.metrics if ctx is not None else None
        self.auditor = get_auditor()
        self.audit = (
            self.auditor.begin_run("fleet.run") if self.auditor is not None else None
        )
        self.gateway = Gateway(config.policy)
        self.autoscaler = (
            Autoscaler(config.autoscale) if config.autoscale is not None else None
        )
        self.now = 0.0
        self.heap: List[Tuple[float, int, str, object]] = []
        self._seq = 0
        #: The drawn workload, one entry per fleet id (see seed_workload).
        self._input_tokens: List[int] = []
        self._output_tokens: List[int] = []
        self._arrival_times: List[float] = []
        #: Index into ``config.tenants`` per fleet id (empty untenanted).
        self._tenant_of: List[int] = []
        #: Heap sequence number of arrival 0; arrival ``i`` uses ``+ i``.
        self._arrival_seq = 0
        #: Arrival events handled so far.
        self.arrivals = 0
        #: Count of drawn arrival times ``<= now``.
        self._arrived = 0
        #: fleet id -> request, for arrived requests that are not yet
        #: terminal or still have an attempt awaiting its reap.
        self.live: Dict[int, FleetRequest] = {}
        #: attempt id -> (fleet id, node name at dispatch), until reaped.
        self.attempt_map: Dict[int, Tuple[int, str]] = {}
        self.terminal_count = 0
        #: Tenant name ("" untenanted) -> its folded terminal requests.
        self.outcomes: Dict[str, _Outcomes] = {
            spec.name: _Outcomes() for spec in config.tenants
        } or {"": _Outcomes()}
        #: Attempts that finished after their request was already
        #: terminal (hedges that lost the race).
        self.late_finishes = 0
        self.fault_log: List[str] = []
        self.node_crashes = 0
        self.admission = (
            AdmissionController(config.tenants, config.admission)
            if config.admission is not None else None
        )
        #: In-flight attempts per node beyond which the pump holds work.
        self._inflight_limit = config.max_decode_batch
        if config.admission is not None and (
            config.admission.max_inflight_per_node is not None
        ):
            self._inflight_limit = config.admission.max_inflight_per_node
        #: node name -> breaker (empty dict when breakers are off).
        self.breakers: Dict[str, CircuitBreaker] = {}
        #: False once a breaker may have left CLOSED (see _breaker_avoid).
        self._breakers_closed = True
        #: The pump skips its headroom scan while ``now`` is before this
        #: (see _next_headroom); -inf whenever headroom may have appeared.
        self._headroom_at = -math.inf
        self.breaker_short_circuits = 0
        self.upgrades_started = 0
        self.upgrades_completed = 0
        self.upgrade_log: List[str] = []
        self._class_counts: Dict[str, int] = {}
        self._node_classes: Dict[str, NodeClass] = {}
        #: Pool -> (ttft, tpot) samples finished since the last
        #: autoscale evaluation.
        self._slo_window: Dict[str, List[Tuple[float, float]]] = {}
        self._engine_policy = ResiliencePolicy(
            deadline=config.deadline,
            retry=replace(config.retry, jitter=0.0),
            checkpoint_interval=config.checkpoint_interval,
            admission_watermark=config.admission_watermark,
        )
        for name, count in config.nodes:
            node_class = NodeClass(
                name=name,
                device=name,
                model=config.model,
                tp=config.tp,
                max_decode_batch=config.max_decode_batch,
                num_kv_blocks=config.num_kv_blocks,
            )
            self._node_classes[name] = node_class
            self._slo_window[name] = []
            for _ in range(count):
                self._spawn_node(name)
        #: Rolling-upgrade order: the initial fleet, registration order.
        self._upgrade_order: List[str] = list(self.gateway.nodes)
        known = set(self.gateway.nodes)
        for event in config.plan.events:
            if event.node not in known:
                raise ConfigError(
                    f"fault plan targets unknown node {event.node!r} "
                    f"(fleet has {', '.join(sorted(known))})"
                )

    # -- plumbing ------------------------------------------------------
    def push(self, time: float, kind: str, payload: object = None) -> None:
        heapq.heappush(self.heap, (time, self._seq, kind, payload))
        self._seq += 1

    def check(self, condition: bool, error_cls, message: str) -> None:
        if self.auditor is not None:
            self.auditor.check(condition, error_cls, message)

    def _spawn_node(self, class_name: str) -> Node:
        index = self._class_counts.get(class_name, 0)
        self._class_counts[class_name] = index + 1
        node = Node(
            f"{class_name}-{index}",
            self._node_classes[class_name],
            policy=self._engine_policy,
        )
        if self.ctx is not None:
            # Share the fleet RunContext so node engines emit their
            # engine/scheduler/kv/collective/power spans into the same
            # trace; attempt ids are fleet-unique, so async spans pair.
            node.engine.bind_context(self.ctx)
        node.begin()
        self.gateway.register(node)
        self._headroom_at = -math.inf
        if self.config.breaker is not None:
            self.breakers[node.name] = CircuitBreaker(self.config.breaker)
        if self.metrics is not None:
            self.metrics.gauge("fleet.nodes").set(len(self.gateway.nodes))
        return node

    # -- workload ------------------------------------------------------
    def seed_workload(self) -> None:
        """Draw the workload (``dynamic_sonnet_requests`` lengths plus
        ``poisson_arrivals`` or ``diurnal_arrivals`` times with this
        seed) and heap arrival 0; each arrival heaps the next, with the
        sequence number it would have had heaped up front, so the
        ``(time, seq)`` pop order is the same."""
        config = self.config
        count = config.num_requests
        self._input_tokens, self._output_tokens = dynamic_sonnet_lengths(
            count, seed=config.seed
        )
        times = self._arrival_times = arrival_times(
            count, config.rate, seed=config.seed,
            period=config.diurnal_period if config.diurnal else None,
        )
        if config.tenants:
            # Attribute the SAME arrival stream to tenants by weighted
            # share: the arrival process is identical to an untenanted
            # run with this seed, only the labels differ.  String seeds
            # hash through SHA-512 inside random.Random, so the
            # assignment is platform-stable.
            rng = random.Random(f"fleet-tenants/{config.seed}")
            self._tenant_of = rng.choices(
                range(len(config.tenants)),
                weights=[spec.share for spec in config.tenants],
                k=count,
            )
            for index, spec in enumerate(config.tenants):
                self.outcomes[spec.name].admitted = self._tenant_of.count(index)
        else:
            self.outcomes[""].admitted = count
        self._arrival_seq = self._seq
        heapq.heappush(self.heap, (times[0], self._seq, "arrival", 0))
        self._seq += count
        for event in config.plan.scheduled():
            self.push(event.time, "fault", event)
        self.push(config.probe_interval, "probe")
        if self.autoscaler is not None:
            self.push(config.autoscale.evaluate_interval, "autoscale")
        if self.admission is not None:
            self.push(config.admission.evaluate_interval, "admission")
        if config.upgrade is not None:
            self.push(config.upgrade.start, "upgrade", 0)

    # -- node advancement / reconciliation -----------------------------
    def advance_nodes(self, horizon: float) -> None:
        for node in self.gateway.nodes.values():
            node.advance_to(horizon)

    def reconcile(self) -> None:
        """Fold newly terminal attempts into the fleet ledger.  A node
        with an empty outbox has nothing to reap unless it is draining
        (it may retire once idle).  Only a provision event adds nodes,
        so the pool dict is iterated in place."""
        for node in self.gateway.nodes.values():
            if node.outbox or node.draining:
                done = node.reap()
                if done:
                    self._headroom_at = -math.inf
                for attempt in done:
                    self._observe_attempt(node, attempt)
        if self.auditor is not None:
            for node in self.gateway.nodes.values():
                self.auditor.check_reaped(
                    node.name, node.inflight.values(), node.outbox
                )
        if self.admission is not None:
            self.pump()
        if self.tracer is not None:
            inflight = self.admitted_so_far - self.terminal_count
            self.tracer.counter("fleet.inflight", self.now, inflight)

    @property
    def admitted_so_far(self) -> int:
        """Requests with ``arrival_time <= now``.  The drawn times are
        in arrival order and ``now`` never decreases, so the count is a
        cursor advanced in place (amortized O(1) per call)."""
        times = self._arrival_times
        arrived = self._arrived
        while arrived < len(times) and times[arrived] <= self.now:
            arrived += 1
        self._arrived = arrived
        return arrived

    def _release(self, fleet_request: FleetRequest) -> None:
        """Drop a terminal request from the ledger once no attempt of
        it awaits a reap (its outcome is already folded)."""
        if not fleet_request.attempts and fleet_request.terminal:
            self.live.pop(fleet_request.fleet_id, None)

    def _observe_attempt(self, node: Node, attempt: Request) -> None:
        fleet_id, _ = self.attempt_map.pop(attempt.request_id)
        fleet_request = self.live.get(fleet_id)
        if fleet_request is None:
            # A request leaves the ledger only once every attempt of
            # it is reaped, so a reaped attempt always finds its own.
            self.check(
                False, FleetConservationError,
                f"attempt {attempt.request_id} outlived fleet request {fleet_id}",
            )
            return
        fleet_request.attempts.remove(attempt)
        if self.tracer is not None:
            end = attempt.finish_time if attempt.finish_time is not None else self.now
            self.tracer.record(
                "attempt", node.name, attempt.arrival_time, max(end, attempt.arrival_time),
                fleet_id=fleet_id, attempt_id=attempt.request_id,
                outcome=attempt.state.value,
            )
        if attempt.state is RequestState.FINISHED:
            if not fleet_request.terminal:
                self.finish_request(fleet_request, node, attempt)
            else:
                # A hedge sibling finished after the winner (or after
                # its request was shed): wasted speculation, not a
                # double-serve -- the client saw at most one completion.
                # Anything else finishing twice is a bug.
                self.check(
                    fleet_request.hedged,
                    FleetConservationError,
                    f"fleet request {fleet_id} completed twice without hedging",
                )
                self.gateway.stats.hedge_wasted += 1
                self.late_finishes += 1
        elif attempt.state is RequestState.FAILED:
            # Node crash killed the attempt: fail over immediately.
            self._breaker_failure(node.name)
            if not fleet_request.terminal:
                self.gateway.stats.failovers += 1
                self.dispatch(fleet_request, self.now)
        else:  # SHED
            reason = attempt.shed_reason or ""
            # A gateway cancellation needs nothing: the pipeline already
            # moved on.  An engine-decided shed (KV exhaustion, engine
            # deadline) retries elsewhere with backoff, or gives up.
            if not reason.startswith(GATEWAY_SHED_PREFIX) and not fleet_request.terminal:
                self.retry_or_shed(
                    fleet_request,
                    self.now,
                    f"{GATEWAY_SHED_PREFIX}retry-exhausted: engine shed "
                    f"({reason.split(':', 1)[0]})",
                )
        self._release(fleet_request)

    # -- pipeline ------------------------------------------------------
    def _breaker_failure(self, node_name: str) -> None:
        """Count a timeout or failure against the node's breaker."""
        breaker = self.breakers.get(node_name)
        if breaker is not None:
            breaker.record_failure(self.now)
            if breaker.state is not BreakerState.CLOSED:
                self._breakers_closed = False

    def _breaker_avoid(self, now: float) -> frozenset:
        """Nodes whose breakers currently refuse new dispatches.  Only a
        failure moves a breaker off CLOSED, so until one does (and again
        once all are back) no breaker is asked."""
        if self._breakers_closed:
            return _NO_AVOID
        if all(
            breaker.state is BreakerState.CLOSED for breaker in self.breakers.values()
        ):
            self._breakers_closed = True
            return _NO_AVOID
        return frozenset(
            name for name, breaker in self.breakers.items()
            if breaker.blocked(now)
        )

    @property
    def _brownout_active(self) -> bool:
        return self.admission is not None and self.admission.brownout_active

    def _next_headroom(self) -> float:
        """When some routable node under the admission policy's in-flight
        limit may take a dispatch: ``-inf`` when one can now, else the
        earliest time an open breaker gating such a node reopens
        (``inf`` if none does).  Breakers are consulted only for nodes
        with headroom (``blocked`` is a pure query)."""
        now = self.now
        limit = self._inflight_limit
        at = math.inf
        breakers = self.breakers
        for node in self.gateway.nodes.values():
            if node.routable and len(node.inflight) < limit:
                breaker = breakers.get(node.name)
                if breaker is None or not breaker.blocked(now):
                    return -math.inf
                if breaker.state is BreakerState.OPEN:
                    at = min(at, breaker.opened_at + breaker.policy.cooldown)
        return at

    def pump(self) -> None:
        """Dispatch fair-queued arrivals while gateway headroom exists.

        The admission queue drains in WFQ order; the pump stops once no
        breaker-closed routable node has in-flight headroom, so queued
        work waits at the gateway (where it can be overload-shed)
        instead of piling onto saturated engines.  A scan that finds no
        headroom holds until something can create it: a reap that
        removed attempts, a node turning routable or provisioned (each
        resets ``_headroom_at``), or the reopen time of an open breaker
        that gated a node with headroom.  A half-open breaker's probe
        resolves only with a reap, and every other breaker move blocks
        more, not less.
        """
        controller = self.admission
        if controller is None or not controller.wfq.size:
            return
        if self.now < self._headroom_at:
            if self.auditor is not None:
                self.auditor.check(
                    self._next_headroom() > self.now,
                    FleetRoutingError,
                    f"the pump skipped its headroom scan at t={self.now!r} "
                    "with headroom available",
                )
            return
        wfq = controller.wfq
        while wfq.size:
            at = self._next_headroom()
            if at > self.now:
                self._headroom_at = at
                return  # no headroom anywhere
            entry = controller.pop_dispatchable()
            if entry is None:
                break
            fleet_request = self.live.get(entry.fleet_id)
            if fleet_request is None or fleet_request.terminal:
                continue
            self.dispatch(fleet_request, self.now)

    def dispatch(self, fleet_request: FleetRequest, now: float) -> None:
        """Route one attempt, or enter the retry/shed path."""
        if fleet_request.terminal:
            return
        avoid = self._breaker_avoid(now)
        node = self.gateway.pick(exclude=fleet_request.tried_nodes, avoid=avoid)
        if node is None:
            if avoid and any(
                self.gateway.nodes[name].routable for name in avoid
            ):
                # Breakers, not health, blocked the route.
                self.breaker_short_circuits += 1
                bump_counter("breaker_short_circuits")
            self.retry_or_shed(
                fleet_request, now,
                f"{GATEWAY_SHED_PREFIX}no-healthy-node: retry budget "
                "exhausted with no routable node",
            )
            return
        if self.auditor is not None:
            # Re-derive routability from the health flags: the stored
            # bit is what routing read, the flags are the truth.
            state = node.state
            self.auditor.check(
                node.routable and state in _ROUTABLE_STATES,
                FleetRoutingError,
                f"policy {self.gateway.policy!r} picked unroutable node "
                f"{node.name} ({state.value}) for request {fleet_request.fleet_id}",
            )
        breaker = self.breakers.get(node.name)
        if breaker is not None:
            breaker.on_dispatch(now)
        max_new_tokens = (
            self.admission.policy.brownout_max_new_tokens
            if self._brownout_active else None
        )
        attempt = self.gateway.dispatch(
            fleet_request, node, now, max_new_tokens=max_new_tokens
        )
        self.attempt_map[attempt.request_id] = (fleet_request.fleet_id, node.name)
        if self.metrics is not None:
            self.metrics.counter("fleet.dispatches").inc()
        if self.config.timeout is not None:
            self.push(
                now + self.config.timeout, "timeout",
                (fleet_request.fleet_id, attempt.request_id),
            )
        if (
            self.config.hedge_after is not None
            and not fleet_request.hedged
            and not self._brownout_active  # brownout disables speculation
        ):
            self.push(
                now + self.config.hedge_after, "hedge",
                (fleet_request.fleet_id, attempt.request_id),
            )

    def retry_or_shed(
        self, fleet_request: FleetRequest, now: float, shed_reason: str
    ) -> None:
        """Jittered-backoff retry while budget remains, else shed."""
        retry = self.config.retry
        if fleet_request.retries < retry.max_retries:
            delay = retry.backoff(fleet_request.retries, token=fleet_request.fleet_id)
            fleet_request.retries += 1
            self.gateway.stats.retries += 1
            if self.metrics is not None:
                self.metrics.counter("fleet.retries").inc()
            self.push(now + delay, "dispatch", fleet_request.fleet_id)
            return
        self._shed(fleet_request, shed_reason)

    def _shed(self, fleet_request: FleetRequest, reason: str) -> None:
        fleet_request.shed(reason)
        self.terminal_count += 1
        counts = self.outcomes[fleet_request.tenant].shed_reasons
        category = reason.partition(":")[0]
        counts[category] = counts.get(category, 0) + 1
        self._release(fleet_request)
        if self.tracer is not None:
            self.tracer.async_end(
                f"fleet-request-{fleet_request.fleet_id}", "fleet", self.now,
                fleet_request.fleet_id, state="shed", reason=reason,
            )
        if self.metrics is not None:
            self.metrics.counter("fleet.sheds").inc()

    # -- event handlers (each takes its event's payload) ---------------
    def handle_arrival(self, fleet_id: int) -> None:
        times = self._arrival_times
        input_tokens = self._input_tokens[fleet_id]
        output_tokens = self._output_tokens[fleet_id]
        tenants = self.config.tenants
        if tenants:
            spec = tenants[self._tenant_of[fleet_id]]
            fleet_request = FleetRequest(
                fleet_id, input_tokens, output_tokens, times[fleet_id],
                spec.name, spec.tier, spec.ttft_slo,
            )
        else:
            fleet_request = FleetRequest(
                fleet_id, input_tokens, output_tokens, times[fleet_id]
            )
        self.live[fleet_id] = fleet_request
        self.arrivals += 1
        next_id = fleet_id + 1
        if next_id < len(times):
            heapq.heappush(
                self.heap,
                (times[next_id], self._arrival_seq + next_id, "arrival", next_id),
            )
        if self.tracer is not None:
            self.tracer.async_begin(
                f"fleet-request-{fleet_id}", "fleet", self.now, fleet_id,
                prompt_tokens=fleet_request.input_tokens,
            )
        if self.admission is None:
            self.dispatch(fleet_request, self.now)
            return
        reason = self.admission.offer(fleet_id, fleet_request.tenant, self.now)
        if reason is not None:
            self._shed(fleet_request, GATEWAY_SHED_PREFIX + reason)
            return
        self.pump()

    def handle_dispatch(self, fleet_id: int) -> None:
        fleet_request = self.live.get(fleet_id)
        if fleet_request is not None:
            self.dispatch(fleet_request, self.now)

    def handle_timeout(self, ids: Tuple[int, int]) -> None:
        fleet_id, attempt_id = ids
        fleet_request = self.live.get(fleet_id)
        if fleet_request is None or fleet_request.terminal:
            return
        attempt = next(
            (a for a in fleet_request.attempts if a.request_id == attempt_id), None
        )
        # The timeout covers queue time too, so WAITING attempts are
        # cancelled just like RUNNING ones; terminal ones already got
        # handled by other machinery.
        if attempt is None or attempt.state not in (
            RequestState.WAITING, RequestState.RUNNING
        ):
            return
        _, node_name = self.attempt_map[attempt_id]
        node = self.gateway.nodes[node_name]
        timeout = self.config.timeout
        if not node.cancel(
            attempt, f"{GATEWAY_SHED_PREFIX}timeout: no completion within {timeout:g}s"
        ):
            return  # completion outran the cancel inside the last step
        self.gateway.stats.timeouts += 1
        self._breaker_failure(node_name)
        if self.metrics is not None:
            self.metrics.counter("fleet.timeouts").inc()
        self.retry_or_shed(
            fleet_request, self.now,
            f"{GATEWAY_SHED_PREFIX}timeout: retry budget exhausted",
        )

    def handle_hedge(self, ids: Tuple[int, int]) -> None:
        fleet_id, attempt_id = ids
        fleet_request = self.live.get(fleet_id)
        if fleet_request is None or fleet_request.terminal or fleet_request.hedged:
            return
        attempt = next(
            (a for a in fleet_request.attempts if a.request_id == attempt_id), None
        )
        if attempt is None or attempt.state not in (
            RequestState.WAITING, RequestState.RUNNING
        ):
            return
        # Fleet nodes skip the engine's exit sync of runner progress;
        # copy it onto the attempt before reading its first token.
        self.gateway.nodes[self.attempt_map[attempt_id][1]].engine.sync_live()
        if attempt.first_token_time is not None:
            return  # already streaming; no point hedging
        if self._brownout_active:
            return  # brownout: no speculative load on a saturated fleet
        # require_untried: hedging onto an already-tried node buys
        # nothing, and an abandoned hedge must not advance the
        # round-robin cursor (that perturbed routing for later requests).
        node = self.gateway.pick(
            exclude=fleet_request.tried_nodes,
            avoid=self._breaker_avoid(self.now),
            require_untried=True,
        )
        if node is None:
            return
        fleet_request.hedged = True
        self.gateway.stats.hedges += 1
        if self.metrics is not None:
            self.metrics.counter("fleet.hedges").inc()
        breaker = self.breakers.get(node.name)
        if breaker is not None:
            breaker.on_dispatch(self.now)
        hedge_attempt = self.gateway.dispatch(fleet_request, node, self.now)
        self.attempt_map[hedge_attempt.request_id] = (fleet_id, node.name)
        if self.config.timeout is not None:
            self.push(
                self.now + self.config.timeout, "timeout",
                (fleet_id, hedge_attempt.request_id),
            )

    def handle_fault(self, event: NodeFaultEvent) -> None:
        node = self.gateway.nodes[event.node]
        self.fault_log.append(event.describe())
        if self.tracer is not None:
            self.tracer.instant(
                f"node.{event.kind.value}", "fleet", self.now, node=event.node
            )
        kind = event.kind
        if kind is NodeFaultKind.NODE_CRASH:
            self.node_crashes += 1
            victims = node.crash()
            if self.metrics is not None:
                self.metrics.counter("fleet.node_crashes").inc()
            for attempt in victims:
                self._observe_attempt(node, attempt)
        elif kind is NodeFaultKind.NODE_RECOVER:
            node.begin_recovery()
            self.push(self.now + self.config.recovery_warmup, "warm", event.node)
        elif kind is NodeFaultKind.BROWNOUT:
            node.set_brownout(event.factor)
        elif kind is NodeFaultKind.BROWNOUT_CLEAR:
            node.clear_brownout()
        elif kind is NodeFaultKind.FABRIC_DEGRADE:
            node.degrade_fabric(event.factor)
        elif kind is NodeFaultKind.FABRIC_RESTORE:
            node.restore_fabric()
        elif kind is NodeFaultKind.BLIP:
            node.set_blip(True)
        elif kind is NodeFaultKind.BLIP_CLEAR:
            node.set_blip(False)
            self._headroom_at = -math.inf

    def handle_warm(self, node_name: str) -> None:
        self.gateway.nodes[node_name].warm()
        self._headroom_at = -math.inf

    def handle_probe(self, _payload: None) -> None:
        states = self.gateway.probe()
        healthy = sum(1 for state in states.values() if state == "healthy")
        if self.tracer is not None:
            self.tracer.counter("fleet.healthy_nodes", self.now, healthy)
        if self.metrics is not None:
            self.metrics.gauge("fleet.healthy_nodes").set(healthy)
        if self.terminal_count < self.config.num_requests:
            self.push(self.now + self.config.probe_interval, "probe")

    def handle_autoscale(self, _payload: None) -> None:
        scaler = self.autoscaler
        for pool, node_class in self._node_classes.items():
            live = [
                node for node in self.gateway.nodes.values()
                if node.node_class.name == pool
                and not node.retired and not node.draining
            ]
            window = self._slo_window[pool]
            action = scaler.evaluate(
                pool, self.now, len(live),
                [ttft for ttft, _ in window], [tpot for _, tpot in window],
            )
            self._slo_window[pool] = []
            if action == "up":
                self.push(
                    self.now + scaler.policy.provision_delay, "provision", pool
                )
            elif action == "down":
                routable = [node for node in live if node.routable]
                if routable:
                    victim = max(routable, key=lambda node: node.name)
                    victim.drain()
                    if self.tracer is not None:
                        self.tracer.instant(
                            "node.drain", "fleet", self.now, node=victim.name
                        )
        if self.terminal_count < self.config.num_requests:
            self.push(
                self.now + scaler.policy.evaluate_interval, "autoscale"
            )

    def handle_provision(self, pool: str) -> None:
        node = self._spawn_node(pool)
        if self.tracer is not None:
            self.tracer.instant("node.provision", "fleet", self.now, node=node.name)

    def handle_admission(self, _payload: None) -> None:
        """Deterministic CoDel tick: move the overload state machine
        and shed what it condemns."""
        controller = self.admission
        for entry, reason in controller.evaluate(self.now):
            fleet_request = self.live.get(entry.fleet_id)
            if fleet_request is not None and not fleet_request.terminal:
                self._shed(fleet_request, GATEWAY_SHED_PREFIX + reason)
        self.pump()
        if self.terminal_count < self.config.num_requests:
            self.push(
                self.now + controller.policy.evaluate_interval, "admission"
            )

    # -- rolling upgrades ----------------------------------------------
    def handle_upgrade(self, index: int) -> None:
        """Start draining the next upgradable node (one at a time)."""
        order = self._upgrade_order
        while index < len(order):
            node = self.gateway.nodes[order[index]]
            if node.dead or node.retired or node.draining:
                self.upgrade_log.append(
                    f"t={self.now:g} skip {node.name} ({node.state.value})"
                )
                index += 1
                continue
            break
        if index >= len(order):
            return  # every node upgraded (or skipped)
        node = self.gateway.nodes[order[index]]
        node.start_upgrade_drain()
        self.upgrades_started += 1
        bump_counter("upgrade_drains")
        self.upgrade_log.append(f"t={self.now:g} drain {node.name}")
        if self.tracer is not None:
            self.tracer.instant("node.upgrade_drain", "fleet", self.now, node=node.name)
        self.push(self.now + self.config.upgrade.poll_interval, "upgrade_poll", index)

    def handle_upgrade_poll(self, index: int) -> None:
        node = self.gateway.nodes[self._upgrade_order[index]]
        if node.dead:
            # Chaos beat the upgrade to it; the crash path already
            # failed its work over.  Move on to the next node.
            self.upgrade_log.append(f"t={self.now:g} abort {node.name} (crashed)")
            self.upgrades_completed += 1
            self.push(self.now, "upgrade", index + 1)
            return
        if not node.drained:
            self.push(
                self.now + self.config.upgrade.poll_interval, "upgrade_poll", index
            )
            return
        # Zero-loss gate: restarting with work in flight would lose it.
        self.check(
            not node.inflight and not node.engine.has_unfinished,
            FleetDrainError,
            f"node {node.name} entered its upgrade restart with "
            f"{len(node.inflight)} attempts in flight",
        )
        node.begin_upgrade_restart()
        self.upgrade_log.append(f"t={self.now:g} restart {node.name}")
        self.push(
            self.now + self.config.upgrade.restart_delay, "upgrade_rejoin", index
        )

    def handle_upgrade_rejoin(self, index: int) -> None:
        node = self.gateway.nodes[self._upgrade_order[index]]
        node.finish_upgrade()
        self._headroom_at = -math.inf
        self.upgrades_completed += 1
        self.upgrade_log.append(f"t={self.now:g} rejoin {node.name}")
        if self.tracer is not None:
            self.tracer.instant("node.upgrade_done", "fleet", self.now, node=node.name)
        self.pump()
        self.push(self.now, "upgrade", index + 1)

    # -- completion ----------------------------------------------------
    def finish_request(
        self, fleet_request: FleetRequest, node: Node, attempt: Request
    ) -> None:
        fleet_request.finish(attempt)
        self.terminal_count += 1
        ttft, tpot = fleet_request.ttft, fleet_request.tpot
        outcomes = self.outcomes[fleet_request.tenant]
        outcomes.ttfts.append(ttft)
        outcomes.tpots.append(tpot)
        outcomes.output_tokens += attempt.output_tokens
        breaker = self.breakers.get(node.name)
        if breaker is not None:
            breaker.record_success()
        node.observe_latency(attempt.first_token_time - attempt.arrival_time)
        if self.autoscaler is not None:
            self._slo_window[node.node_class.name].append((ttft, tpot))
        # A finished winner makes every other live attempt moot.
        for sibling in fleet_request.attempts:
            if sibling is attempt or sibling.state not in (
                RequestState.WAITING, RequestState.RUNNING
            ):
                continue
            _, sibling_node = self.attempt_map[sibling.request_id]
            if self.gateway.nodes[sibling_node].cancel(
                sibling, f"{GATEWAY_SHED_PREFIX}hedge-lost: sibling finished first"
            ):
                self.gateway.stats.hedge_wasted += 1
        if self.tracer is not None:
            self.tracer.async_end(
                f"fleet-request-{fleet_request.fleet_id}", "fleet", self.now,
                fleet_request.fleet_id, state="finished", node=node.name,
            )
        if self.metrics is not None:
            self.metrics.counter("fleet.finished").inc()
            self.metrics.histogram("fleet.ttft").observe(ttft)
            self.metrics.histogram("fleet.tpot").observe(tpot)

    # -- main loop -----------------------------------------------------
    def run(self) -> str:
        """Drive the event heap to quiescence; returns the watchdog
        reason ("" for a complete run)."""
        handlers = {
            "arrival": self.handle_arrival,
            "dispatch": self.handle_dispatch,
            "timeout": self.handle_timeout,
            "hedge": self.handle_hedge,
            "fault": self.handle_fault,
            "warm": self.handle_warm,
            "probe": self.handle_probe,
            "autoscale": self.handle_autoscale,
            "provision": self.handle_provision,
            "admission": self.handle_admission,
            "upgrade": self.handle_upgrade,
            "upgrade_poll": self.handle_upgrade_poll,
            "upgrade_rejoin": self.handle_upgrade_rejoin,
        }
        try:
            while True:
                if self.heap:
                    time, _, kind, payload = heapq.heappop(self.heap)
                    self.advance_nodes(time)
                    if time > self.now:
                        self.now = time
                    if self.audit is not None:
                        self.audit.observe_clock(self.now)
                    self.reconcile()
                    handlers[kind](payload)
                else:
                    if not any(
                        node.engine.has_unfinished
                        for node in self.gateway.nodes.values()
                        if not node.dead
                    ):
                        break
                    self.advance_nodes(math.inf)
                    self.now = max(
                        [self.now]
                        + [node.engine.now for node in self.gateway.nodes.values()]
                    )
                    if self.audit is not None:
                        self.audit.observe_clock(self.now)
                    self.reconcile()
        except WatchdogExceeded as error:
            return str(error)
        return ""

    # -- report --------------------------------------------------------
    def build_report(self, watchdog_reason: str) -> FleetResilienceReport:
        config = self.config
        outcomes = _Outcomes.merged(self.outcomes.values())
        admitted, finished, shed = outcomes.admitted, outcomes.finished, outcomes.shed
        unfinished = admitted - finished - shed
        ttfts = sorted(outcomes.ttfts)
        tpots = sorted(outcomes.tpots)
        node_reports: List[NodeReport] = []
        attempt_finished = attempt_shed_engine = attempt_shed_gateway = 0
        attempt_failed = 0
        engine_shed_reasons: Dict[str, int] = {}
        for node in self.gateway.nodes.values():
            serving = node.finish(watchdog_reason)
            attempts = node.engine.requests
            node_shed_gateway = node_shed_engine = 0
            for attempt in attempts:
                if attempt.state is RequestState.SHED:
                    reason = attempt.shed_reason or ""
                    if reason.startswith(GATEWAY_SHED_PREFIX):
                        node_shed_gateway += 1
                    else:
                        node_shed_engine += 1
                        category = reason.split(":", 1)[0]
                        engine_shed_reasons[category] = (
                            engine_shed_reasons.get(category, 0) + 1
                        )
            attempt_finished += serving.finished_requests
            attempt_shed_engine += node_shed_engine
            attempt_shed_gateway += node_shed_gateway
            attempt_failed += serving.failed_requests
            node_reports.append(NodeReport(
                name=node.name,
                node_class=node.node_class.name,
                device=serving.device,
                final_state=node.state.value,
                crashes=node.crashes,
                attempts=node.attempts_fed,
                finished=serving.finished_requests,
                shed_engine=node_shed_engine,
                shed_gateway=node_shed_gateway,
                failed=serving.failed_requests,
                engine_steps=serving.engine_steps,
                total_output_tokens=serving.total_output_tokens,
                mean_ttft=serving.mean_ttft,
                clock=node.engine.now,
            ))
        tenant_reports: List[TenantReport] = []
        for spec in config.tenants:
            mine = self.outcomes[spec.name]
            tenant_ttfts = sorted(mine.ttfts)
            tenant_reports.append(TenantReport(
                name=spec.name,
                tier=spec.tier,
                admitted=mine.admitted,
                finished=mine.finished,
                shed=mine.shed,
                quota_shed=mine.shed_as(f"{GATEWAY_SHED_PREFIX}quota"),
                overload_shed=mine.shed_as(
                    f"{GATEWAY_SHED_PREFIX}overload",
                    f"{GATEWAY_SHED_PREFIX}admission-timeout",
                ),
                unfinished=mine.admitted - mine.finished - mine.shed,
                mean_ttft=(
                    sum(tenant_ttfts) / len(tenant_ttfts) if tenant_ttfts else 0.0
                ),
                p99_ttft=percentile(tenant_ttfts, 99) if tenant_ttfts else 0.0,
                ttft_slo=spec.ttft_slo if spec.ttft_slo is not None else 0.0,
                slo_violations=(
                    sum(1 for ttft in tenant_ttfts if ttft > spec.ttft_slo)
                    if spec.ttft_slo is not None else 0
                ),
            ))
        total_tokens = outcomes.output_tokens
        total_time = self.now
        stats = self.gateway.stats
        report = FleetResilienceReport(
            nodes_spec=config.nodes_spec,
            policy=config.policy,
            seed=config.seed,
            admitted=admitted,
            finished=finished,
            shed=shed,
            unfinished=unfinished,
            attempts=stats.dispatches,
            attempt_finished=attempt_finished,
            attempt_shed_engine=attempt_shed_engine,
            attempt_shed_gateway=attempt_shed_gateway,
            attempt_failed=attempt_failed,
            retries=stats.retries,
            failovers=stats.failovers,
            timeouts=stats.timeouts,
            hedges=stats.hedges,
            hedge_wasted=stats.hedge_wasted,
            probes=stats.probes,
            node_crashes=self.node_crashes,
            scale_ups=self.autoscaler.scale_ups if self.autoscaler else 0,
            scale_downs=self.autoscaler.scale_downs if self.autoscaler else 0,
            total_time=total_time,
            total_output_tokens=total_tokens,
            throughput_tokens_per_s=(
                total_tokens / total_time if total_time > 0 else 0.0
            ),
            mean_ttft=sum(ttfts) / len(ttfts) if ttfts else 0.0,
            p99_ttft=percentile(ttfts, 99) if ttfts else 0.0,
            mean_tpot=sum(tpots) / len(tpots) if tpots else 0.0,
            p99_tpot=percentile(tpots, 99) if tpots else 0.0,
            shed_reasons_gateway=tuple(sorted(outcomes.shed_reasons.items())),
            shed_reasons_engine=tuple(sorted(engine_shed_reasons.items())),
            node_reports=tuple(node_reports),
            fault_log=tuple(self.fault_log),
            autoscale_log=tuple(self.autoscaler.log) if self.autoscaler else (),
            watchdog_reason=watchdog_reason,
            tenant_reports=tuple(tenant_reports),
            quota_sheds=self.admission.quota_denied if self.admission else 0,
            overload_sheds=self.admission.overload_sheds if self.admission else 0,
            brownout_entries=(
                self.admission.brownout_entries if self.admission else 0
            ),
            admission_mode_log=(
                tuple(self.admission.mode_log) if self.admission else ()
            ),
            breaker_opens=sum(b.opens for b in self.breakers.values()),
            breaker_probes=sum(b.probes for b in self.breakers.values()),
            breaker_closes=sum(b.closes for b in self.breakers.values()),
            breaker_short_circuits=self.breaker_short_circuits,
            upgrades_started=self.upgrades_started,
            upgrades_completed=self.upgrades_completed,
            upgrade_log=tuple(self.upgrade_log),
        )
        # Fleet invariants: every arrived request is finished, shed or
        # still in the ledger, which lists every unreaped attempt;
        # attempts partitioned.
        pending = sum(1 for r in self.live.values() if not r.terminal)
        self.check(
            finished + shed + pending == self.arrivals,
            FleetConservationError,
            f"fleet ledger does not partition: {finished} finished + "
            f"{shed} shed + {pending} in flight != {self.arrivals} arrived",
        )
        if not watchdog_reason:
            self.check(
                unfinished == 0,
                FleetConservationError,
                f"{unfinished} fleet requests still in flight after a "
                "complete (non-watchdog) run",
            )
        unreaped = sum(len(r.attempts) for r in self.live.values())
        self.check(
            len(self.attempt_map) == unreaped,
            FleetConservationError,
            f"{len(self.attempt_map)} attempts await a reap but the ledger's "
            f"requests list {unreaped}",
        )
        live_attempts = stats.dispatches - attempt_finished - attempt_shed_engine \
            - attempt_shed_gateway - attempt_failed
        # A hedge may finish after its request already finished -- or
        # was shed while the hedge still ran (a shed request has no
        # winner); either way the client saw at most one completion.
        self.check(
            attempt_finished == finished + self.late_finishes,
            FleetConservationError,
            f"attempt ledger double-serves: {attempt_finished} attempts "
            f"finished but only {finished} fleet requests finished "
            f"(+{self.late_finishes} late hedge finishes)",
        )
        if not watchdog_reason:
            self.check(
                live_attempts == 0,
                FleetConservationError,
                f"{live_attempts} attempts unaccounted for at end of run",
            )
        if config.tenants:
            self.check(
                sum(t.admitted for t in tenant_reports) == admitted,
                FleetConservationError,
                "tenant ledgers do not partition the fleet workload",
            )
            self.check(
                not any(
                    spec.tier == 0 and self.outcomes[spec.name].shed_as(
                        f"{GATEWAY_SHED_PREFIX}overload"
                    )
                    for spec in config.tenants
                ),
                FleetConservationError,
                "overload shedding dropped tier-0 (premium) work",
            )
        if config.upgrade is not None and not watchdog_reason:
            self.check(
                self.upgrades_started == self.upgrades_completed,
                FleetDrainError,
                f"rolling upgrade incomplete: {self.upgrades_started} drains "
                f"started but only {self.upgrades_completed} completed",
            )
            self.check(
                unfinished == 0,
                FleetDrainError,
                f"rolling upgrade lost work: {unfinished} fleet requests "
                "neither finished nor shed after the drain schedule",
            )
        if self.tracer is not None:
            self.tracer.instant(
                "fleet.done", "fleet", self.now,
                finished=finished, shed=shed,
            )
        if self.audit is not None:
            self.audit.observe_clock(self.now)
        return report


def run_fleet(
    config: FleetConfig, journal=None, ctx=None
) -> FleetResilienceReport:
    """Run one multi-node fleet-resilience experiment end to end.

    With ``journal`` set (a :class:`~repro.core.journal.RunJournal` or
    a path), the run's config is pinned in the journal header, each
    node's report is appended node-tagged as the run closes, and the
    fleet report itself is the final point -- ``repro resume`` on the
    run directory then rebuilds the byte-identical report without
    recomputing (or re-runs deterministically if the run died before
    the final point landed).  With a :class:`~repro.api.RunContext`
    passed as ``ctx``, the run emits node-tagged spans, fleet counters,
    and per-request async events through its tracer/metrics.
    """
    if journal is not None:
        if not isinstance(journal, RunJournal):
            journal = RunJournal(journal)
        journal.write_header({"tool": "fleet", "config": encode(config)})
        done = journal.completed_keys().get("fleet")
        if done is not None:
            return decode(FleetResilienceReport, done)
    run = _FleetRun(config, ctx=ctx)
    run.seed_workload()
    watchdog_reason = run.run()
    report = run.build_report(watchdog_reason)
    if journal is not None:
        for node_report in report.node_reports:
            journal.append(f"node-{node_report.name}", encode(node_report))
        journal.append("fleet", encode(report))
    return report


def resume_fleet(run_dir) -> FleetResilienceReport:
    """Rebuild (or deterministically re-run) a journaled fleet run."""
    journal = RunJournal(run_dir)
    header = journal.load_header()
    if header is None:
        raise JournalError(f"no readable journal header under {journal.path}")
    if header.get("tool") != "fleet":
        raise JournalError(
            f"journal {journal.path} was written by tool "
            f"{header.get('tool')!r}, not a fleet run"
        )
    config = decode(FleetConfig, header.get("config"))
    return run_fleet(config, journal=journal)
