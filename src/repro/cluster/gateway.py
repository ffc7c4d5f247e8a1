"""Fleet gateway: health-checked routing and the resilience pipeline.

The gateway owns the *logical* request ledger.  A
:class:`FleetRequest` is the client-visible unit; every dispatch clones
it into a fresh per-attempt engine
:class:`~repro.serving.request.Request` (attempt ids are fleet-unique),
so node-local restarts, sheds, and failures never mutate the logical
request's identity, and a request that fails over is *re-attempted*,
never re-served: the first attempt to finish wins, and every other
outstanding attempt is cancelled.

Routing policies (``round-robin``, ``least-loaded``,
``latency-aware``) only ever see *routable* nodes -- never DEAD,
RECOVERING, UNAVAILABLE, DRAINING, or RETIRED ones; the fleet audit
(:class:`~repro.audit.FleetRoutingError`) enforces that invariant on
every dispatch.  The resilience pipeline layered on top is per-request
timeout -> jittered-exponential-backoff retry (excluding already-tried
nodes while alternatives remain) -> failover -> shed, plus optional
hedging: a second attempt raced on another node when the first is
quiet past ``hedge_after``.

Gateway-decided sheds carry the
:data:`~repro.faults.report.GATEWAY_SHED_PREFIX` reason prefix so node
reports (engine-decided sheds) and the fleet report never double-count
a rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.audit import ConfigError
from repro.cluster.node import Node
from repro.serving.request import DEFAULT_TIER, Request, RequestState

__all__ = ["FleetRequest", "Gateway", "ROUTING_POLICIES"]

ROUTING_POLICIES = ("round-robin", "least-loaded", "latency-aware")


@dataclass
class FleetRequest:
    """One client-visible request and its attempt ledger."""

    fleet_id: int
    input_tokens: int
    output_tokens: int
    arrival_time: float
    #: Owning tenant ("" = untenanted traffic).
    tenant: str = ""
    #: Traffic class (0 = premium .. 2 = best-effort); cloned onto
    #: every attempt so node schedulers admit premium work first.
    tier: int = DEFAULT_TIER
    #: Tenant TTFT SLO in seconds; becomes each attempt's deadline.
    ttft_slo: Optional[float] = None
    #: Dispatched attempts the fleet has not reaped yet, newest last.
    attempts: List[Request] = field(default_factory=list)
    #: Names of nodes this request has been dispatched to.
    tried_nodes: Set[str] = field(default_factory=set)
    retries: int = 0
    hedged: bool = False
    state: RequestState = RequestState.WAITING
    shed_reason: Optional[str] = None
    #: The attempt that finished first (None until served).
    winner: Optional[Request] = None

    @property
    def terminal(self) -> bool:
        return self.state in (RequestState.FINISHED, RequestState.SHED)

    @property
    def ttft(self) -> float:
        """Client-observed TTFT: winning first token vs fleet arrival."""
        if self.winner is None or self.winner.first_token_time is None:
            raise RuntimeError(f"fleet request {self.fleet_id} has no first token")
        return self.winner.first_token_time - self.arrival_time

    @property
    def tpot(self) -> float:
        if self.winner is None:
            raise RuntimeError(f"fleet request {self.fleet_id} is not finished")
        return self.winner.tpot

    def finish(self, winner: Request) -> None:
        self.state = RequestState.FINISHED
        self.winner = winner

    def shed(self, reason: str) -> None:
        self.state = RequestState.SHED
        self.shed_reason = reason


@dataclass
class GatewayStats:
    """Counters of gateway decisions during one fleet run."""

    dispatches: int = 0
    retries: int = 0
    failovers: int = 0
    timeouts: int = 0
    hedges: int = 0
    hedge_wasted: int = 0
    probes: int = 0


class Gateway:
    """Routes fleet requests across heterogeneous node pools."""

    def __init__(self, policy: str = "round-robin") -> None:
        if policy not in ROUTING_POLICIES:
            raise ConfigError(
                f"unknown routing policy {policy!r} (expected one of "
                f"{', '.join(ROUTING_POLICIES)})"
            )
        self.policy = policy
        #: Name -> Node, in deterministic registration order.
        self.nodes: Dict[str, Node] = {}
        self.stats = GatewayStats()
        self._rr_cursor = 0
        self._next_attempt_id = 0

    # -- pool membership -----------------------------------------------
    def register(self, node: Node) -> None:
        if node.name in self.nodes:
            raise ConfigError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node

    # -- routing -------------------------------------------------------
    def pick(
        self,
        exclude: Set[str] = frozenset(),
        avoid: Set[str] = frozenset(),
        require_untried: bool = False,
    ) -> Optional[Node]:
        """Choose a routable node under the configured policy.

        ``exclude`` removes already-tried nodes from consideration --
        unless that would leave no candidate, in which case a retry may
        return to a previously tried (now routable) node rather than
        shed a servable request.  ``require_untried`` disables that
        fallback (hedging onto a tried node buys nothing).  ``avoid``
        removes nodes unconditionally (open circuit breakers).

        Returning None never advances the round-robin cursor, so a
        fully-excluded or fully-unhealthy pool cannot perturb routing
        for subsequent requests.
        """
        # One pass over the pool: the routable bit, then the name sets.
        candidates: List[Node] = []
        preferred: List[Node] = []
        for node in self.nodes.values():
            if node.routable and node.name not in avoid:
                candidates.append(node)
                if node.name not in exclude:
                    preferred.append(node)
        if not candidates:
            return None
        if not preferred and require_untried:
            return None
        pool = preferred or candidates
        if self.policy == "round-robin":
            choice = pool[self._rr_cursor % len(pool)]
            self._rr_cursor += 1
            return choice
        if self.policy == "least-loaded":
            return min(pool, key=lambda node: (len(node.inflight), node.name))
        # latency-aware: lowest recent TTFT estimate, then load, then name.
        return min(
            pool,
            key=lambda node: (node.latency_estimate, len(node.inflight), node.name),
        )

    def dispatch(
        self,
        fleet_request: FleetRequest,
        node: Node,
        now: float,
        max_new_tokens: Optional[int] = None,
    ) -> Request:
        """Clone a fresh attempt onto ``node`` at fleet time ``now``.

        ``max_new_tokens`` caps the attempt's output budget (the
        admission layer's brownout response); the tenant's TTFT SLO
        becomes the attempt's engine-level deadline.
        """
        output_tokens = fleet_request.output_tokens
        if max_new_tokens is not None:
            output_tokens = min(output_tokens, max_new_tokens)
        attempt = Request(
            request_id=self._next_attempt_id,
            input_tokens=fleet_request.input_tokens,
            output_tokens=output_tokens,
            arrival_time=now,
            tenant=fleet_request.tenant,
            tier=fleet_request.tier,
            deadline=fleet_request.ttft_slo,
        )
        self._next_attempt_id += 1
        fleet_request.attempts.append(attempt)
        fleet_request.tried_nodes.add(node.name)
        node.feed(attempt)
        self.stats.dispatches += 1
        return attempt

    def probe(self) -> Dict[str, str]:
        """One health-check sweep: every node's current state."""
        self.stats.probes += 1
        return {name: node.state.value for name, node in self.nodes.items()}
