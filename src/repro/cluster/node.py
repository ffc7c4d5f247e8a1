"""One fleet node: a serving engine plus a health state machine.

A :class:`Node` wraps a :class:`~repro.serving.engine.LlmServingEngine`
(embedded through its streaming ``begin`` / ``feed`` / ``advance`` /
``finish`` API) behind the health states the gateway routes on::

    HEALTHY -> DEGRADED -> DEAD -> RECOVERING -> HEALTHY
                  |                                 |
              UNAVAILABLE (blip)          DRAINING -> RETIRED

Health is derived, not stored: crashes, brownouts, fabric degradation,
and blips each set one flag, and :meth:`Node.state` folds them in
priority order, so overlapping faults resolve deterministically.  The
one bit the gateway reads per node per dispatch, :attr:`Node.routable`,
is the exception: a plain bool each transition method recomputes from
the flags it moves (the strict fleet audit re-derives it from
:meth:`Node.state` on every dispatch).
Brownouts scale every engine step by ``1 / factor`` through the
engine's ``slowdown``; fabric degradation mutates the node's own
:class:`~repro.comm.FabricHealth`, which the engine's degraded
collective library reads when pricing each AllReduce (the Figure 10
port-count cliff).  No fault injector is bound, so nodes run on the
vectorized engine core.

Attempts report their own terminal transitions into the node's outbox
(``Request.outbox``) when the engine finishes, sheds or fails them, so
:meth:`Node.reap` costs O(transitions), not O(in flight).  The fleet
reads no live runner's progress on its hot path, so
:meth:`Node.advance_to` skips the engine's exit copy of it
(``sync_exit=False``); the one reader, the hedge handler, calls
``engine.sync_live()`` first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional

from repro.audit import ConfigError
from repro.comm.topology import FabricHealth
from repro.faults.chaos import build_degraded_collectives
from repro.hw.backend import get_backend, resolve_backend
from repro.models.llama import (
    LLAMA_3_1_70B,
    LLAMA_3_1_8B,
    LlamaCostModel,
    check_tp_degree,
    default_decode_attention,
)
from repro.serving.engine import LlmServingEngine, ResiliencePolicy, ServingReport
from repro.serving.request import Request, RequestState

__all__ = ["Node", "NodeClass", "NodeState"]

_ATTEMPT_ID = attrgetter("request_id")

#: Intra-node fabric link degraded by FABRIC_DEGRADE events (the
#: concrete pair is arbitrary -- any degraded link slows the ring).
_DEGRADED_LINK = (0, 1)


@dataclass(frozen=True)
class NodeClass:
    """One homogeneous pool's hardware/engine template."""

    name: str                       # pool name, e.g. "gaudi2"
    device: str                     # repro.hw device name
    model: str = "8b"               # "8b" | "70b"
    tp: int = 8
    max_decode_batch: int = 32
    num_kv_blocks: Optional[int] = None

    def __post_init__(self) -> None:
        # Canonicalize through the backend registry (typed ConfigError
        # listing registered backends on unknown device names).
        object.__setattr__(self, "device", resolve_backend(self.device))
        if self.model not in ("8b", "70b"):
            raise ConfigError(f"model must be '8b' or '70b', got {self.model!r}")
        if self.tp < 1:
            raise ConfigError(f"tp must be >= 1, got {self.tp}")
        check_tp_degree(LLAMA_3_1_8B if self.model == "8b" else LLAMA_3_1_70B, self.tp)
        if self.max_decode_batch < 1:
            raise ConfigError(
                f"max_decode_batch must be >= 1, got {self.max_decode_batch}"
            )


class NodeState(enum.Enum):
    HEALTHY = "healthy"
    #: Serving, but slowed (brownout) or on a degraded fabric.
    DEGRADED = "degraded"
    #: Transiently unroutable; in-flight work keeps running.
    UNAVAILABLE = "unavailable"
    #: Crashed: every in-flight request failed over; unroutable.
    DEAD = "dead"
    #: Coming back after a crash; unroutable until warmed.
    RECOVERING = "recovering"
    #: Scale-down: no new routes, existing work finishes.
    DRAINING = "draining"
    #: Rolling upgrade: drained and restarting; rejoins afterwards.
    UPGRADING = "upgrading"
    #: Drained and removed from the pool.
    RETIRED = "retired"


class Node:
    """One serving node on the shared fleet clock."""

    def __init__(
        self,
        name: str,
        node_class: NodeClass,
        policy: Optional[ResiliencePolicy] = None,
    ) -> None:
        self.name = name
        self.node_class = node_class
        self.fabric_health = FabricHealth()
        tp_config, _, _ = build_degraded_collectives(
            node_class.device, node_class.tp, self.fabric_health
        )
        device = get_backend(node_class.device)
        llama = LLAMA_3_1_8B if node_class.model == "8b" else LLAMA_3_1_70B
        attention = default_decode_attention(device)
        self.engine = LlmServingEngine(
            LlamaCostModel(llama, device, tp=tp_config),
            attention,
            max_decode_batch=node_class.max_decode_batch,
            num_kv_blocks=node_class.num_kv_blocks,
            policy=policy or ResiliencePolicy(),
        )
        self.brownout_factor = 1.0
        # Health flags (folded by `state` in priority order).
        self.dead = False
        self.recovering = False
        self.blipped = False
        self.draining = False
        #: Drain destination: True = rolling upgrade (rejoin after
        #: restart), False = scale-down (retire when idle).
        self.upgrade_pending = False
        #: Upgrade restart in progress (down, but coming back).
        self.upgrading = False
        self.retired = False
        #: May the gateway send *new* work here?  HEALTHY and DEGRADED
        #: are exactly the states with no down flag set; kept current
        #: by every transition that moves a down flag.
        self.routable = True
        # Bookkeeping the gateway/report read.
        self.crashes = 0
        self.upgrades = 0
        self.attempts_fed = 0
        #: Attempt id -> attempt, in feed order.
        self.inflight: Dict[int, Request] = {}
        #: Attempts that turned terminal since the last reap (each
        #: attempt appends itself, see ``Request.outbox``).
        self.outbox: List[Request] = []
        #: EWMA of recent attempt TTFTs (latency-aware routing input).
        self.latency_estimate = 0.0
        self._began = False

    # -- health --------------------------------------------------------
    @property
    def state(self) -> NodeState:
        if self.retired:
            return NodeState.RETIRED
        if self.dead:
            return NodeState.DEAD
        if self.recovering:
            return NodeState.RECOVERING
        if self.upgrading:
            return NodeState.UPGRADING
        if self.draining:
            return NodeState.DRAINING
        if self.blipped:
            return NodeState.UNAVAILABLE
        if self.brownout_factor < 1.0 or not self.fabric_health.healthy:
            return NodeState.DEGRADED
        return NodeState.HEALTHY

    def _update_routable(self) -> None:
        self.routable = not (
            self.retired or self.dead or self.recovering or self.upgrading
            or self.draining or self.blipped
        )

    # -- fault transitions ---------------------------------------------
    def crash(self) -> List[Request]:
        """Hard node loss: fail every in-flight attempt; returns them
        so the gateway can fail them over."""
        self.dead = True
        self.routable = False
        self.crashes += 1
        victims = self.engine.fail_all(f"outage: node {self.name} crashed")
        self.inflight.clear()
        self.outbox.clear()
        return victims

    def begin_recovery(self) -> None:
        self.dead = False
        self.recovering = True
        self.routable = False

    def warm(self) -> None:
        """Recovery warmup elapsed: the node rejoins the pool."""
        self.recovering = False
        self._update_routable()

    def set_brownout(self, factor: float) -> None:
        self.brownout_factor = factor
        self.engine.slowdown = 1.0 / factor

    def clear_brownout(self) -> None:
        self.brownout_factor = 1.0
        self.engine.slowdown = 1.0

    def degrade_fabric(self, factor: float) -> None:
        self.fabric_health.set_link_factor(*_DEGRADED_LINK, factor)

    def restore_fabric(self) -> None:
        self.fabric_health.restore_link(*_DEGRADED_LINK)

    def set_blip(self, active: bool) -> None:
        self.blipped = active
        self._update_routable()

    def drain(self) -> None:
        self.draining = True
        self.routable = False

    # -- rolling upgrades ----------------------------------------------
    def start_upgrade_drain(self) -> None:
        """Stop dispatch but keep serving: in-flight work finishes,
        and the node restarts (instead of retiring) once idle."""
        self.draining = True
        self.upgrade_pending = True
        self.routable = False

    @property
    def drained(self) -> bool:
        """No in-flight attempts and nothing queued in the engine."""
        return not self.inflight and not self.engine.has_unfinished

    def begin_upgrade_restart(self) -> None:
        """Drain complete: take the node down for its restart."""
        self.draining = False
        self.upgrade_pending = False
        self.upgrading = True
        self.routable = False

    def finish_upgrade(self) -> None:
        """Restart delay elapsed: rejoin the pool."""
        self.upgrading = False
        self.upgrades += 1
        self._update_routable()

    # -- serving -------------------------------------------------------
    def begin(self) -> None:
        """Open the node's engine run (at fleet time zero or, for an
        autoscaled node, its provision time)."""
        self.engine.begin()
        self._began = True

    def feed(self, request: Request) -> None:
        """Route one attempt onto this node."""
        request.outbox = self.outbox
        self.engine.feed(request)
        self.inflight[request.request_id] = request
        self.attempts_fed += 1

    def cancel(self, request: Request, reason: str) -> bool:
        """Gateway-side cancellation (timeout, lost hedge).

        Returns False when the attempt already reached a terminal
        state -- the race where a completion outran the cancel.
        """
        if request.state in (
            RequestState.FINISHED, RequestState.SHED, RequestState.FAILED
        ):
            return False
        self.engine.cancel(request, reason)
        return True

    def advance_to(self, horizon: float) -> float:
        """Advance the node's engine clock to ``horizon``.

        Batch-synchronous steps that start at or before the horizon run
        to completion, so the returned clock may overrun it.  A dead,
        unopened or idle node, or one whose clock already passed the
        horizon, holds its clock without entering the engine (whose loop
        would stop at once).  Every fleet event re-enters every node, so
        the guard reads the engine's clock and its core's work queues
        directly instead of through their properties.
        """
        engine = self.engine
        now = engine._now
        if self.dead or now > horizon:
            return now
        core = engine._core
        if core is None or not (
            core.runners or core.finished_pending or core.wait_head < len(core.wait_q)
        ):
            return now
        return engine.advance(horizon, sync_exit=False)

    def reap(self) -> List[Request]:
        """Pop attempts that reached a terminal state since last reap,
        in feed order (attempt ids grow with feeding)."""
        done = sorted(self.outbox, key=_ATTEMPT_ID)
        self.outbox.clear()
        for request in done:
            del self.inflight[request.request_id]
        if (
            self.draining and not self.upgrade_pending
            and not self.inflight and not self.engine.has_unfinished
        ):
            self.retired = True
            self.routable = False
        return done

    def observe_latency(self, ttft: float) -> None:
        """Fold one finished attempt's TTFT into the routing estimate."""
        if self.latency_estimate == 0.0:
            self.latency_estimate = ttft
        else:
            self.latency_estimate = 0.5 * self.latency_estimate + 0.5 * ttft

    def finish(self, watchdog_reason: str = "") -> ServingReport:
        """Close the engine run and return its per-node report."""
        if not self._began:
            self.engine.begin()
        return self.engine.finish(watchdog_reason)
