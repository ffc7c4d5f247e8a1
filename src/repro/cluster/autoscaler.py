"""SLO-driven pool autoscaling on the fleet clock.

The autoscaler evaluates each pool every ``evaluate_interval`` seconds
against p99-TTFT / p99-TPOT SLO targets computed over the fleet
requests finished since the previous evaluation.  Breaching a target
provisions one node (it joins the pool ``provision_delay`` seconds
later, passing through RECOVERING); comfortably clearing both targets
(below ``scale_down_factor`` of each) drains the pool's newest node.
``cooldown`` seconds must elapse between scaling actions per pool, so
a single latency spike cannot thrash the pool size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.audit import ConfigError
from repro.core.metrics import percentile

__all__ = ["AutoscalePolicy", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """SLO targets and pool bounds for one fleet run."""

    target_p99_ttft: float = 5.0
    target_p99_tpot: Optional[float] = None
    evaluate_interval: float = 2.0
    cooldown: float = 4.0
    #: Scale down only when p99s sit below this fraction of target.
    scale_down_factor: float = 0.3
    min_nodes: int = 1
    max_nodes: int = 8
    provision_delay: float = 1.0

    def __post_init__(self) -> None:
        if not self.target_p99_ttft > 0:
            raise ConfigError(
                f"target_p99_ttft must be positive, got {self.target_p99_ttft!r}"
            )
        if self.target_p99_tpot is not None and not self.target_p99_tpot > 0:
            raise ConfigError(
                f"target_p99_tpot must be positive, got {self.target_p99_tpot!r}"
            )
        if not self.evaluate_interval > 0:
            raise ConfigError(
                f"evaluate_interval must be positive, got {self.evaluate_interval!r}"
            )
        if not self.cooldown >= 0:
            raise ConfigError(f"cooldown must be >= 0, got {self.cooldown!r}")
        if not 0.0 < self.scale_down_factor < 1.0:
            raise ConfigError(
                f"scale_down_factor must be in (0, 1), got {self.scale_down_factor!r}"
            )
        if self.min_nodes < 1 or self.max_nodes < self.min_nodes:
            raise ConfigError(
                f"need 1 <= min_nodes <= max_nodes, got "
                f"{self.min_nodes}..{self.max_nodes}"
            )
        if not self.provision_delay >= 0:
            raise ConfigError(
                f"provision_delay must be >= 0, got {self.provision_delay!r}"
            )


class Autoscaler:
    """Per-pool scale decisions against the policy's SLO targets."""

    def __init__(self, policy: AutoscalePolicy) -> None:
        self.policy = policy
        self._last_action: Dict[str, float] = {}
        self.scale_ups = 0
        self.scale_downs = 0
        self.log: List[str] = []

    def evaluate(
        self,
        pool: str,
        now: float,
        pool_size: int,
        ttfts: List[float],
        tpots: List[float],
    ) -> Optional[str]:
        """One evaluation tick for ``pool``; returns ``"up"``, ``"down"``
        or None.

        ``pool_size`` counts live (non-retired, non-draining) nodes;
        ``ttfts`` / ``tpots`` are the window's finished-request samples.
        An empty window takes no action: no traffic is not evidence of
        an oversized pool when requests may simply be queued elsewhere.
        """
        policy = self.policy
        last = self._last_action.get(pool)
        if last is not None and now - last < policy.cooldown:
            return None
        if not ttfts:
            return None
        p99_ttft = percentile(ttfts, 99)
        p99_tpot = percentile(tpots, 99) if tpots else 0.0
        breach = p99_ttft > policy.target_p99_ttft or (
            policy.target_p99_tpot is not None and p99_tpot > policy.target_p99_tpot
        )
        if breach and pool_size < policy.max_nodes:
            self._last_action[pool] = now
            self.scale_ups += 1
            self.log.append(
                f"t={now:.3f} pool={pool} scale-up (p99 TTFT {p99_ttft:.3f}s)"
            )
            return "up"
        clear = p99_ttft < policy.scale_down_factor * policy.target_p99_ttft and (
            policy.target_p99_tpot is None
            or p99_tpot < policy.scale_down_factor * policy.target_p99_tpot
        )
        if clear and pool_size > policy.min_nodes:
            self._last_action[pool] = now
            self.scale_downs += 1
            self.log.append(
                f"t={now:.3f} pool={pool} scale-down (p99 TTFT {p99_ttft:.3f}s)"
            )
            return "down"
        return None
