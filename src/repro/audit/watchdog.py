"""Per-point step/wall watchdog for long simulations.

A wedged simulation (a scheduling livelock, a pathological parameter
point) would otherwise stall a whole sweep.  A :class:`Watchdog` bounds
one simulated point by engine steps and/or wall-clock seconds; tripping
raises :class:`~repro.audit.errors.WatchdogExceeded`, which the serving
engine converts into a typed *partial* report
(``ServingReport.watchdog_reason``) so the sweep records the point as
degraded instead of hanging or dying.

Budgets come from the constructor or the ``REPRO_WATCHDOG_STEPS`` /
``REPRO_WATCHDOG_WALL`` environment variables (see :meth:`from_env`).
"""

from __future__ import annotations

import math
import numbers
import os
import time
from typing import Optional

from repro.audit.errors import ConfigError, WatchdogExceeded

__all__ = ["Watchdog"]


class Watchdog:
    """Step/wall budget for one simulated point."""

    __slots__ = ("max_steps", "max_wall_seconds", "_started")

    def __init__(
        self,
        max_steps: Optional[int] = None,
        max_wall_seconds: Optional[float] = None,
    ) -> None:
        if max_steps is not None and (
            isinstance(max_steps, bool)
            or not isinstance(max_steps, numbers.Integral)
            or max_steps < 1
        ):
            raise ConfigError(f"max_steps must be an integer >= 1, got {max_steps!r}")
        if max_wall_seconds is not None and not (
            isinstance(max_wall_seconds, numbers.Real)
            and math.isfinite(max_wall_seconds)
            and max_wall_seconds > 0
        ):
            raise ConfigError(
                f"max_wall_seconds must be a positive finite number, "
                f"got {max_wall_seconds!r}"
            )
        self.max_steps = max_steps
        self.max_wall_seconds = max_wall_seconds
        self._started: Optional[float] = None

    @classmethod
    def from_env(cls) -> Optional["Watchdog"]:
        """A watchdog per ``REPRO_WATCHDOG_STEPS`` (a positive integer)
        / ``REPRO_WATCHDOG_WALL`` (positive finite seconds), or None when
        neither is set; a malformed value raises
        :class:`~repro.audit.errors.ConfigError` naming its variable."""
        steps = os.environ.get("REPRO_WATCHDOG_STEPS")
        wall = os.environ.get("REPRO_WATCHDOG_WALL")
        if not steps and not wall:
            return None
        return cls(
            max_steps=_env_budget("REPRO_WATCHDOG_STEPS", steps, int),
            max_wall_seconds=_env_budget("REPRO_WATCHDOG_WALL", wall, float),
        )

    @property
    def armed(self) -> bool:
        return self.max_steps is not None or self.max_wall_seconds is not None

    def start(self) -> "Watchdog":
        """Arm the wall-clock budget; returns self for chaining."""
        self._started = time.monotonic()
        return self

    def elapsed(self) -> float:
        return 0.0 if self._started is None else time.monotonic() - self._started

    def check(self, steps: int) -> None:
        """Raise :class:`WatchdogExceeded` when a budget is blown."""
        if self.max_steps is not None and steps >= self.max_steps:
            raise WatchdogExceeded(
                f"step budget exceeded: {steps} engine steps >= {self.max_steps}",
                steps=steps,
            )
        if self.max_wall_seconds is not None and self._started is not None:
            elapsed = time.monotonic() - self._started
            if elapsed >= self.max_wall_seconds:
                raise WatchdogExceeded(
                    f"wall budget exceeded: {elapsed:.3f}s >= "
                    f"{self.max_wall_seconds:g}s after {steps} engine steps",
                    steps=steps,
                    wall_seconds=elapsed,
                )


def _env_budget(name: str, text: Optional[str], kind: type):
    """The budget environment variable ``name`` holds (None when unset
    or empty): a positive ``kind`` (finite for floats)."""
    if not text:
        return None
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value) or value <= 0:
        expected = "a positive integer" if kind is int else "a positive finite number"
        raise ConfigError(f"{name} must be {expected}, got {text!r}")
    return value
