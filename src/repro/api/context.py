"""The shared :class:`RunContext` every ``run_*`` entry point accepts.

A :class:`RunContext` bundles the cross-cutting run state -- tracer,
metrics registry, seed, and default device -- so callers configure one
object and thread it through any entry point with ``ctx=``:

    from repro.api import RunContext
    ctx = RunContext.create(seed=7, device="gaudi2")
    report = run_chaos(config=config, ctx=ctx)
    print(ctx.tracer_summary())

Unbound fields degrade gracefully: with no tracer/metrics the
instrumentation hooks are no-ops, and entry points fall back to their
own seed/device defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.exporters import chrome_trace_json, text_summary
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


@dataclass
class RunContext:
    """Cross-cutting state shared by one run (or one batch of runs)."""

    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    seed: int = 0
    #: Default device *name* (resolved lazily so importing the context
    #: never pulls in the device models).
    device: Optional[str] = None
    #: Free-form labels stamped into exports (experiment name, etc.).
    labels: dict = field(default_factory=dict)

    @classmethod
    def create(
        cls,
        trace: bool = True,
        metrics: bool = True,
        seed: int = 0,
        device: Optional[str] = None,
        process_name: str = "repro",
    ) -> "RunContext":
        """A context with a fresh tracer/registry already bound."""
        return cls(
            tracer=Tracer(process_name) if trace else None,
            metrics=MetricsRegistry() if metrics else None,
            seed=seed,
            device=device,
        )

    def resolve_seed(self, seed: Optional[int]) -> int:
        """An explicit ``seed`` argument wins; else the context's."""
        return self.seed if seed is None else seed

    def resolve_device(self, device=None):
        """An explicit device wins; else the context's named default.

        Accepts a device object or name in either position; returns a
        device object, or raises if neither is provided."""
        from repro.hw.backend import get_backend

        target = device if device is not None else self.device
        if target is None:
            raise ValueError("no device given and the RunContext names no default")
        return get_backend(target) if isinstance(target, str) else target

    # -- export conveniences ----------------------------------------------
    def chrome_trace(self) -> str:
        """The bound tracer as chrome://tracing JSON."""
        if self.tracer is None:
            raise ValueError("this RunContext has no tracer bound")
        return chrome_trace_json(self.tracer)

    def tracer_summary(self) -> str:
        """The bound tracer's fixed-format text summary."""
        if self.tracer is None:
            raise ValueError("this RunContext has no tracer bound")
        return text_summary(self.tracer)

    def metrics_summary(self) -> str:
        """The bound registry's fixed-format text listing."""
        if self.metrics is None:
            raise ValueError("this RunContext has no metrics registry bound")
        return self.metrics.render()
