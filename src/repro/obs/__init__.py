"""Unified observability layer: virtual-clock tracing + metrics.

The paper's methodology is observability-driven -- the Intel Gaudi
Profiler reverse-engineers MME geometry selection (Section 3.2), and
Figures 8/12/15 are utilization/power timelines.
This package gives the simulator the same substrate:

* :mod:`repro.obs.tracer` -- hierarchical spans on the engine's
  virtual clock (request -> iteration -> prefill/decode ->
  kernel/collective), plus counter tracks and instant markers;
* :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of counters,
  gauges, and histograms (KV occupancy, batch size, preemptions,
  MME/TPC busy time, per-step watts);
* :mod:`repro.obs.exporters` -- chrome://tracing JSON, flat JSON, and
  text-summary exporters sharing one schema across every trace.

Instrumented layers bind these through
:class:`repro.api.RunContext`; unbound, every hook is a cheap no-op.
"""

from repro.obs.exporters import chrome_trace_events, chrome_trace_json, flat_json, text_summary
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import (
    NULL_TRACER,
    AsyncEvent,
    CounterSample,
    InstantEvent,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "AsyncEvent",
    "Counter",
    "CounterSample",
    "Gauge",
    "Histogram",
    "InstantEvent",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "chrome_trace_json",
    "flat_json",
    "text_summary",
]
