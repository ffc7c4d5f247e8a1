"""Trace exporters: chrome://tracing JSON, flat JSON, text summary.

One trace schema serves every producer -- a single-engine serving
trace (``repro trace``) and a fleet trace (``repro fleet
--trace-out``) both funnel through :func:`chrome_trace_events`, so
they open identically in ``chrome://tracing`` / Perfetto.

Schema (the contract ``scripts/check_trace_schema.py`` validates):

* top level is ``{"traceEvents": [...], "displayTimeUnit": "ms"}``;
* one ``M``/``process_name`` metadata event, one ``M``/``thread_name``
  per track; tracks are span categories, allocated dynamically in
  first-seen order (tid 1..N) -- never a hardcoded engine map;
* spans are ``X`` (complete) events with ``ts``/``dur`` in
  microseconds of *virtual* time, ``cat`` set to the track category;
* counters are ``C`` events (one lane per counter name);
* instants are ``i`` events; requests are ``b``/``e`` async pairs
  keyed by ``id``.

All ordering is deterministic (recording order; tracks by first use),
so same-seed runs export byte-identical documents.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.obs.tracer import Tracer

#: Trace time unit: chrome expects microseconds.
_US = 1e6


def _track_ids(tracer: Tracer) -> Dict[str, int]:
    """Category -> tid, allocated in first-seen order starting at 1."""
    tids: Dict[str, int] = {}
    for span in tracer.spans:
        if span.category not in tids:
            tids[span.category] = len(tids) + 1
    for event in tracer.instants:
        if event.category not in tids:
            tids[event.category] = len(tids) + 1
    for event in tracer.async_events:
        if event.category not in tids:
            tids[event.category] = len(tids) + 1
    return tids


def chrome_trace_events(tracer: Tracer, pid: int = 1) -> List[Dict]:
    """The ``traceEvents`` list for one tracer (see module docstring)."""
    tids = _track_ids(tracer)
    events: List[Dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": tracer.process_name}}
    ]
    for category, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": category},
            }
        )
    for span in tracer.spans:
        if span.end is None:
            continue  # open spans are not exportable intervals
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "pid": pid,
                "tid": tids[span.category],
                "ts": round(span.start * _US, 3),
                "dur": round(span.duration * _US, 3),
                "args": span.args,
            }
        )
    for sample in tracer.counters:
        events.append(
            {
                "name": sample.name,
                "ph": "C",
                "pid": pid,
                "ts": round(sample.t * _US, 3),
                "args": {"value": sample.value},
            }
        )
    for instant in tracer.instants:
        events.append(
            {
                "name": instant.name,
                "cat": instant.category,
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tids[instant.category],
                "ts": round(instant.t * _US, 3),
                "args": instant.args,
            }
        )
    for half in tracer.async_events:
        events.append(
            {
                "name": half.name,
                "cat": half.category,
                "ph": half.phase,
                "id": half.async_id,
                "pid": pid,
                "tid": tids[half.category],
                "ts": round(half.t * _US, 3),
                "args": half.args,
            }
        )
    return events


def chrome_trace_json(tracer: Tracer) -> str:
    """Serialize a tracer as a chrome://tracing JSON document."""
    document = {"traceEvents": chrome_trace_events(tracer), "displayTimeUnit": "ms"}
    return json.dumps(document, indent=1, sort_keys=True)


def flat_json(tracer: Tracer) -> str:
    """Spans/counters/instants as flat record lists (for pandas etc.)."""
    document = {
        "process": tracer.process_name,
        "spans": [
            {
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "name": s.name,
                "category": s.category,
                "start": s.start,
                "end": s.end,
                "args": s.args,
            }
            for s in tracer.spans
        ],
        "counters": [
            {"name": c.name, "t": c.t, "value": c.value} for c in tracer.counters
        ],
        "instants": [
            {"name": e.name, "category": e.category, "t": e.t, "args": e.args}
            for e in tracer.instants
        ],
    }
    return json.dumps(document, indent=1, sort_keys=True)


def text_summary(tracer: Tracer) -> str:
    """Fixed-format per-category busy-time and span-count summary."""
    closed = [s for s in tracer.spans if s.end is not None]
    total = max((s.end for s in closed), default=0.0)
    lines = [f"Trace summary: {tracer.process_name}"]
    lines.append(
        f"  {len(closed)} spans | {len(tracer.counters)} counter samples | "
        f"{len(tracer.instants)} instants | {len(tracer.async_events) // 2} async spans | "
        f"span of {total:.4f} s virtual time"
    )
    for category in tracer.categories():
        spans = [s for s in closed if s.category == category]
        busy = sum(s.duration for s in spans)
        share = busy / total if total > 0 else 0.0
        lines.append(
            f"  {category:<12s} {len(spans):5d} spans  busy {busy:10.4f} s  ({share:6.1%})"
        )
    by_name: Dict[str, List[float]] = {}
    for span in closed:
        by_name.setdefault(f"{span.category}:{span.name}", []).append(span.duration)
    top = sorted(by_name.items(), key=lambda kv: (-sum(kv[1]), kv[0]))[:8]
    if top:
        lines.append("  hottest spans (by total time):")
        for name, durations in top:
            lines.append(
                f"    {name:<32s} n={len(durations):5d}  total {sum(durations):10.4f} s"
            )
    return "\n".join(lines)
