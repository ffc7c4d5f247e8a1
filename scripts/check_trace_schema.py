#!/usr/bin/env python
"""Validate a chrome://tracing JSON document against the repro schema.

The contract is the one :mod:`repro.obs.exporters` writes (and
``repro trace`` / ``repro fleet --trace-out`` emit):

* top level is an object with a ``traceEvents`` list and
  ``displayTimeUnit`` of ``"ms"``;
* every event has a ``ph`` in the understood set and a ``pid``;
* ``X`` (complete) events carry numeric ``ts``/``dur`` and a ``cat``;
* ``C`` (counter) events carry a numeric ``args.value``;
* ``b``/``e`` async events pair up per (name, id);
* a serving trace covers all five layers: engine, scheduler, kv,
  collective, and power.

Stdlib-only on purpose: CI runs it against the ``repro trace`` output
without installing anything.

Usage::

    python scripts/check_trace_schema.py trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

#: Event phases the exporters emit.
KNOWN_PHASES = {"M", "X", "C", "i", "b", "e"}

#: Span categories a full serving trace must cover.
REQUIRED_LAYERS = {"engine", "scheduler", "kv", "collective", "power"}


def check_trace(document: dict, require_layers: bool = True) -> List[str]:
    """Return a list of schema violations (empty = valid)."""
    errors: List[str] = []
    if not isinstance(document, dict):
        return [f"top level must be an object, got {type(document).__name__}"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["top level must contain a 'traceEvents' list"]
    if document.get("displayTimeUnit") != "ms":
        errors.append("displayTimeUnit must be 'ms'")
    if not events:
        errors.append("traceEvents is empty")

    categories = set()
    async_open: dict = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: event must be an object")
            continue
        phase = event.get("ph")
        if phase not in KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        if "pid" not in event:
            errors.append(f"{where}: missing pid")
        if "cat" in event:
            categories.add(event["cat"])
        if phase == "X":
            for key in ("ts", "dur"):
                if not isinstance(event.get(key), (int, float)):
                    errors.append(f"{where}: X event needs numeric {key!r}")
            if "cat" not in event:
                errors.append(f"{where}: X event needs a 'cat'")
            if not isinstance(event.get("tid"), int):
                errors.append(f"{where}: X event needs an integer tid")
            elif isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
                errors.append(f"{where}: negative duration")
        elif phase == "C":
            value = event.get("args", {}).get("value")
            if not isinstance(value, (int, float)):
                errors.append(f"{where}: C event needs numeric args.value")
        elif phase in ("b", "e"):
            key = (event.get("name"), event.get("id"))
            if None in key:
                errors.append(f"{where}: async event needs name and id")
            elif phase == "b":
                async_open[key] = async_open.get(key, 0) + 1
            else:
                if async_open.get(key, 0) <= 0:
                    errors.append(f"{where}: 'e' event without matching 'b' {key}")
                else:
                    async_open[key] -= 1

    for key, count in sorted(async_open.items()):
        if count != 0:
            errors.append(f"unbalanced async span {key}: {count} unclosed 'b'")
    if require_layers:
        missing = REQUIRED_LAYERS - categories
        if missing:
            errors.append(
                f"serving trace must cover layers {sorted(REQUIRED_LAYERS)}; "
                f"missing {sorted(missing)}"
            )
    return errors


def main(argv: List[str] | None = None) -> int:
    """CLI entry point; exit code 0 iff the document is valid."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="path to a chrome trace JSON file")
    args = parser.parse_args(argv)
    with open(args.trace, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    errors = check_trace(document)
    if errors:
        for error in errors:
            print(f"SCHEMA ERROR: {error}", file=sys.stderr)
        return 1
    events = document["traceEvents"]
    print(f"{args.trace}: OK ({len(events)} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
