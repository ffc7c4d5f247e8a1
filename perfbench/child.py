"""One benchmark process: set up a workload, run it, report as JSON.

``run.py`` starts this file in a fresh single-threaded interpreter for
every sample.  The last line of standard output is one JSON record:

* ``ready``: ``time.monotonic()`` when set-up finished (the parent
  subtracts its own spawn time to get ``setup_s``);
* ``import_s`` / ``build_s``: the two parts of set-up after interpreter
  start;
* ``runs``: one entry per run with its host seconds, output digest,
  validity problems, simulated figures and workload counters;
* ``calibration_s``: a fixed loop's time right after set-up (see
  :func:`calibrate`); each run carries the mean of the loop times
  before and after it;
* ``peak_rss_mb``, and ``error`` when the process could not finish.

Modes: ``prime`` only imports (it fills the bytecode cache untimed),
``cold`` runs once with empty caches, ``plain`` then repeats that run
once in the same process (warm), and ``traced`` runs once with layer
spans.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
import time
import traceback

from spans import LAYERS, ROOT, LiveCount, Patcher, SpanTracer, install_layers, leaked_wrappers
from workloads import IMPORTS, WORKLOADS, Outcome, reset_counters


#: Iterations of the calibration loop (about 0.06 s on the reference host).
CALIBRATION_LOOPS = 1_000_000


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the host's current speed.

    Timed after set-up and after every run; ``run.py`` scales each time
    by the calibration next to it to cancel host-speed drift.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i
    return time.perf_counter() - start


def _run_entry(kind: str, seconds: float, outcome: Outcome) -> dict:
    return {
        "kind": kind,
        "seconds": seconds,
        "digest": outcome.digest,
        "problems": outcome.problems,
        "info": outcome.info,
        "layers": outcome.layers,
    }


def timed_run(kind: str, workload, state: dict) -> dict:
    reset_counters()
    gc.collect()
    start = time.perf_counter()
    outcome = workload.run(state)
    return _run_entry(kind, time.perf_counter() - start, outcome)


def memo_layers() -> dict:
    from repro.core import memo

    stats = memo.cache_stats().values()
    hits = sum(entry["hits"] for entry in stats)
    misses = sum(entry["misses"] for entry in stats)
    return {
        "memo.hits": hits,
        "memo.misses": misses,
        "memo.evictions": sum(entry["evictions"] for entry in stats),
        "memo.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def traced_run(workload, state: dict) -> dict:
    """One cold run with every layer wrapped; wrappers removed after."""
    tracer, patcher = SpanTracer(), Patcher()
    try:
        install_layers(tracer, patcher)
        retained = LiveCount(
            patcher, "repro.cluster.gateway:FleetRequest", "repro.cluster.node:Node.reap"
        )
        reset_counters()
        gc.collect()
        tracer.enter(ROOT)
        try:
            outcome = workload.run(state)
        finally:
            seconds = tracer.exit()
    finally:
        patcher.restore()
    entry = _run_entry("traced", seconds, outcome)
    leaks = leaked_wrappers()
    if leaks:
        entry["problems"].append(f"span wrappers left installed: {leaks[:5]}")
    layers = entry["layers"]
    for layer in LAYERS:
        layers[f"{layer}_s"] = tracer.self_time.get(layer, 0.0)
        layers[f"{layer}_calls"] = tracer.calls.get(layer, 0)
    layers["bench.unattributed_s"] = tracer.self_time[ROOT]
    layers["cluster.retained_requests"] = retained.high_water
    layers.update(memo_layers())
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("prime", "cold", "plain", "traced"))
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    record: dict = {"runs": []}
    try:
        start = time.perf_counter()
        for name in IMPORTS:
            importlib.import_module(name)
        record["import_s"] = time.perf_counter() - start
        if args.mode != "prime":
            start = time.perf_counter()
            state = workload.setup(args.seed)
            record["build_s"] = time.perf_counter() - start
            record["ready"] = time.monotonic()
            from repro.core import memo

            memo.clear_caches()
            kinds = {"traced": ["traced"], "cold": ["cold"], "plain": ["cold", "warm"]}
            record["calibration_s"] = before = calibrate()
            for kind in kinds[args.mode]:
                if kind == "traced":
                    entry = traced_run(workload, state)
                else:
                    entry = timed_run(kind, workload, state)
                after = calibrate()
                entry["calibration_s"] = (before + after) / 2
                record["runs"].append(entry)
                before = after
    except Exception:
        record["error"] = traceback.format_exc()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
