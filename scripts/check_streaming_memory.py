#!/usr/bin/env python
"""Assert streaming serving runs in constant memory and a fleet in a
bounded number of bytes per request.

Serving: runs the same release-mode streaming workload (lazy dataset ->
lazy Poisson stamping -> ``LlmServingEngine.run`` over an iterator) at
two trace lengths a decade apart and compares ``tracemalloc`` peaks.
If the long run's peak grows past a small constant factor of the short
run's, some layer is materializing the trace (or leaking per-request
state) and the million-request recipe in EXPERIMENTS.md is broken.

Fleet: runs ``run_fleet`` on ``2x gaudi2`` at 20 req/s (below
saturation) at the same two lengths and bounds the peak's growth per
extra request.  A fleet's peak is not constant: each node engine keeps
its attempts (``NodeReport.mean_ttft`` sums them in feed order) and the
report keeps every finished request's exact TTFT and TPOT, about
500 B/request under CPython 3.11.  A fleet that keeps every
``FleetRequest`` and its arrival event for the whole run grows by about
1 200 B/request, so :data:`FLEET_BYTES_PER_REQUEST` fails it.

Warmup runs fill the bounded cost-model caches first so the traced
runs measure only per-run state, not cache population.

Usage::

    PYTHONPATH=src python scripts/check_streaming_memory.py
    PYTHONPATH=src python scripts/check_streaming_memory.py --small 500 --factor 4
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc

from repro.cluster import FleetConfig, run_fleet
from repro.hw import get_backend
from repro.models.llama import LLAMA_3_1_8B, LlamaCostModel
from repro.serving import LlmServingEngine, iter_dynamic_sonnet_requests
from repro.serving.loadgen import poisson_arrivals

#: Most a fleet's tracemalloc peak may grow per extra request.
FLEET_BYTES_PER_REQUEST = 800


def _traced_peak(run) -> int:
    """``tracemalloc`` peak of one call of ``run``."""
    tracemalloc.start()
    run()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def _serve(num_requests: int, rate: float) -> int:
    """One release-mode streaming run; returns the tracemalloc peak."""
    engine = LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2")),
        max_decode_batch=64,
        retain_requests=False,
    )
    arrivals = poisson_arrivals(
        iter_dynamic_sonnet_requests(num_requests, seed=0), rate, seed=0
    )
    return _traced_peak(lambda: engine.run(arrivals))


def _fleet(num_requests: int) -> int:
    """One unsaturated two-node fleet run; returns the tracemalloc peak."""
    config = FleetConfig(nodes=(("gaudi2", 2),), num_requests=num_requests, rate=20.0)
    return _traced_peak(lambda: run_fleet(config))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", type=int, default=1000,
                        help="short trace length (long run is 10x this)")
    parser.add_argument("--rate", type=float, default=11.0,
                        help="offered req/s of the serving runs (keep below "
                             "the sustainable rate so the backlog stays bounded)")
    parser.add_argument("--factor", type=float, default=3.0,
                        help="max allowed serving peak growth for the 10x trace")
    args = parser.parse_args(argv)

    large_n = 10 * args.small
    failed = False
    _serve(large_n, args.rate)  # warmup: populate bounded caches untraced
    small = _serve(args.small, args.rate)
    large = _serve(large_n, args.rate)
    ratio = large / small if small else float("inf")
    print(f"serve peak({args.small:>7}) = {small / 1e6:8.3f} MB")
    print(f"serve peak({large_n:>7}) = {large / 1e6:8.3f} MB  "
          f"(ratio {ratio:.2f}x, limit {args.factor:.2f}x)")
    if large >= args.factor * small:
        print("FAIL: streaming peak grows with trace length", file=sys.stderr)
        failed = True
    else:
        print("OK: streaming serving peak is constant in trace length")

    _fleet(large_n)  # warmup
    small = _fleet(args.small)
    large = _fleet(large_n)
    slope = (large - small) / (large_n - args.small)
    print(f"fleet peak({args.small:>7}) = {small / 1e6:8.3f} MB")
    print(f"fleet peak({large_n:>7}) = {large / 1e6:8.3f} MB  "
          f"({slope:.0f} B/request, limit {FLEET_BYTES_PER_REQUEST})")
    if slope >= FLEET_BYTES_PER_REQUEST:
        print("FAIL: fleet peak grows faster than its per-request bound",
              file=sys.stderr)
        failed = True
    else:
        print("OK: fleet peak stays within its per-request bound")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
