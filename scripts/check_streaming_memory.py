#!/usr/bin/env python
"""Assert the streaming serving path runs in constant memory.

Runs the same release-mode streaming workload (lazy dataset -> lazy
Poisson stamping -> ``LlmServingEngine.run`` over an iterator) at two
trace lengths a decade apart and compares ``tracemalloc`` peaks.  If
the long run's peak grows past a small constant factor of the short
run's, some layer is materializing the trace (or leaking per-request
state) and the million-request recipe in EXPERIMENTS.md is broken.

A warmup run fills the bounded cost-model caches first so the traced
runs measure only per-run engine state, not cache population.

Usage::

    PYTHONPATH=src python scripts/check_streaming_memory.py
    PYTHONPATH=src python scripts/check_streaming_memory.py --small 500 --factor 4
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc

from repro.hw import get_backend
from repro.models.llama import LLAMA_3_1_8B, LlamaCostModel
from repro.serving import LlmServingEngine, iter_dynamic_sonnet_requests
from repro.serving.loadgen import poisson_arrivals


def _run(num_requests: int, rate: float) -> int:
    """One release-mode streaming run; returns the tracemalloc peak."""
    engine = LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2")),
        max_decode_batch=64,
        retain_requests=False,
    )
    arrivals = poisson_arrivals(
        iter_dynamic_sonnet_requests(num_requests, seed=0), rate, seed=0
    )
    tracemalloc.start()
    engine.run(arrivals)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", type=int, default=1000,
                        help="short trace length (long run is 10x this)")
    parser.add_argument("--rate", type=float, default=11.0,
                        help="offered req/s (keep below the sustainable "
                             "rate so the backlog stays bounded)")
    parser.add_argument("--factor", type=float, default=3.0,
                        help="max allowed peak growth for the 10x trace")
    args = parser.parse_args(argv)

    large_n = 10 * args.small
    _run(large_n, args.rate)  # warmup: populate bounded caches untraced
    small = _run(args.small, args.rate)
    large = _run(large_n, args.rate)
    ratio = large / small if small else float("inf")
    print(f"peak({args.small:>7}) = {small / 1e6:8.3f} MB")
    print(f"peak({large_n:>7}) = {large / 1e6:8.3f} MB  "
          f"(ratio {ratio:.2f}x, limit {args.factor:.2f}x)")
    if large >= args.factor * small:
        print("FAIL: streaming peak grows with trace length", file=sys.stderr)
        return 1
    print("OK: streaming serving peak is constant in trace length")
    return 0


if __name__ == "__main__":
    sys.exit(main())
