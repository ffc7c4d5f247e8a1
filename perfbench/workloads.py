"""The benchmark's three workloads.

Each workload has a ``setup(seed)`` that builds what a caller holds
before a run (backends, cost models, generated inputs) and a
``run(state)`` that returns an :class:`Outcome`: a digest of the
simulated outputs, the simulated figures worth printing, workload-
validity problems, and workload-specific per-layer numbers.  Simulated
numbers are the correctness check, never a timing: a change that only
speeds up the simulator must leave them identical.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

#: Packages imported during set-up, so a run never pays an import.
IMPORTS = ("repro.figures", "repro.serving", "repro.cluster", "repro.surrogate")

# -- serve_stream ---------------------------------------------------------
SERVE_REQUESTS = 10_000
#: Just under the engine's sustainable rate: the decode batch stays full
#: while the arrival buffer stays bounded.
SERVE_RATE = 11.0
SERVE_MAX_BATCH = 64

# -- fleet_chaos ----------------------------------------------------------
FLEET_REQUESTS = 3_600
#: Far above what the four nodes sustain at this batch size: admission
#: leaves NORMAL, gateway timeouts turn into retries, and the nodes stay
#: saturated, so the work done varies little with the seed.
FLEET_RATE = 300.0
FLEET_MAX_BATCH = 8
FLEET_TIMEOUT = 2.0
FLEET_CHAOS = "crash:gaudi2-1@t=2,recover=6;brownout:a100-0@t=1,factor=0.5,until=4"

# -- paper_figures --------------------------------------------------------
#: Every registered figure except ``fleet_overload``, which would be most
#: of this workload and only repeat ``fleet_chaos``.
FIGURE_IDS = (
    "design_space", "fig04", "fig05", "fig07", "fig08", "fig09", "fig10",
    "fig11", "fig12", "fig13", "fig15", "fig17", "headline", "table1", "table2",
)


@dataclass
class Outcome:
    """What one workload run produced."""

    digest: str
    #: Simulated figures, printed beside the metrics but never gated.
    info: Dict[str, float] = field(default_factory=dict)
    #: Workload-validity assertions that failed (empty = valid run).
    problems: List[str] = field(default_factory=list)
    #: Workload-specific per-layer numbers (counters, per-figure times).
    layers: Dict[str, float] = field(default_factory=dict)


def _plain(value):
    """JSON encoder fallback for numpy scalars and arrays."""
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest_of(payload) -> str:
    """Canonical SHA-256 of a JSON-able payload (floats at full precision)."""
    text = json.dumps(payload, sort_keys=True, default=_plain, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def reset_counters() -> None:
    """Zero the process-wide counters that a run reports."""
    from repro.cluster.admission import reset_counters as reset_admission
    from repro.serving.engine_core import reset_counters as reset_core
    from repro.surrogate.backend import SURROGATE_COUNTERS

    reset_core()
    reset_admission()
    SURROGATE_COUNTERS.clear()


def _core_layers() -> Dict[str, float]:
    from repro.serving.engine_core import CORE_COUNTERS as c

    steps = c["vectorized_steps"] + c["scalar_steps"]
    return {
        "serving.steps": steps,
        "serving.vectorized_step_frac": c["vectorized_steps"] / steps if steps else 0.0,
        "serving.slot_high_water": c["slot_high_water"],
        "serving.arrival_buffer_peak": c["arrival_buffer_peak"],
    }


# -- serve_stream ---------------------------------------------------------
def serve_setup(seed: int) -> dict:
    from repro.hw.backend import GAUDI2, get_backend
    from repro.models.llama import LLAMA_3_1_8B, LlamaCostModel, default_decode_attention
    from repro.serving import iter_dynamic_sonnet_requests
    from repro.serving.loadgen import poisson_arrivals

    device = get_backend(GAUDI2)
    stream = poisson_arrivals(
        iter_dynamic_sonnet_requests(SERVE_REQUESTS, seed=seed), SERVE_RATE, seed=seed
    )
    return {
        "model": LlamaCostModel(LLAMA_3_1_8B, device),
        "attention": default_decode_attention(device),
        # Plain tuples: each run builds fresh Request objects lazily.
        "arrivals": [(r.input_tokens, r.output_tokens, r.arrival_time) for r in stream],
    }


def serve_run(state: dict) -> Outcome:
    from repro.serving import LlmServingEngine
    from repro.serving.request import Request

    engine = LlmServingEngine(
        state["model"], state["attention"],
        max_decode_batch=SERVE_MAX_BATCH, retain_requests=False,
    )
    report = engine.run(
        Request(request_id=i, input_tokens=inp, output_tokens=out, arrival_time=at)
        for i, (inp, out, at) in enumerate(state["arrivals"])
    )
    layers = _core_layers()
    problems = []
    if layers["serving.steps"] == 0 or layers["serving.vectorized_step_frac"] != 1.0:
        problems.append("serve_stream left the vectorized engine core")
    if layers["serving.arrival_buffer_peak"] > SERVE_MAX_BATCH:
        problems.append(
            f"arrival buffer peaked at {layers['serving.arrival_buffer_peak']} "
            f"(bound {SERVE_MAX_BATCH})"
        )
    if report.finished_requests != SERVE_REQUESTS:
        problems.append(f"{report.finished_requests}/{SERVE_REQUESTS} requests finished")
    return Outcome(
        digest=digest_of(report.to_json()),
        info={
            "admitted": report.num_requests,
            "finished": report.finished_requests,
            "shed": report.shed_requests,
            "sim_ttft_p99_s": engine.ttft_p99(),
            "sim_tokens_per_s": report.throughput_tokens_per_s,
        },
        problems=problems,
        layers=layers,
    )


# -- fleet_chaos ----------------------------------------------------------
def fleet_setup(seed: int) -> dict:
    from repro.cluster import (
        AdmissionPolicy, BreakerPolicy, FleetConfig, NodeFaultPlan, TenantSpec,
    )
    from repro.hw.backend import A100, GAUDI2, get_backend

    for key in (GAUDI2, A100):
        get_backend(key)
    config = FleetConfig(
        nodes=((GAUDI2, 2), (A100, 2)),
        max_decode_batch=FLEET_MAX_BATCH,
        num_requests=FLEET_REQUESTS,
        rate=FLEET_RATE,
        seed=seed,
        timeout=FLEET_TIMEOUT,
        tenants=(
            TenantSpec(name="gold", tier=0, share=0.25, weight=4.0, ttft_slo=2.0),
            TenantSpec(name="silver", tier=1, share=0.35, weight=2.0),
            TenantSpec(name="bronze", tier=2, share=0.40, weight=1.0,
                       quota_rate=8.0, quota_burst=8.0),
        ),
        admission=AdmissionPolicy(
            target_queue_delay=0.4, shed_queue_delay=0.8, max_queue_delay=20.0
        ),
        breaker=BreakerPolicy(),
        plan=NodeFaultPlan.from_spec(FLEET_CHAOS),
    )
    return {"config": config}


def fleet_run(state: dict) -> Outcome:
    from repro.cluster import fleet

    # Looked up on the module at call time, so the traced run's wrapper
    # around run_fleet is the one called.
    report = fleet.run_fleet(state["config"])
    problems = []
    if report.node_crashes < 1:
        problems.append("no node crashed")
    if report.retries == 0:
        problems.append("the gateway never retried")
    if report.brownout_entries == 0 and report.overload_sheds == 0:
        problems.append("admission never left NORMAL")
    if report.unfinished:
        problems.append(f"{report.unfinished} fleet requests left unfinished")
    layers = _core_layers()
    layers.update({
        "cluster.attempts_per_request": report.attempts / report.admitted,
        "cluster.retries": report.retries,
        "cluster.overload_sheds": report.overload_sheds,
        "cluster.breaker_short_circuits": report.breaker_short_circuits,
    })
    return Outcome(
        digest=digest_of(report.to_payload()),
        info={
            "admitted": report.admitted,
            "finished": report.finished,
            "shed": report.shed,
            "sim_ttft_p99_s": report.p99_ttft,
            "sim_tokens_per_s": report.throughput_tokens_per_s,
        },
        problems=problems,
        layers=layers,
    )


# -- paper_figures --------------------------------------------------------
def figures_setup(seed: int) -> dict:
    # Figures have no generated inputs, so the seed changes nothing here.
    # A fixed order keeps cache fills and memory layout the same per run.
    return {"order": FIGURE_IDS}


def figures_run(state: dict) -> Outcome:
    from repro.figures import FIGURES, run_figure

    problems = [f"figure {fid} is not registered" for fid in FIGURE_IDS if fid not in FIGURES]
    results, layers = {}, {}
    for figure_id in state["order"]:
        if figure_id not in FIGURES:
            continue
        start = time.perf_counter()
        result = run_figure(figure_id=figure_id, fast=False)
        layers[f"figures.{figure_id}_s"] = time.perf_counter() - start
        if not result.text:
            problems.append(f"figure {figure_id} rendered no text")
        results[figure_id] = {"summary": result.summary, "text": result.text}
    layers.update(_core_layers())
    return Outcome(
        digest=digest_of(results),
        info={"figures": len(results)},
        problems=problems,
        layers=layers,
    )


@dataclass(frozen=True)
class Workload:
    """One workload; README.md gives the reason for each."""

    setup: Callable[[int], dict]
    run: Callable[[dict], Outcome]
    #: True when the outputs do not depend on the seed (one golden).
    seed_free: bool = False


WORKLOADS: Dict[str, Workload] = {
    "serve_stream": Workload(serve_setup, serve_run),
    "fleet_chaos": Workload(fleet_setup, fleet_run),
    "paper_figures": Workload(figures_setup, figures_run, seed_free=True),
}
