"""Figure 8: STREAM ADD/SCALE/TRIAD characterization.

Six panels: (a) single-TPC throughput vs data access granularity,
(b) vs unroll factor, (c) weak scaling across TPCs, and (d, e, f)
operational-intensity sweeps comparing Gaudi-2 against A100 with the
compute-utilization saturation points.  Headline paper results: the
256-byte granularity cliff; SCALE gains most from unrolling; chip
throughput saturates around 330/530/670 GFLOPS at 11-15 TPCs; at high
intensity ADD and SCALE saturate at ~50 % of peak while TRIAD reaches
~99 % on both platforms.
"""

from __future__ import annotations

from repro.core.report import render_table
from repro.figures.common import FigureResult, register_figure
from repro.hw.backend import A100, GAUDI2, get_backend
from repro.kernels.stream import StreamOp, run_stream

_GRANULARITIES = (2, 8, 32, 64, 128, 256, 512, 1024, 2048)
_UNROLLS = (1, 2, 4, 8)
_TPC_COUNTS = (1, 2, 4, 8, 12, 16, 20, 24)
_INTENSITY_CHAINS = (1, 4, 16, 64, 256)
_ELEMENTS = 24_000_000
_ELEMENTS_FAST = 2_400_000


@register_figure("fig08")
def run(fast: bool = True) -> FigureResult:
    """Regenerate this figure's rows, summary, and text report."""
    gaudi, a100 = get_backend(GAUDI2), get_backend(A100)
    n = _ELEMENTS_FAST if fast else _ELEMENTS
    granularities = _GRANULARITIES[::2] if fast else _GRANULARITIES
    tpc_counts = _TPC_COUNTS[::2] if fast else _TPC_COUNTS
    rows = []

    # (a) granularity sweep, single TPC, no unrolling.
    for op in StreamOp:
        for g in granularities:
            result = run_stream(device=gaudi, op=op, num_elements=n, access_bytes=g, unroll=1, num_cores=1)
            rows.append({"panel": "a", "op": op.value, "granularity": g,
                         "unroll": 1, "cores": 1, "gflops": result.achieved_gflops})

    # (b) unroll sweep, single TPC, 256 B granularity.
    for op in StreamOp:
        for u in _UNROLLS:
            result = run_stream(device=gaudi, op=op, num_elements=n, unroll=u, num_cores=1)
            rows.append({"panel": "b", "op": op.value, "granularity": 256,
                         "unroll": u, "cores": 1, "gflops": result.achieved_gflops})

    # (c) weak scaling across TPCs (unrolled kernels).
    for op in StreamOp:
        for cores in tpc_counts:
            result = run_stream(device=gaudi, op=op, num_elements=n * cores // 24 + 1, unroll=4, num_cores=cores)
            rows.append({"panel": "c", "op": op.value, "granularity": 256,
                         "unroll": 4, "cores": cores, "gflops": result.achieved_gflops})

    # (d, e, f) operational-intensity sweep, both devices, all cores.
    for op in StreamOp:
        for chain in _INTENSITY_CHAINS:
            for device in (gaudi, a100):
                result = run_stream(device=device, op=op, num_elements=n, unroll=4, compute_chain=chain)
                peak = device.peak_vector_flops / 1e9
                rows.append({
                    "panel": "def", "op": op.value, "device": device.name,
                    "chain": chain, "gflops": result.achieved_gflops,
                    "vector_utilization": result.achieved_gflops / peak,
                })

    summary = _summarize(rows)
    text = render_table(
        ["Panel", "Op", "Key", "GFLOPS"],
        [
            (r["panel"], r["op"],
             f"g={r.get('granularity', '-')} u={r.get('unroll', '-')} "
             f"c={r.get('cores', '-')} chain={r.get('chain', '-')} "
             f"{r.get('device', 'Gaudi-2')}",
             f"{r['gflops']:.1f}")
            for r in rows
        ],
        title="Figure 8: STREAM microbenchmarks",
    )
    return FigureResult(figure_id="fig08", title="STREAM suite",
                        rows=rows, summary=summary, text=text)


def _summarize(rows) -> dict:
    def panel(p, op):
        return [r for r in rows if r["panel"] == p and r["op"] == op]

    saturation = {
        op.value: max(r["gflops"] for r in panel("c", op.value)) for op in StreamOp
    }
    unroll_gain = {}
    for op in StreamOp:
        series = sorted(panel("b", op.value), key=lambda r: r["unroll"])
        unroll_gain[op.value] = series[-1]["gflops"] / series[0]["gflops"]
    sat_util = {}
    for op in StreamOp:
        for device in ("Gaudi-2", "A100"):
            pts = [r for r in rows if r["panel"] == "def" and r["op"] == op.value
                   and r.get("device") == device]
            sat_util[f"{op.value}_{device}"] = max(r["vector_utilization"] for r in pts)
    return {
        "chip_saturation_gflops_add": saturation["add"],
        "chip_saturation_gflops_scale": saturation["scale"],
        "chip_saturation_gflops_triad": saturation["triad"],
        "unroll_gain_add": unroll_gain["add"],
        "unroll_gain_scale": unroll_gain["scale"],
        "unroll_gain_triad": unroll_gain["triad"],
        "intensity_sat_util_add_gaudi": sat_util["add_Gaudi-2"],
        "intensity_sat_util_triad_gaudi": sat_util["triad_Gaudi-2"],
        "intensity_sat_util_add_a100": sat_util["add_A100"],
        "intensity_sat_util_triad_a100": sat_util["triad_A100"],
    }
