"""Figure 10: collective-communication bus bandwidth.

Six collectives (AllReduce, AllGather, ReduceScatter, AlltoAll, Reduce,
Broadcast), 2-8 participating devices, 2 KB - 32 MB transfer sizes, on
HCCL (Gaudi-2 P2P mesh) vs NCCL (A100 NVSwitch).  Headline paper
results: at 8 devices Gaudi-2 wins 5 of 6 collectives; its bus
bandwidth declines almost linearly as devices are removed, while the
A100's stays flat.
"""

from __future__ import annotations

from repro.comm import CollectiveOp
from repro.core.report import render_table
from repro.figures.common import FigureResult, register_figure
from repro.hw.backend import A100, GAUDI2, get_backend

_SIZES = tuple(2 ** p for p in range(11, 26, 2))  # 2 KB .. 32 MB
_DEVICES = (2, 4, 8)
_LARGE = 32 * 1024 * 1024


@register_figure("fig10")
def run(fast: bool = True) -> FigureResult:
    """Regenerate this figure's rows, summary, and text report."""
    hccl = get_backend(GAUDI2).collective_library()
    nccl = get_backend(A100).collective_library()
    sizes = (_SIZES[0], _SIZES[-1]) if fast else _SIZES

    rows = []
    for op in CollectiveOp:
        for participants in _DEVICES:
            for size in sizes:
                for library in (hccl, nccl):
                    report = library.run(op, size, participants)
                    rows.append({
                        "library": library.name,
                        "op": op.value,
                        "participants": participants,
                        "size_bytes": size,
                        "bus_bandwidth": report.bus_bandwidth,
                        "bus_utilization": report.bus_utilization,
                    })
    # Headlines at the largest size.
    wins = 0
    linear_decline = True
    for op in CollectiveOp:
        gaudi8 = _find(rows, "HCCL", op.value, 8, sizes[-1])
        a100_8 = _find(rows, "NCCL", op.value, 8, sizes[-1])
        if gaudi8 > a100_8:
            wins += 1
        gaudi2 = _find(rows, "HCCL", op.value, 2, sizes[-1])
        gaudi4 = _find(rows, "HCCL", op.value, 4, sizes[-1])
        if not gaudi2 < gaudi4 < gaudi8:
            linear_decline = False
    summary = {
        "gaudi_wins_of_6_at_8_devices": float(wins),
        "gaudi_busbw_scales_with_devices": float(linear_decline),
        "gaudi_allreduce_util_8dev": _find(rows, "HCCL", "all_reduce", 8, sizes[-1])
        / hccl.per_device_bandwidth,
        "a100_allreduce_util_8dev": _find(rows, "NCCL", "all_reduce", 8, sizes[-1])
        / nccl.per_device_bandwidth,
        "a100_allreduce_util_2dev": _find(rows, "NCCL", "all_reduce", 2, sizes[-1])
        / nccl.per_device_bandwidth,
        "gaudi_allreduce_util_2dev": _find(rows, "HCCL", "all_reduce", 2, sizes[-1])
        / hccl.per_device_bandwidth,
    }
    text = render_table(
        ["Library", "Collective", "Devices", "Size", "busBW (GB/s)", "Util"],
        [
            (r["library"], r["op"], r["participants"], _human(r["size_bytes"]),
             f"{r['bus_bandwidth'] / 1e9:.1f}", f"{r['bus_utilization']:.1%}")
            for r in rows
        ],
        title="Figure 10: collective communication bus bandwidth",
    )
    return FigureResult(figure_id="fig10", title="Collectives",
                        rows=rows, summary=summary, text=text)


def _find(rows, library, op, participants, size) -> float:
    for r in rows:
        if (r["library"] == library and r["op"] == op
                and r["participants"] == participants and r["size_bytes"] == size):
            return r["bus_bandwidth"]
    raise KeyError((library, op, participants, size))


def _human(size: int) -> str:
    if size >= 1 << 20:
        return f"{size >> 20}MB"
    return f"{size >> 10}KB"
