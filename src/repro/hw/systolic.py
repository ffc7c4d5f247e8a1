"""Generic output-stationary systolic array cycle model.

This is the substrate for both the Gaudi MME model (which can pick from
several geometries at runtime) and the fixed-geometry baseline the paper
uses as the comparison point in Figure 7(c).

Model
-----
An output-stationary array of height ``H`` and width ``W`` computes an
``H x W`` tile of the output matrix per *pass*: operand matrix ``A``
rows stream in from the left, ``B`` columns from the top, and each PE
accumulates one output element over the full ``K`` reduction.  One pass
therefore takes ``K`` cycles in steady state, plus an ``H + W`` pipeline
fill/drain that is paid once because consecutive passes are pipelined
(the next tile's operands start streaming while the previous tile
drains).

A GEMM of shape ``(M, K, N)`` needs ``ceil(M/H) * ceil(N/W)`` tiles.
With ``E`` identical engines working on different tiles in parallel the
number of sequential passes is ``ceil(tiles / E)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Tuple


@dataclass(frozen=True)
class SystolicGeometry:
    """One configuration of a systolic array.

    ``height x width`` is the output-tile shape; ``engines`` is the
    number of identical arrays operating on independent tiles (the
    native Gaudi-2 configuration is two 256x256 arrays -> ``(256, 256,
    2)``).
    """

    height: int
    width: int
    engines: int = 1

    def __post_init__(self) -> None:
        if self.height <= 0 or self.width <= 0 or self.engines <= 0:
            raise ValueError(f"invalid geometry {self!r}")

    @property
    def active_macs(self) -> int:
        """Number of MAC units this configuration keeps powered."""
        return self.height * self.width * self.engines

    @property
    def label(self) -> str:
        if self.engines == 1:
            return f"{self.height}x{self.width}"
        return f"{self.height}x{self.width}x{self.engines}"


@dataclass(frozen=True)
class SystolicTiming:
    """Result of a GEMM cycle estimate on a systolic array."""

    geometry: SystolicGeometry
    tiles: int
    passes: int
    cycles: float

    def time_seconds(self, clock_hz: float) -> float:
        return self.cycles / clock_hz


class SystolicArray:
    """An output-stationary systolic array with a fixed geometry."""

    def __init__(self, geometry: SystolicGeometry, clock_hz: float) -> None:
        self.geometry = geometry
        self.clock_hz = clock_hz

    def gemm_timing(self, m: int, k: int, n: int) -> SystolicTiming:
        """Cycle count for an ``(M, K, N)`` GEMM on this geometry."""
        if min(m, k, n) <= 0:
            raise ValueError(f"GEMM dims must be positive, got {(m, k, n)}")
        geo = self.geometry
        tiles = math.ceil(m / geo.height) * math.ceil(n / geo.width)
        passes = math.ceil(tiles / geo.engines)
        fill = geo.height + geo.width
        cycles = passes * k + fill
        return SystolicTiming(geometry=geo, tiles=tiles, passes=passes, cycles=cycles)

    def gemm_time(self, m: int, k: int, n: int) -> float:
        """GEMM execution time in seconds (compute only)."""
        return self.gemm_timing(m, k, n).time_seconds(self.clock_hz)

    def utilization(self, m: int, k: int, n: int, total_macs: int) -> float:
        """Achieved/peak MAC utilization relative to ``total_macs``.

        ``total_macs`` is the full physical array size, so a power-gated
        geometry can never exceed ``active_macs / total_macs``.
        """
        timing = self.gemm_timing(m, k, n)
        ideal_cycles = (m * k * n) / float(total_macs)
        return ideal_cycles / timing.cycles


#: K panel length the on-chip blocking streams (elements).
_K_PANEL = 512


def _block_side(k: int, itemsize: int, sram_bytes: int) -> int:
    """Side of the square output block whose A panel, B panel and
    output block fit on chip together."""
    return max(64, (sram_bytes // itemsize) // (3 * min(k, _K_PANEL)))


def blocked_gemm_traffic(
    m: int, k: int, n: int, itemsize: int, sram_bytes: int
) -> float:
    """Off-chip traffic of a GEMM blocked through on-chip SRAM, bytes.

    Both platforms stage operand panels on chip (the Gaudi graph
    compiler through the 48 MB shared SRAM, cuBLAS through the 40 MB
    L2), streaming K in panels of 512 elements.  With a square block of
    side ``b`` chosen so that an A panel, a B panel, and the output
    block fit on chip, A is re-read ``ceil(N/b)`` times and B
    ``ceil(M/b)`` times; C is written once.
    """
    block = _block_side(k, itemsize, sram_bytes)
    a_reads = math.ceil(n / block) * m * k
    b_reads = math.ceil(m / block) * k * n
    c_writes = m * n
    return float(itemsize) * (a_reads + b_reads + c_writes)


def blocked_gemm_traffic_row(
    k: int, n: int, itemsize: int, sram_bytes: int
) -> Callable[[int], float]:
    """:func:`blocked_gemm_traffic` with ``m`` left free: the block side
    and the A re-read count depend only on ``k`` and ``n``.  Every read
    count is an exact integer, so ``traffic(m)`` returns the same bits."""
    block = _block_side(k, itemsize, sram_bytes)
    a_per_m = math.ceil(n / block) * k
    kn = k * n
    scale = float(itemsize)

    def traffic(m: int) -> float:
        return scale * (a_per_m * m + math.ceil(m / block) * kn + m * n)

    return traffic


def best_geometry(
    geometries: Iterable[SystolicGeometry],
    m: int,
    k: int,
    n: int,
) -> Tuple[SystolicGeometry, SystolicTiming]:
    """Pick the fastest geometry for a GEMM shape.

    Ties (same cycle count) are broken toward fewer active MACs, which
    models the power-gating preference observed for the gray configs in
    Figure 7(a).
    """
    if min(m, k, n) <= 0:
        raise ValueError(f"GEMM dims must be positive, got {(m, k, n)}")
    # Hot path (every uncached GEMM estimate walks the whole geometry
    # list): compare raw cycle counts inline and only materialize the
    # SystolicTiming for the winner.
    best_geo: SystolicGeometry | None = None
    best_cycles = 0.0
    best_macs = 0
    for geo in geometries:
        tiles = math.ceil(m / geo.height) * math.ceil(n / geo.width)
        cycles = math.ceil(tiles / geo.engines) * k + geo.height + geo.width
        macs = geo.height * geo.width * geo.engines
        if (
            best_geo is None
            or cycles < best_cycles - 1e-9
            or (abs(cycles - best_cycles) <= 1e-9 and macs < best_macs)
        ):
            best_geo, best_cycles, best_macs = geo, cycles, macs
    if best_geo is None:
        raise ValueError("no geometries supplied")
    return best_geo, SystolicArray(best_geo, clock_hz=1.0).gemm_timing(m, k, n)
