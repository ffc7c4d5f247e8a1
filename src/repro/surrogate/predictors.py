"""Fitted fast-path predictor families for the surrogate layer.

Two predictor shapes cover every cost surface the exact simulator
exposes (see DESIGN.md §12 for the why):

* :class:`StructuredGemmPredictor` -- GEMM cost is a *staircase* of the
  engine geometry (``ceil(m/h)·ceil(n/w)`` tile counts snapping to
  engine/SM waves), which no smooth interpolant can track within the
  5% certificate (measured: plain log-log trilinear interpolation errs
  up to 40% at geometry cliffs).  Instead the predictor keeps the exact
  *structure* -- one piece per engine configuration observed in the
  sampled grid, with the per-piece cycle model ``time = a·(Q·k) + b·Q +
  c·u + d`` fitted by least squares (``Q`` = engine passes / SM waves,
  ``u`` = stream-K fixup indicator), plus a fitted inverse-bandwidth
  memory roofline over the exact blocked-GEMM traffic basis.
* :class:`LogGridPredictor` -- attention, paged attention, collectives,
  and STREAM surfaces are smooth (piecewise log-log linear) in their
  shape parameters, so N-D multilinear interpolation in ``log2`` space
  over a declared lattice is accurate and trivially vectorized.  Axes
  that must match exactly (TP degree, collective participants) are
  declared ``exact`` and gate :meth:`LogGridPredictor.in_domain`.

Both predictors serialize to plain-JSON payloads (``to_payload`` /
``from_payload``), and a fitted model is assembled through them.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "LogGridPredictor",
    "StructuredAttentionPredictor",
    "StructuredGemmPredictor",
    "parse_geometry_label",
]

#: Feature modes for one GEMM piece: how the pass/wave count ``Q`` is
#: derived from the batch-1 tile count ``T``.
_MODES = ("fill", "wave", "streamk")


def parse_geometry_label(label: str) -> Tuple[int, int, int]:
    """``(height, width, engines)`` parsed from a config label.

    Handles every built-in backend's label dialect: ``"MME 256x256x2"``
    (reconfigurable MME with engine count), ``"MME 512x128"`` (single
    engine), ``"CTA 128x256, 3 waves"``, ``"Tile 128x256+TMA, 2.43
    waves"``.
    """
    match = re.search(r"(\d+)x(\d+)(?:x(\d+))?", label)
    if match is None:
        raise ValueError(f"unparseable geometry label {label!r}")
    height, width = int(match.group(1)), int(match.group(2))
    engines = int(match.group(3)) if match.group(3) else 1
    return height, width, engines


def _tiles(m: np.ndarray, n: np.ndarray, height: int, width: int) -> np.ndarray:
    return np.ceil(m / height) * np.ceil(n / width)


def _passes(tiles: np.ndarray, mode: str, engines: int, cores: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(Q, u)`` feature pair for one mode (see module docstring)."""
    if mode == "fill":
        return np.ceil(tiles / engines), np.zeros_like(tiles)
    if mode == "wave":
        return np.ceil(tiles / cores), np.zeros_like(tiles)
    if mode == "streamk":
        full = np.floor(tiles / cores)
        rem = tiles - full * cores
        return full + rem / cores, (rem > 0).astype(float)
    raise ValueError(f"unknown piece mode {mode!r}")


def blocked_traffic(
    m: np.ndarray, k: np.ndarray, n: np.ndarray, itemsize: int, sram_bytes: int
) -> np.ndarray:
    """Vectorized twin of :func:`repro.hw.systolic.blocked_gemm_traffic`.

    Backend-specific derates (skinny-shape efficiency, cluster reuse)
    are *not* replicated here -- they are absorbed by the per-class
    fitted inverse bandwidths, whose class boundary (``min(m, n) <
    128``) matches the exact models' conditionals.
    """
    block = np.maximum(64.0, (sram_bytes // itemsize) // (3 * np.minimum(k, 512)))
    return itemsize * (
        np.ceil(n / block) * m * k + np.ceil(m / block) * k * n + m * n
    )


class StructuredGemmPredictor:
    """Piecewise structural GEMM cost model (one piece per geometry)."""

    def __init__(
        self,
        pieces: Sequence[Dict],
        memory: Dict,
        peak_flops: float,
        cores: int,
    ) -> None:
        if not pieces:
            raise ValueError("a GEMM predictor needs at least one piece")
        self.pieces = [dict(piece) for piece in pieces]
        self.memory = dict(memory)
        self.peak_flops = float(peak_flops)
        self.cores = int(cores)

    # -- serialization -------------------------------------------------
    def to_payload(self) -> Dict:
        return {
            "kind": "structured-gemm",
            "pieces": [dict(piece) for piece in self.pieces],
            "memory": dict(self.memory),
            "peak_flops": self.peak_flops,
            "cores": self.cores,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "StructuredGemmPredictor":
        if payload.get("kind") != "structured-gemm":
            raise ValueError(f"not a structured-gemm payload: {payload.get('kind')!r}")
        return cls(
            pieces=payload["pieces"],
            memory=payload["memory"],
            peak_flops=payload["peak_flops"],
            cores=payload["cores"],
        )

    # -- prediction ----------------------------------------------------
    def _compute_times(
        self, m: np.ndarray, k: np.ndarray, n: np.ndarray, batch: np.ndarray
    ) -> np.ndarray:
        """``(pieces, points)`` compute-side times at the given batch."""
        times = np.empty((len(self.pieces), m.size), dtype=float)
        for index, piece in enumerate(self.pieces):
            tiles = batch * _tiles(m, n, piece["height"], piece["width"])
            q, u = _passes(tiles, piece["mode"], piece["engines"], self.cores)
            times[index] = (
                piece["alpha"] * (q * k)
                + piece["beta"] * q
                + piece["gamma"] * u
                + piece["delta"]
            )
        return times

    def predict(
        self,
        m: np.ndarray,
        k: np.ndarray,
        n: np.ndarray,
        batch: np.ndarray,
    ) -> Dict[str, np.ndarray]:
        """Vectorized GEMM estimate over parallel shape arrays.

        Returns ``time``, ``memory_bound``, ``piece`` (index into
        :attr:`pieces` -- map through :meth:`labels` for display), and
        ``mac_fraction``.  Mirrors the exact models' two-step shape
        handling: the engine configuration is chosen at batch 1, then
        evaluated at the requested batch.
        """
        m = np.asarray(m, dtype=float)
        k = np.asarray(k, dtype=float)
        n = np.asarray(n, dtype=float)
        batch = np.asarray(batch, dtype=float)
        m, k, n, batch = np.broadcast_arrays(m, k, n, batch)
        shape = m.shape
        m, k, n, batch = (a.ravel() for a in (m, k, n, batch))

        ones = np.ones_like(m)
        # The exact models choose the engine configuration at batch 1
        # by minimum cycles, breaking ties toward fewer active MACs; a
        # MAC-proportional relative bias far below the certificate
        # tolerance reproduces that tie-break without disturbing real
        # cost differences.
        fractions = np.array([p["mac_fraction"] for p in self.pieces])
        selection_key = (
            self._compute_times(m, k, n, ones) * (1.0 + 1e-9 * fractions)[:, None]
        )
        choice = np.argmin(selection_key, axis=0)
        compute = np.take_along_axis(
            self._compute_times(m, k, n, batch), choice[None, :], axis=0
        )[0]

        mem = self.memory
        traffic = blocked_traffic(m, k, n, mem["itemsize"], mem["sram_bytes"])
        narrow = np.minimum(m, n) < mem["narrow_below"]
        inv_bw = np.where(narrow, mem["inv_bw_narrow"], mem["inv_bw_wide"])
        memory_time = batch * traffic * inv_bw

        flops = 2.0 * batch * m * k * n
        time = np.maximum(np.maximum(compute, memory_time), flops / self.peak_flops)
        return {
            "time": time.reshape(shape),
            "memory_bound": (memory_time > compute).reshape(shape),
            "piece": choice.reshape(shape),
            "mac_fraction": fractions[choice].reshape(shape),
        }

    def labels(self) -> List[str]:
        return [piece["label"] for piece in self.pieces]


class StructuredAttentionPredictor:
    """Fitted dense-attention roofline (one head layout, TP-sharded).

    Dense attention has one jump discontinuity tabulation cannot cross
    -- Gaudi's FusedSDPA spills a score-matrix fraction through HBM
    once the staged slice outgrows SRAM -- so, like GEMM, the surrogate
    keeps the exact *structure* (``max(compute, memory)`` over flops /
    traffic / spill-indicator features, the indicator replicated from
    the spec's SRAM size) and fits the coefficients by least squares
    on compute-bound and memory-bound samples respectively.
    """

    def __init__(self, coef: Dict, heads: Dict, spill: Dict) -> None:
        self.coef = dict(coef)
        self.heads = dict(heads)
        self.spill = dict(spill)

    # -- serialization -------------------------------------------------
    def to_payload(self) -> Dict:
        return {
            "kind": "structured-attention",
            "coef": dict(self.coef),
            "heads": dict(self.heads),
            "spill": dict(self.spill),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "StructuredAttentionPredictor":
        if payload.get("kind") != "structured-attention":
            raise ValueError(
                f"not a structured-attention payload: {payload.get('kind')!r}"
            )
        return cls(coef=payload["coef"], heads=payload["heads"],
                   spill=payload["spill"])

    def features(self, tp, batch, seq) -> Dict[str, np.ndarray]:
        """Exact closed-form feature basis for equal-length causal
        self-attention at TP degree ``tp`` (heads shard with TP)."""
        tp = np.asarray(tp, dtype=float)
        batch = np.asarray(batch, dtype=float)
        seq = np.asarray(seq, dtype=float)
        tp, batch, seq = np.broadcast_arrays(tp, batch, seq)
        q_heads = self.heads["q_heads"] / tp
        kv_heads = np.maximum(1.0, self.heads["kv_heads"] / tp)
        dim = self.heads["head_dim"]
        itemsize = self.heads["itemsize"]
        flops = 2.0 * batch * q_heads * seq * seq * dim  # causal half
        qo_kv = 2.0 * batch * (q_heads + kv_heads) * seq * dim * itemsize
        score = batch * q_heads * seq * seq * itemsize
        slice_bytes = batch * q_heads * np.minimum(seq, 512.0) * seq * itemsize
        spilled = (
            (slice_bytes > self.spill["sram_bytes"])
            if self.spill["enabled"]
            else np.zeros(seq.shape, dtype=bool)
        )
        return {
            "flops": flops,
            "qo_kv_bytes": qo_kv,
            "spill_bytes": np.where(spilled, score, 0.0),
        }

    def predict(self, tp, batch, seq) -> np.ndarray:
        f = self.features(tp, batch, seq)
        coef = self.coef
        compute = coef["compute_flops"] * f["flops"] + coef["compute_const"]
        memory = (
            coef["mem_traffic"] * f["qo_kv_bytes"]
            + coef["mem_spill"] * f["spill_bytes"]
            + coef["mem_const"]
        )
        return np.maximum(compute, memory)


class LogGridPredictor:
    """N-D multilinear interpolation in ``log2`` space over a lattice.

    ``axes`` is an ordered list of ``{"name", "values", "mode"}`` where
    ``mode`` is ``"interp"`` (log2 multilinear between lattice values,
    clamped at the edges) or ``"exact"`` (queries must hit a lattice
    value; anything else is out of domain and the caller falls back to
    the exact model).  ``log2_times`` is the row-major table of
    ``log2(time)`` over the axis product.
    """

    def __init__(self, axes: Sequence[Dict], log2_times: Sequence[float]) -> None:
        self.axes = [
            {
                "name": axis["name"],
                "values": [int(v) for v in axis["values"]],
                "mode": axis["mode"],
            }
            for axis in axes
        ]
        expected = 1
        for axis in self.axes:
            expected *= len(axis["values"])
        table = np.asarray(log2_times, dtype=float)
        if table.size != expected:
            raise ValueError(
                f"table size {table.size} != lattice size {expected}"
            )
        self.table = table.reshape([len(axis["values"]) for axis in self.axes])

    # -- serialization -------------------------------------------------
    def to_payload(self) -> Dict:
        return {
            "kind": "log-grid",
            "axes": [dict(axis) for axis in self.axes],
            "log2_times": [float(v) for v in self.table.ravel()],
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "LogGridPredictor":
        if payload.get("kind") != "log-grid":
            raise ValueError(f"not a log-grid payload: {payload.get('kind')!r}")
        return cls(axes=payload["axes"], log2_times=payload["log2_times"])

    # -- prediction ----------------------------------------------------
    def in_domain(self, *coords) -> np.ndarray:
        """Whether each point can be served by the table.

        ``exact`` axes must hit a lattice value; ``interp`` axes only
        need to be positive (edge clamping covers the rest)."""
        coords = [np.asarray(c) for c in np.broadcast_arrays(*coords)]
        ok = np.ones(coords[0].shape, dtype=bool)
        for axis, values in zip(self.axes, coords):
            if axis["mode"] == "exact":
                ok &= np.isin(values, axis["values"])
            else:
                ok &= values > 0
        return ok

    def predict(self, *coords) -> np.ndarray:
        """Interpolated times for parallel coordinate arrays (one array
        per axis, in declaration order)."""
        coords = [np.asarray(c, dtype=float) for c in np.broadcast_arrays(*coords)]
        shape = coords[0].shape
        flat = [c.ravel() for c in coords]
        points = flat[0].size

        # Per axis: bracketing lower index + interpolation fraction.
        lows: List[np.ndarray] = []
        fracs: List[np.ndarray] = []
        for axis, values in zip(self.axes, flat):
            lattice = np.asarray(axis["values"], dtype=float)
            if axis["mode"] == "exact":
                low = np.searchsorted(lattice, values)
                low = np.clip(low, 0, lattice.size - 1)
                if not np.all(lattice[low] == values):
                    bad = values[lattice[np.clip(low, 0, lattice.size - 1)] != values]
                    raise ValueError(
                        f"axis {axis['name']!r} is exact-match; "
                        f"off-lattice value {bad[0]!r}"
                    )
                lows.append(low)
                fracs.append(np.zeros(points))
                continue
            logs = np.log2(np.clip(values, lattice[0], lattice[-1]))
            log_lattice = np.log2(lattice)
            low = np.searchsorted(log_lattice, logs, side="right") - 1
            low = np.clip(low, 0, lattice.size - 2 if lattice.size > 1 else 0)
            if lattice.size > 1:
                span = log_lattice[low + 1] - log_lattice[low]
                frac = (logs - log_lattice[low]) / span
            else:
                frac = np.zeros(points)
            lows.append(low)
            fracs.append(np.clip(frac, 0.0, 1.0))

        # Multilinear combine over the 2^d corners (d = #interp axes
        # with >1 lattice value; other axes contribute one corner).
        result = np.zeros(points)
        active = [
            index
            for index, axis in enumerate(self.axes)
            if axis["mode"] == "interp" and len(axis["values"]) > 1
        ]
        for corner in range(1 << len(active)):
            weight = np.ones(points)
            index = [low.copy() for low in lows]
            for bit, axis_index in enumerate(active):
                if corner >> bit & 1:
                    index[axis_index] = index[axis_index] + 1
                    weight = weight * fracs[axis_index]
                else:
                    weight = weight * (1.0 - fracs[axis_index])
            result += weight * self.table[tuple(index)]
        return np.exp2(result).reshape(shape)
