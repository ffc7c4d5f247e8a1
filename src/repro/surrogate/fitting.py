"""Deterministic fitting pipeline: exact samples -> certified predictors.

``fit_backend`` samples every surface in the catalogue against one
backend's exact cost models, fits the surface's predictor family, and
validates it on *held-out* points (drawn off-lattice from a
``SeedSequence``-derived generator, never from the training grid).  The
result is a :class:`SurrogateModel` whose payload is pure JSON: fitting
assembles the model *through* the payload, so a freshly fitted model and
one rebuilt from its payload are bit-identical by construction.

Determinism contract: every per-surface fit is a self-contained task of
``(backend, surface, seed)`` -- sampling grids are fixed lattices, the
holdout generator derives from ``SeedSequence([seed, surface_index])``,
and summary statistics use ``math.fsum`` -- so a fit is bit-identical
across runs and across the serial/process-pool paths
(:func:`repro.core.parallel.map_with_retries` preserves task order).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.audit.errors import ConfigError
from repro.surrogate.predictors import (
    LogGridPredictor,
    StructuredAttentionPredictor,
    StructuredGemmPredictor,
    _passes,
    _tiles,
    blocked_traffic,
    parse_geometry_label,
)
from repro.surrogate.surfaces import SURFACES, Surface, surface_names

__all__ = ["SCHEMA", "SurrogateModel", "fit_backend", "fit_surface"]

#: Payload schema identifier (bump on any payload layout change).
SCHEMA = "repro-surrogate/v1"

#: Boundary of the "narrow" memory class -- must match the skinny-shape
#: conditionals in the exact models (``min(m, n) < 128``).
_NARROW_BELOW = 128

#: Deterministic mode preference when residuals tie.
_MODE_ORDER = ("fill", "wave", "streamk")

#: Held-out GEMM dims are drawn log-uniformly from this range.
_HOLDOUT_DIMS = (16, 16384)


class SurrogateModel:
    """Fitted predictors + validation certificates for one backend."""

    def __init__(self, backend: str, surfaces: Dict[str, Dict]) -> None:
        self.backend = backend
        self.surfaces = surfaces
        self._predictors: Dict[str, object] = {}

    # -- payload (pure JSON both ways) ---------------------------------
    def to_payload(self) -> Dict:
        return {
            "schema": SCHEMA,
            "backend": self.backend,
            "surfaces": self.surfaces,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "SurrogateModel":
        """Build a model, refusing any surface whose held-out error
        exceeds its tolerance."""
        schema = payload.get("schema")
        if schema != SCHEMA:
            raise ConfigError(
                f"surrogate payload schema {schema!r} != expected {SCHEMA!r}"
            )
        model = cls(backend=payload["backend"], surfaces=payload["surfaces"])
        for name in model.surfaces:
            certificate = model.certificate(name)
            tolerance = model.tolerance(name)
            if not (certificate["max_rel_err"] <= tolerance):
                raise ConfigError(
                    f"surrogate surface {name!r} for {model.backend!r} "
                    f"certifies max relative error "
                    f"{certificate['max_rel_err']:.4%} > tolerance "
                    f"{tolerance:.2%}; refusing to load"
                )
        return model

    # -- accessors -----------------------------------------------------
    def certificate(self, name: str) -> Dict:
        return self.surfaces[name]["certificate"]

    def tolerance(self, name: str) -> float:
        return self.surfaces[name]["tolerance"]

    def predictor(self, name: str):
        predictor = self._predictors.get(name)
        if predictor is None:
            payload = self.surfaces[name]["predictor"]
            if payload["kind"] == "structured-gemm":
                predictor = StructuredGemmPredictor.from_payload(payload)
            elif payload["kind"] == "structured-attention":
                predictor = StructuredAttentionPredictor.from_payload(payload)
            else:
                predictor = LogGridPredictor.from_payload(payload)
            self._predictors[name] = predictor
        return predictor

    # -- typed query helpers (scalar or array alike) -------------------
    def gemm_predict(self, m, k, n, batch) -> Dict[str, np.ndarray]:
        return self.predictor("gemm").predict(m, k, n, batch)

    def attention_time(self, tp, batch, seq) -> np.ndarray:
        return self.predictor("attention").predict(tp, batch, seq)

    def paged_time(self, tp, batch, context) -> np.ndarray:
        from repro.surrogate.surfaces import PAGED_BLOCK_SIZE

        blocks = np.ceil(np.asarray(context, dtype=float) / PAGED_BLOCK_SIZE)
        return self.predictor("paged").predict(tp, batch, blocks)

    def collective_time(self, op_value: str, size, participants) -> np.ndarray:
        return self.predictor(f"collective.{op_value}").predict(size, participants)

    def stream_time(self, num_elements) -> np.ndarray:
        return self.predictor("tpc_stream").predict(num_elements)


# -- gemm fitting ------------------------------------------------------
def _fit_gemm(device, surface: Surface) -> Dict:
    points = surface.lattice_points()
    samples = [device.gemm(m, k, n, batch=b) for (m, k, n, b) in points]
    spec = device.spec
    from repro.hw.spec import DType

    peak = spec.matrix.peak(DType.BF16)
    cores = spec.vector.num_cores
    itemsize = DType.BF16.itemsize
    sram_bytes = spec.memory.sram_bytes

    m = np.array([s.m for s in samples], dtype=float)
    k = np.array([s.k for s in samples], dtype=float)
    n = np.array([s.n for s in samples], dtype=float)
    batch = np.array([s.batch for s in samples], dtype=float)
    time = np.array([s.time for s in samples], dtype=float)
    bound = np.array([s.memory_bound for s in samples], dtype=bool)
    # One piece per engine *geometry*: cuda labels append the wave
    # count ("CTA 128x128, 3 waves"), which would fragment a geometry
    # into per-wave-count slivers -- strip it before grouping.
    labels = np.array([s.config_label.split(",")[0] for s in samples], dtype=object)

    pieces: List[Dict] = []
    for label in sorted(set(labels)):
        mask = labels == label
        height, width, engines = parse_geometry_label(label)
        mac_fraction = max(s.active_mac_fraction for s, hit in zip(samples, mask) if hit)
        fit_mask = mask & ~bound
        piece = {
            "label": str(label),
            "height": height,
            "width": width,
            "engines": engines,
            "mac_fraction": float(mac_fraction),
        }
        if int(fit_mask.sum()) >= 4:
            tiles = batch[fit_mask] * _tiles(m[fit_mask], n[fit_mask], height, width)
            best: Optional[Tuple[float, str, np.ndarray]] = None
            for mode in _MODE_ORDER:
                q, u = _passes(tiles, mode, engines, cores)
                design = np.stack([q * k[fit_mask], q, u, np.ones_like(q)], axis=1)
                coef, *_ = np.linalg.lstsq(design, time[fit_mask], rcond=None)
                coef = np.maximum(coef, 0.0)
                residual = float(np.max(np.abs(design @ coef - time[fit_mask])
                                        / time[fit_mask]))
                # A later mode must be an order of magnitude better to
                # displace an earlier one: on large tile counts the
                # fractional stream-K wave count shadows the ceil modes
                # within the sample noise, but extrapolates wrongly to
                # small shapes.  The true mode recovers the exact basis
                # (residual ~1e-12), so the margin is safe.
                if best is None or residual < 0.1 * best[0]:
                    best = (residual, mode, coef)
            _, mode, coef = best
            piece.update(mode=mode, alpha=float(coef[0]), beta=float(coef[1]),
                         gamma=float(coef[2]), delta=float(coef[3]))
        else:
            # Geometry only ever chosen for memory-bound shapes in the
            # sample grid: give its compute side the ideal-MAC roofline
            # so piece selection still prefers bigger geometries.
            piece.update(mode="fill", alpha=float(2.0 * height * width * engines / peak),
                         beta=0.0, gamma=0.0, delta=0.0)
        pieces.append(piece)

    traffic = blocked_traffic(m, k, n, itemsize, sram_bytes)
    ratio = time / (batch * traffic)
    narrow = np.minimum(m, n) < _NARROW_BELOW
    fallback = 1.0 / spec.memory.bandwidth

    def _class_inv_bw(mask: np.ndarray) -> float:
        selected = ratio[mask & bound]
        return float(np.median(selected)) if selected.size else fallback

    memory = {
        "itemsize": itemsize,
        "sram_bytes": int(sram_bytes),
        "narrow_below": _NARROW_BELOW,
        "inv_bw_narrow": _class_inv_bw(narrow),
        "inv_bw_wide": _class_inv_bw(~narrow),
    }
    predictor = StructuredGemmPredictor(
        pieces=pieces, memory=memory, peak_flops=peak, cores=cores,
    )
    return predictor.to_payload()


def _holdout_gemm(device, predictor: StructuredGemmPredictor,
                  rng: np.random.Generator, points: int) -> List[float]:
    lo, hi = _HOLDOUT_DIMS
    dims = np.round(np.exp2(rng.uniform(math.log2(lo), math.log2(hi),
                                        size=(points, 3)))).astype(int)
    dims = np.clip(dims, lo, hi)
    batches = rng.choice([1, 2, 4, 8, 16], size=points)
    predicted = predictor.predict(dims[:, 0], dims[:, 1], dims[:, 2], batches)["time"]
    errors: List[float] = []
    for index in range(points):
        m, k, n = (int(v) for v in dims[index])
        exact = device.gemm(m, k, n, batch=int(batches[index])).time
        errors.append(abs(float(predicted[index]) - exact) / exact)
    return errors


# -- attention fitting -------------------------------------------------
def _fit_attention(device, surface: Surface) -> Dict:
    from repro.hw.spec import DType
    from repro.kernels.attention import AttentionConfig, attention_time
    from repro.surrogate.surfaces import (
        ATTENTION_HEAD_DIM,
        ATTENTION_KV_HEADS,
        ATTENTION_Q_HEADS,
    )

    spec = device.spec
    itemsize = DType.BF16.itemsize
    heads = {
        "q_heads": ATTENTION_Q_HEADS,
        "kv_heads": ATTENTION_KV_HEADS,
        "head_dim": ATTENTION_HEAD_DIM,
        "itemsize": itemsize,
    }
    spill = {
        "enabled": device.family == "gaudi",
        "sram_bytes": int(spec.memory.sram_bytes),
    }
    probe = StructuredAttentionPredictor(
        coef={}, heads=heads, spill=spill,
    )

    points = surface.lattice_points()
    results = []
    for tp, batch, seq in points:
        config = AttentionConfig(
            batch=batch, q_heads=ATTENTION_Q_HEADS // tp,
            kv_heads=max(1, ATTENTION_KV_HEADS // tp),
            head_dim=ATTENTION_HEAD_DIM, seq_q=seq, seq_kv=seq,
        )
        results.append(attention_time(device, config))
    tp = np.array([p[0] for p in points], dtype=float)
    batch = np.array([p[1] for p in points], dtype=float)
    seq = np.array([p[2] for p in points], dtype=float)
    time = np.array([r.time for r in results], dtype=float)
    bound = np.array([r.memory_bound for r in results], dtype=bool)
    features = probe.features(tp, batch, seq)

    def _solve(mask: np.ndarray, columns: Sequence[np.ndarray],
               fallback: Sequence[float]) -> List[float]:
        if int(mask.sum()) < len(columns) + 1:
            return [float(v) for v in fallback]
        design = np.stack([col[mask] for col in columns]
                          + [np.ones(int(mask.sum()))], axis=1)
        # Weight rows by 1/time: minimize *relative* residuals, so the
        # launch-overhead constant is recovered from small shapes
        # instead of vanishing under the large ones.
        weights = 1.0 / time[mask]
        coef, *_ = np.linalg.lstsq(design * weights[:, None],
                                   np.ones(int(mask.sum())), rcond=None)
        return [float(v) for v in np.maximum(coef, 0.0)]

    peak = spec.matrix.peak(DType.BF16)
    stream_bw = spec.memory.bandwidth * spec.memory.stream_efficiency
    compute_coef = _solve(
        ~bound, [features["flops"]],
        [1.0 / (peak * device.attention_efficiency), spec.kernel_launch_overhead],
    )
    memory_coef = _solve(
        bound, [features["qo_kv_bytes"], features["spill_bytes"]],
        [1.0 / stream_bw, 0.24 / stream_bw, spec.kernel_launch_overhead],
    )
    predictor = StructuredAttentionPredictor(
        coef={
            "compute_flops": compute_coef[0],
            "compute_const": compute_coef[1],
            "mem_traffic": memory_coef[0],
            "mem_spill": memory_coef[1],
            "mem_const": memory_coef[2],
        },
        heads=heads,
        spill=spill,
    )
    return predictor.to_payload()


# -- log-grid fitting --------------------------------------------------
def _fit_log_grid(device, surface: Surface) -> Dict:
    times = [surface.evaluate(device, point) for point in surface.lattice_points()]
    predictor = LogGridPredictor(
        axes=surface.axes, log2_times=[math.log2(t) for t in times],
    )
    return predictor.to_payload()


def _holdout_log_grid(device, surface: Surface, predictor: LogGridPredictor,
                      rng: np.random.Generator, points: int) -> List[float]:
    coords: List[np.ndarray] = []
    for axis in surface.axes:
        values = axis["values"]
        if axis["mode"] == "exact" or len(values) == 1:
            coords.append(rng.choice(values, size=points))
        else:
            lo, hi = math.log2(values[0]), math.log2(values[-1])
            drawn = np.round(np.exp2(rng.uniform(lo, hi, size=points))).astype(int)
            coords.append(np.clip(drawn, values[0], values[-1]))
    predicted = predictor.predict(*coords)
    errors: List[float] = []
    for index in range(points):
        point = tuple(int(axis_coords[index]) for axis_coords in coords)
        exact = surface.evaluate(device, point)
        errors.append(abs(float(predicted[index]) - exact) / exact)
    return errors


# -- pipeline ----------------------------------------------------------
def fit_surface(base_key: str, name: str, seed: int = 0) -> Dict:
    """Fit + hold-out-validate one surface; returns its payload entry.

    Self-contained and deterministic in ``(base_key, name, seed)`` --
    the unit of work for the process-pool parallel path.
    """
    from repro.hw.backend import get_backend

    surface = SURFACES[name]
    device = get_backend(base_key, fresh=True)
    sequence = np.random.SeedSequence([seed, surface_names().index(name)])
    rng = np.random.Generator(np.random.PCG64(sequence))
    if surface.family == "structured-gemm":
        payload = _fit_gemm(device, surface)
        predictor = StructuredGemmPredictor.from_payload(payload)
        errors = _holdout_gemm(device, predictor, rng, surface.holdout_points)
    elif surface.family == "structured-attention":
        payload = _fit_attention(device, surface)
        predictor = StructuredAttentionPredictor.from_payload(payload)
        # Same off-lattice axis sampling as the tabulated surfaces.
        errors = _holdout_log_grid(device, surface, predictor, rng,
                                   surface.holdout_points)
    else:
        payload = _fit_log_grid(device, surface)
        predictor = LogGridPredictor.from_payload(payload)
        errors = _holdout_log_grid(device, surface, predictor, rng,
                                   surface.holdout_points)
    certificate = {
        "samples": len(surface.lattice_points()),
        "holdout": len(errors),
        "max_rel_err": float(max(errors)),
        "mean_rel_err": float(math.fsum(errors) / len(errors)),
        "seed": int(seed),
    }
    return {
        "predictor": payload,
        "certificate": certificate,
        "tolerance": surface.tolerance,
    }


def _fit_surface_task(task: Tuple[str, str, int]) -> Tuple[str, Dict]:
    base_key, name, seed = task
    return name, fit_surface(base_key, name, seed)


def fit_backend(
    base_key: str,
    seed: int = 0,
    workers: Optional[Union[int, str]] = None,
    surfaces: Optional[Sequence[str]] = None,
) -> SurrogateModel:
    """Fit every catalogued surface for one backend (certified model).

    Parallel and serial paths are bit-identical: each surface is an
    independent deterministic task and results assemble in task order.
    """
    from repro.core.parallel import map_with_retries
    from repro.hw.backend import resolve_backend

    base_key = resolve_backend(base_key)
    names = list(surfaces) if surfaces is not None else surface_names()
    tasks = [(base_key, name, seed) for name in names]
    fitted = map_with_retries(_fit_surface_task, tasks, workers=workers)
    payload = {
        "schema": SCHEMA,
        "backend": base_key,
        "surfaces": {name: entry for name, entry in fitted},
    }
    return SurrogateModel.from_payload(payload)
