"""Surrogate cost models: the certified fit behind the ``design_space`` figure.

The exact per-backend cost models (MME/tensor-core GEMM geometry,
attention, paged attention, collectives, TPC STREAM) are deterministic
functions of shape and config.  This package samples them over
structured lattices, fits per-surface predictors
(:mod:`~repro.surrogate.predictors`), and certifies each fit on
held-out points (:func:`fit_backend`; :meth:`SurrogateModel.from_payload`
refuses a surface whose held-out error exceeds its tolerance).
:func:`design_space_sweep` prices the ``design_space`` figure's grid
through the fitted surfaces, and its ``exact=True`` twin prices the
same grid through the exact models.

Every serving path prices through the exact models; the surrogate is
no backend.  DESIGN.md §12 says why the fit itself stays for now.
"""

from __future__ import annotations

from repro.surrogate.backend import get_surrogate_model
from repro.surrogate.fitting import SCHEMA, SurrogateModel, fit_backend, fit_surface
from repro.surrogate.predictors import LogGridPredictor, StructuredGemmPredictor
from repro.surrogate.surfaces import SURFACES, Surface, surface_names
from repro.surrogate.sweep import design_space_sweep

__all__ = [
    "SCHEMA",
    "SURFACES",
    "LogGridPredictor",
    "StructuredGemmPredictor",
    "Surface",
    "SurrogateModel",
    "design_space_sweep",
    "fit_backend",
    "fit_surface",
    "get_surrogate_model",
    "surface_names",
]
