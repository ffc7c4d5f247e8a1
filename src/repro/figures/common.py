"""Shared figure-harness infrastructure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List



@dataclass
class FigureResult:
    """Output of one table/figure regeneration."""

    figure_id: str
    title: str
    rows: List[Dict] = field(default_factory=list)
    #: Headline values tracked against the paper in EXPERIMENTS.md.
    summary: Dict[str, float] = field(default_factory=dict)
    #: Rendered plain-text report (what ``repro figures --out`` writes).
    text: str = ""

    def column(self, key: str) -> List:
        return [row[key] for row in self.rows]


#: Registry: figure id -> runner(fast) -> FigureResult.
FIGURES: Dict[str, Callable[[bool], FigureResult]] = {}


def register_figure(figure_id: str):
    """Decorator registering a figure runner under ``figure_id``."""

    def decorator(fn: Callable[[bool], FigureResult]):
        if figure_id in FIGURES:
            raise ValueError(f"figure {figure_id!r} registered twice")
        FIGURES[figure_id] = fn
        return fn

    return decorator


def get_figure(figure_id: str) -> Callable[[bool], FigureResult]:
    """Look up a registered figure runner by id."""
    try:
        return FIGURES[figure_id]
    except KeyError:
        raise KeyError(
            f"unknown figure {figure_id!r}; available: {sorted(FIGURES)}"
        ) from None


def run_figure(*, figure_id: str, fast: bool = True, ctx=None) -> FigureResult:
    """Run one registered table/figure regeneration.

    With a :class:`~repro.api.RunContext` passed as ``ctx``, the
    regeneration is counted under ``figures.*`` in its metrics
    registry.
    """
    result = get_figure(figure_id)(fast)
    if ctx is not None and ctx.metrics is not None:
        ctx.metrics.counter("figures.runs").inc()
        ctx.metrics.counter(f"figures.{figure_id}.runs").inc()
    return result
