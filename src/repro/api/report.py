"""The common :class:`Report` protocol all result objects speak.

Every report the stack produces -- a serving run
(:class:`~repro.serving.engine.ServingReport`), a chaos run
(:class:`~repro.faults.report.ResilienceReport`), a fleet run
(:class:`~repro.cluster.report.FleetResilienceReport`) -- exposes the same
three exports: ``to_json()``, ``to_csv()``, ``render()``.  The CLI
then prints any of them through one code path,
:func:`render_report`, instead of per-command formatting.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Protocol, Sequence, runtime_checkable


@runtime_checkable
class Report(Protocol):
    """Structural type of every exportable result object."""

    def to_json(self) -> str:
        """The report as a JSON document."""
        ...

    def to_csv(self) -> str:
        """The report as CSV text (one or more rows)."""
        ...

    def render(self) -> str:
        """The report as fixed-format human-readable text."""
        ...


def rows_to_csv(rows: Sequence[Dict[str, object]]) -> str:
    """Serialize row dicts as CSV, with the header being the union of
    keys in first-seen order (missing cells left empty)."""
    if not rows:
        raise ValueError("no rows to export")
    fieldnames: list = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def render_report(report: Report, fmt: str = "text") -> str:
    """One report, any format: ``text`` / ``json`` / ``csv``.

    This is the CLI's single rendering path; anything conforming to
    :class:`Report` plugs in without new per-command code.
    """
    if not isinstance(report, Report):
        raise TypeError(
            f"{type(report).__name__} does not implement the Report protocol "
            "(to_json/to_csv/render)"
        )
    if fmt == "text":
        return report.render()
    if fmt == "json":
        return report.to_json()
    if fmt == "csv":
        return report.to_csv()
    raise ValueError(f"unknown report format {fmt!r}; use text, json, or csv")
