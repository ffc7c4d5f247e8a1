"""Run API: shared context and common report protocol.

* :class:`RunContext` -- one object carrying tracer + metrics + seed +
  device, accepted by every ``run_*`` entry point as ``ctx=``;
* :class:`Report` / :func:`render_report` -- the ``to_json`` /
  ``to_csv`` / ``render`` protocol all result objects conform to, and
  the CLI's single rendering path over it.
"""

from repro.api.context import RunContext
from repro.api.report import Report, render_report, rows_to_csv

__all__ = [
    "Report",
    "RunContext",
    "render_report",
    "rows_to_csv",
]
