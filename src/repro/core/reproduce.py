"""Journaled, crash-safe reproduction of the paper's figures.

``python -m repro reproduce`` runs every registered figure and records
each completed one in an append-only :class:`~repro.core.journal.RunJournal`
under the run directory.  If the process dies mid-run -- a killed
worker, an interrupt, an OOM -- ``python -m repro resume <run-dir>``
re-runs only the figures whose journal entries are missing or corrupt.
Each figure's computation is deterministic, so the resumed run's
``report.txt`` / ``report.json`` are byte-identical to an
uninterrupted run: both are rendered *from the journal payloads*, in
sorted figure order, never from in-memory state.

The ``REPRO_TEST_DIE_AFTER_POINTS=N`` environment variable makes the
parent process hard-exit after journaling ``N`` new figures -- the
deterministic "crash" the resume tests rely on.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.audit.errors import JournalError
from repro.core.journal import RunJournal, encode
from repro.core.parallel import map_with_retries

__all__ = ["ReproduceResult", "reproduce", "resume"]

#: Exit code used by the deterministic test-crash hook.
DIE_EXIT_CODE = 86


def _run_one(task) -> Dict[str, object]:
    """Process-pool task: run one figure, return its payload.  Top
    level so it pickles; workers inherit ``REPRO_AUDIT`` via env."""
    figure_id, fast = task
    from repro.figures import run_figure

    return encode(run_figure(figure_id=figure_id, fast=fast))


@dataclass
class ReproduceResult:
    """Outcome of one (possibly resumed) reproduction run."""

    run_dir: pathlib.Path
    fast: bool
    #: figure id -> journal payload, for every requested figure.
    figures: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Figures computed by this invocation.
    ran: List[str] = field(default_factory=list)
    #: Figures reused from the journal (already completed earlier).
    reused: List[str] = field(default_factory=list)
    #: Corrupt/torn journal lines skipped on load.
    skipped_corrupt: int = 0

    @property
    def report_txt(self) -> pathlib.Path:
        return self.run_dir / "report.txt"

    @property
    def report_json(self) -> pathlib.Path:
        return self.run_dir / "report.json"

    def render(self) -> str:
        lines = [
            f"Reproduction run: {self.run_dir} "
            f"({'fast' if self.fast else 'full'} mode)",
            f"  figures    : {len(self.figures)} total | "
            f"{len(self.ran)} computed | {len(self.reused)} reused from journal",
        ]
        if self.skipped_corrupt:
            lines.append(
                f"  journal    : {self.skipped_corrupt} corrupt line(s) skipped"
            )
        for figure_id in sorted(self.figures):
            payload = self.figures[figure_id]
            marker = "journal" if figure_id in self.reused else "ran"
            lines.append(f"    {figure_id:<10s} [{marker:<7s}] {payload['title']}")
        lines.append(f"  reports    : {self.report_txt} | {self.report_json}")
        return "\n".join(lines)


def _render_report_text(
    header: Dict[str, object], figures: Dict[str, Dict[str, object]]
) -> str:
    """The final plain-text report, rendered purely from journal
    payloads in sorted figure order (the bit-identity contract)."""
    blocks = [
        "Reproduction report "
        f"({'fast' if header.get('fast') else 'full'} mode, "
        f"{len(figures)} figures)",
        "",
    ]
    for figure_id in sorted(figures):
        payload = figures[figure_id]
        blocks.append(f"== {figure_id}: {payload['title']} ==")
        for key in sorted(payload["summary"]):
            blocks.append(f"   {key} = {payload['summary'][key]:.4g}")
        blocks.append(payload["text"])
        blocks.append("")
    return "\n".join(blocks)


def reproduce(
    run_dir: Union[str, pathlib.Path],
    fast: bool = True,
    figure_ids: Optional[Sequence[str]] = None,
    workers=None,
) -> ReproduceResult:
    """Run the figure set, journaling each completed figure.

    Safe to call on a run directory that already holds a partial
    journal: already-completed figures are reused, not recomputed.  The
    stored header must match (same ``fast`` mode and figure set) or
    :class:`~repro.audit.JournalError` raises.
    """
    from repro.figures import FIGURES, get_figure

    run_dir = pathlib.Path(run_dir)
    if figure_ids is None:
        figure_ids = sorted(FIGURES)
    else:
        figure_ids = sorted(figure_ids)
        for figure_id in figure_ids:
            get_figure(figure_id)  # raises KeyError on unknown ids
    journal = RunJournal(run_dir)
    header = {"tool": "reproduce", "fast": bool(fast), "figures": list(figure_ids)}
    journal.write_header(header)

    _, points, skipped = journal.load()
    reused = [figure_id for figure_id in figure_ids if figure_id in points]
    pending = [figure_id for figure_id in figure_ids if figure_id not in points]

    die_after = int(os.environ.get("REPRO_TEST_DIE_AFTER_POINTS", "0") or "0")
    journaled = [0]

    def _journal_result(_index: int, payload: Dict[str, object]) -> None:
        journal.append(payload["figure_id"], payload)
        journaled[0] += 1
        if die_after and journaled[0] >= die_after:
            # Test hook: simulate a crash the instant the Nth point is
            # durable.  os._exit skips atexit/finally, like a real kill.
            os._exit(DIE_EXIT_CODE)

    if pending:
        map_with_retries(
            _run_one,
            [(figure_id, fast) for figure_id in pending],
            workers=workers,
            on_result=_journal_result,
        )

    _, points, skipped = journal.load()
    missing = [figure_id for figure_id in figure_ids if figure_id not in points]
    if missing:
        raise JournalError(
            f"journal {journal.path} is still missing figures {missing} "
            "after the run"
        )
    figures = {figure_id: points[figure_id] for figure_id in figure_ids}

    result = ReproduceResult(
        run_dir=run_dir,
        fast=bool(fast),
        figures=figures,
        ran=pending,
        reused=reused,
        skipped_corrupt=skipped,
    )
    result.report_txt.write_text(_render_report_text(header, figures) + "\n")
    result.report_json.write_text(
        json.dumps(
            {"config": header, "figures": figures}, indent=2, sort_keys=True
        )
        + "\n"
    )
    return result


def resume(run_dir: Union[str, pathlib.Path], workers=None) -> ReproduceResult:
    """Finish an interrupted reproduction run from its journal.

    Reads the journal header for the original parameters, re-runs only
    the missing/corrupt figures, and rewrites the reports -- which come
    out byte-identical to an uninterrupted run.
    """
    journal = RunJournal(pathlib.Path(run_dir))
    header = journal.load_header()
    if header is None:
        raise JournalError(
            f"no valid journal header under {run_dir}; nothing to resume "
            "(was the run started with `repro reproduce`?)"
        )
    if header.get("tool") != "reproduce":
        raise JournalError(
            f"journal under {run_dir} was written by "
            f"{header.get('tool')!r}, not `repro reproduce`"
        )
    return reproduce(
        run_dir,
        fast=bool(header.get("fast", True)),
        figure_ids=header.get("figures"),
        workers=workers,
    )
