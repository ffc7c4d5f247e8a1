#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Run with::

    python examples/reproduce_paper.py          # fast sweeps (~30 s)
    python examples/reproduce_paper.py --full   # the full grids

Writes the rendered rows/series to ``paper_results/`` and prints each
artifact's headline summary.
"""

import argparse
import pathlib

from repro.audit import ConfigError
from repro.core.parallel import resolve_worker_count
from repro.figures import generate_all


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run the full parameter grids")
    parser.add_argument("--out", default="paper_results",
                        help="output directory for the rendered reports")
    parser.add_argument("--workers", default=None,
                        help="process-pool size for figure generation "
                             "('auto' = one per core, capped)")
    args = parser.parse_args()
    try:
        # A bad --workers (or REPRO_WORKERS when the flag is absent)
        # fails before the output directory or any figure is made.
        resolve_worker_count(args.workers, tasks=1)
    except ConfigError as exc:
        parser.error(str(exc))

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(exist_ok=True)

    results = generate_all(fast=not args.full, workers=args.workers)
    for figure_id, result in results.items():
        (out_dir / f"{figure_id}.txt").write_text(result.text + "\n")
        print(f"== {figure_id}: {result.title} ({len(result.rows)} rows) ==")
        for key, value in result.summary.items():
            print(f"   {key} = {value:.4g}")
        print()
    print(f"full reports written to {out_dir}/")


if __name__ == "__main__":
    main()
