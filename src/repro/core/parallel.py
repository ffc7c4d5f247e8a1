"""Worker-count policy and fault-tolerant fan-out for process pools.

Figure regeneration and load sweeps can fan across a process pool
(:mod:`repro.figures`, :mod:`repro.serving.loadgen`).
:func:`resolve_worker_count` centralizes how a ``workers`` knob
resolves: ``None`` defers to the ``REPRO_WORKERS`` environment
variable (default serial, so tests and library callers stay
single-process unless asked), ``"auto"``/``0`` uses the machine's
cores capped at :data:`MAX_AUTO_WORKERS`, and any positive integer is
taken literally; anything else is a :class:`~repro.audit.ConfigError`
(see :func:`parse_workers`).  The result is always clamped to the task
count -- spawning more workers than tasks only costs fork time.

:func:`map_with_retries` is the crash-safe ``pool.map``: a worker
process dying (OOM-killed, segfaulted) breaks a plain
``ProcessPoolExecutor`` and loses every queued task, so it rebuilds
the pool with exponential backoff and resubmits only the tasks that
had not completed.  Ordinary task exceptions still propagate; only
*worker death* is retried, and past the budget it raises the typed
:class:`~repro.audit.WorkerRetryExhausted`.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Optional, Sequence, Union

from repro.audit.errors import ConfigError, WorkerRetryExhausted

__all__ = ["MAX_AUTO_WORKERS", "map_with_retries", "parse_workers", "resolve_worker_count"]

#: Cap for "auto": figure regeneration has ~14 tasks and heavy imports
#: per worker, so more processes than this never pays for itself.
MAX_AUTO_WORKERS = 8


def parse_workers(workers: Union[int, str], source: str = "--workers") -> int:
    """A ``workers`` value as a count, ``0`` meaning "auto".

    Accepts a non-negative integer (or its decimal string) or ``"auto"``;
    anything else raises :class:`~repro.audit.ConfigError` naming
    ``source`` (the flag or environment variable it came from).
    """
    if isinstance(workers, str):
        text = workers.strip()
        if text.lower() == "auto":
            return 0
        if text.isascii() and text.isdigit():
            return int(text)
    elif isinstance(workers, int) and workers >= 0:
        return workers
    raise ConfigError(
        f"{source} must be a non-negative integer or 'auto', got {workers!r}"
    )


def resolve_worker_count(workers: Optional[Union[int, str]], tasks: int) -> int:
    """Resolve a ``workers`` knob to a concrete process count >= 1."""
    if tasks <= 0:
        return 1
    if workers is None:
        count = parse_workers(os.environ.get("REPRO_WORKERS", "1"), "REPRO_WORKERS")
    else:
        count = parse_workers(workers)
    if count == 0:  # "auto"
        count = min(os.cpu_count() or 1, MAX_AUTO_WORKERS)
    return max(1, min(count, tasks))


def map_with_retries(
    fn: Callable,
    tasks: Sequence,
    workers: Optional[Union[int, str]] = None,
    max_retries: int = 2,
    backoff_base: float = 0.5,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> List:
    """``[fn(t) for t in tasks]`` over a crash-tolerant process pool.

    Results come back in task order.  ``on_result(index, result)``
    fires in the parent as each task completes (journaling hook) --
    completion order, not task order.  A dead worker breaks the pool;
    the pool is rebuilt after ``backoff_base * 2**attempt`` seconds and
    only the unfinished tasks are resubmitted, up to ``max_retries``
    rebuilds, after which :class:`~repro.audit.WorkerRetryExhausted`
    raises.  Exceptions *raised by* a task are not retried -- they
    propagate immediately, exactly like serial execution.

    ``fn`` must be deterministic per task for resumed results to match
    uninterrupted ones (true for every sweep in this repo: each point
    derives its RNG from its own child seed).
    """
    tasks = list(tasks)
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    count = resolve_worker_count(workers, len(tasks))
    results: List = [None] * len(tasks)
    done = [False] * len(tasks)
    if count <= 1:
        for index, task in enumerate(tasks):
            results[index] = fn(task)
            done[index] = True
            if on_result is not None:
                on_result(index, results[index])
        return results

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    attempt = 0
    while not all(done):
        pending = [index for index, finished in enumerate(done) if not finished]
        pool = ProcessPoolExecutor(max_workers=min(count, len(pending)))
        try:
            futures = {pool.submit(fn, tasks[index]): index for index in pending}
            from concurrent.futures import as_completed

            for future in as_completed(futures):
                index = futures[future]
                results[index] = future.result()
                done[index] = True
                if on_result is not None:
                    on_result(index, results[index])
        except BrokenProcessPool as error:
            attempt += 1
            remaining = sum(1 for finished in done if not finished)
            if attempt > max_retries:
                raise WorkerRetryExhausted(
                    f"process pool broke {attempt} times "
                    f"({remaining} tasks unfinished); giving up: {error}"
                ) from error
            time.sleep(backoff_base * 2 ** (attempt - 1))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    return results
