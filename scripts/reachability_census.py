#!/usr/bin/env python
"""Reachability census: which ``src/repro`` functions no entry point runs.

Runs every entry point the repository documents under a
``sys.setprofile`` hook and records which functions of ``src/repro``
were called:

* every ``examples/*.py`` script;
* every ``python -m repro`` invocation of the CI workflow
  (``.github/workflows/ci.yml``), in-process through ``repro.cli.main``
  with the argv the workflow's shell passes (a ``REPRO_NO_MEMO=1``
  rerun is the second pass below; ``tests/test_reachability_census.py``
  checks the two lists agree);
* the CLI flows the verification recipe drives (specs, gemm, serve,
  chaos, smi, top, reproduce/resume, the usage-error exits), plus one
  ``serve`` whose step watchdog trips (``REPRO_WATCHDOG_STEPS=5``);
* ``scripts/check_streaming_memory.py`` (on a short trace).

All of it runs twice, each time in a fresh process: once with
memoization on, once with ``REPRO_NO_MEMO=1 REPRO_AUDIT=strict`` (the
uncached reference paths and every audit check).  A function counts as
reached if either pass called it.

The report lists, per module, the functions that never ran.  The
script exits 1 when some ``src/repro`` module defines functions and
none of them ran (code that only tests keep alive), or when a flow
ends with an exit code other than the one it expects.  Every output
file the flows write goes to a temporary directory, never into the
checkout.

Usage::

    python scripts/reachability_census.py
"""

from __future__ import annotations

import contextlib
import inspect
import multiprocessing
import os
import queue
import runpy
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: (file, first line, name): how a function is matched between its
#: compiled source and the frames the hook sees.
FunctionKey = Tuple[str, int, str]


class Flow(NamedTuple):
    """One entry point: ``repro`` CLI arguments or a script path."""

    label: str
    argv: Sequence[str]
    script: Optional[Path] = None
    env: Tuple[Tuple[str, str], ...] = ()
    exit_code: int = 0


def _cli(*argv: str, env: Tuple[Tuple[str, str], ...] = (), exit_code: int = 0) -> Flow:
    return Flow("repro " + " ".join(argv), argv, None, env, exit_code)


def _script(path: Path, *argv: str) -> Flow:
    return Flow(str(path.relative_to(REPO)), argv, path)


_STRICT = (("REPRO_AUDIT", "strict"),)
_FLEET_CHAOS = "crash:gaudi2-1@t=2,recover=6;brownout:a100-0@t=1,factor=0.5,until=4"
_HEDGE = (
    "fleet", "--nodes", "2x gaudi2,1x a100", "--requests", "96", "--rate", "40",
    "--max-batch", "4", "--policy", "least-loaded", "--timeout", "20",
    "--hedge-after", "0.05", "--chaos", "crash:gaudi2-1@t=1,recover=3",
    "--format", "json",
)
_AUTOSCALE = (
    "fleet", "--nodes", "1x gaudi2", "--max-batch", "4", "--autoscale", "--diurnal",
    "--diurnal-period", "10", "--requests", "300", "--rate", "60", "--timeout", "20",
    "--slo-ttft", "0.5", "--autoscale-interval", "1", "--autoscale-cooldown", "2",
    "--max-nodes", "3", "--provision-delay", "0.5", "--format", "json",
    "--audit", "strict",
)

#: Every flow, in run order; relative paths land in the pass's
#: temporary working directory.
FLOWS: Tuple[Flow, ...] = (
    *(_script(path) for path in sorted((REPO / "examples").glob("*.py"))),
    # CI workflow, argv as its shell splits them.
    _cli("reproduce", "--out", "runs/ci-reproduce", env=_STRICT),
    _cli("fleet", "--nodes", "2x", "gaudi2,1x", "a100", "--requests", "48", "--rate", "8",
         "--policy", "least-loaded", "--timeout", "20", "--chaos", _FLEET_CHAOS,
         "--audit", "strict", "--trace-out", "fleet_trace.json"),
    _cli("fleet", "--nodes", "2x", "gaudi2,1x", "a100,1x", "h100", "--requests", "48",
         "--rate", "8", "--policy", "least-loaded", "--timeout", "20", "--chaos",
         "crash:h100-0@t=2,recover=6;brownout:a100-0@t=1,factor=0.5,until=4",
         "--audit", "strict"),
    _cli("fleet", "--nodes", "3x", "gaudi2", "--max-batch", "4", "--requests", "96",
         "--rate", "40", "--timeout", "10", "--tenants",
         "gold:tier=0,share=0.25,weight=4,slo=2;silver:tier=1,share=0.35,weight=2;"
         "bronze:tier=2,share=0.4,rate=8,burst=8",
         "--admission", "--shed-delay", "0.8", "--admission-target-delay", "0.4",
         "--breaker", "--upgrade", "start=1", "--chaos", "crash:gaudi2-1@t=2,recover=6",
         "--audit", "strict"),
    _cli("fleet", "--nodes", "2x gaudi2,2x a100", "--requests", "300", "--rate", "30",
         "--seed", "5", "--chaos",
         "fabric:gaudi2-0@t=1,factor=0.25,until=5;fabric:a100-1@t=2,factor=0.5,until=4;"
         "crash:gaudi2-1@t=2,recover=6",
         "--format", "json", "--audit", "strict"),
    _cli("serve", "--requests", "400", "--format", "json"),
    _cli("serve", "--backend", "a100", "--model", "70b", "--tp", "8", "--requests", "200",
         "--format", "json"),
    _cli("serve", "--backend", "gaudi3", "--tp", "8", "--requests", "200", "--format", "json"),
    _cli("serve", "--backend", "h100", "--tp", "8", "--requests", "200", "--format", "json"),
    _cli("figures", "--full"),
    _cli("trace", "--requests", "200", "--tp", "8", "--out", "runs/trace-memo.json"),
    _cli("trace", "--backend", "a100", "--requests", "200", "--tp", "8",
         "--out", "runs/trace-memo.json"),
    _cli(*_HEDGE),
    _cli(*_HEDGE, "--trace-out", "runs/fleet-hedge-trace.json"),
    _cli(*_AUTOSCALE),
    _cli(*_AUTOSCALE, "--trace-out", "runs/fleet-autoscale-trace.json"),
    _cli("fleet", "--nodes", "2x gaudi2,1x a100", "--requests", "48", "--rate", "8",
         "--timeout", "20", "--tenants",
         "gold:tier=0,share=0.5,weight=4,slo=2;bronze:tier=2,share=0.5,rate=4,burst=4",
         "--admission", "--breaker", "--upgrade", "start=1", "--chaos",
         _FLEET_CHAOS + ";fabric:gaudi2-0@t=1.5,factor=0.25,until=5;"
         "blip:a100-0@t=3,duration=1",
         "--out", "runs/fleet-journal"),
    _cli("resume", "runs/fleet-journal"),
    _cli("figures", "--id", "table1", "--backend", "gaudi2", "--backend", "a100",
         "--backend", "h100"),
    _cli("figures", "--id", "fig04", "--backend", "gaudi2", "--backend", "a100",
         "--backend", "h100"),
    _cli("trace", "--fast", "--out", "trace.json"),
    # Verification recipe.
    _cli("specs"),
    _cli("backends"),
    _cli("gemm", "4096", "4096", "4096"),
    _cli("figures"),
    _cli("figures", "--markdown"),
    _cli("serve", "--backend", "gaudi2", "--max-batch", "16", "--requests", "16"),
    _cli("chaos", "--seed", "0", "--fail-device", "3@t=2.0"),
    _cli("chaos", "--kv-blocks", "40", "--deadline", "0.5", "--max-retries", "1"),
    _cli("smi", "--backend", "a100", "--workload", "recsys"),
    _cli("smi", "--backend", "gaudi2", "--workload", "llm"),
    _cli("top", "--samples", "4"),
    _cli("reproduce", "--out", "runs/r0", "--id", "table1", "--id", "fig04"),
    _cli("resume", "runs/r0"),
    _cli("serve", "--requests", "16", env=(("REPRO_WATCHDOG_STEPS", "5"),)),
    _cli("chaos", "--fail-device", "3", exit_code=2),
    _cli("fleet", "--chaos", "crash:gaudi2-0", exit_code=2),
    _cli("fleet", "--tenants", "gold:tier=x", exit_code=2),
    _cli("figures", "--id", "nope", exit_code=2),
    _cli("serve", "--requests", "0", exit_code=2),
    _cli("resume", "runs/missing", exit_code=2),
    _cli("serve", env=(("REPRO_WATCHDOG_STEPS", "abc"),), exit_code=2),
    # CI runs it at its default --small 1000; the short trace reaches the
    # same code (memo off, 10 000 requests take ~50 s on their own).
    _script(REPO / "scripts" / "check_streaming_memory.py", "--small", "100"),
)

#: The two passes: memoization on, then the uncached paths under strict audit.
PASSES: Tuple[Tuple[str, Dict[str, str]], ...] = (
    ("memo on", {}),
    ("REPRO_NO_MEMO=1 REPRO_AUDIT=strict", {"REPRO_NO_MEMO": "1", "REPRO_AUDIT": "strict"}),
)


# ----------------------------------------------------------------------
# Defined functions (parent process)

def _code_functions(code: types.CodeType, prefix: str, out: Dict[FunctionKey, str]) -> None:
    for const in code.co_consts:
        if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
            continue  # lambdas and comprehensions are expressions, not functions
        if const.co_flags & inspect.CO_OPTIMIZED:
            qualname = prefix + const.co_name
            out[(const.co_filename, const.co_firstlineno, const.co_name)] = qualname
            _code_functions(const, qualname + ".<locals>.", out)
        else:  # a class body
            _code_functions(const, prefix + const.co_name + ".", out)


def defined_functions() -> Dict[str, Dict[FunctionKey, str]]:
    """Every function each ``src/repro`` module defines, by module path."""
    modules: Dict[str, Dict[FunctionKey, str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        filename = os.path.realpath(path)
        functions: Dict[FunctionKey, str] = {}
        _code_functions(compile(path.read_text(), filename, "exec"), "", functions)
        modules[str(path.relative_to(SRC))] = functions
    return modules


# ----------------------------------------------------------------------
# One pass (child process)

def _run_flow(flow: Flow, base_env: Dict[str, str]) -> Optional[str]:
    """Run one flow in this process; returns a failure line or None."""
    from repro.audit import configure
    from repro.cli import main

    os.environ.clear()
    os.environ.update(base_env)
    os.environ.update(flow.env)
    configure(os.environ.get("REPRO_AUDIT", "off"))  # the auditor follows this flow's env
    argv = sys.argv
    try:
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                if flow.script is None:
                    code = main(list(flow.argv))
                else:
                    sys.argv = [str(flow.script), *flow.argv]
                    runpy.run_path(str(flow.script), run_name="__main__")
                    code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # reported as a failed flow; the census exits 1
        return f"{flow.label}: {traceback.format_exc(limit=-1).strip().splitlines()[-1]}"
    finally:
        sys.argv = argv
    if code != flow.exit_code:
        return f"{flow.label}: exit {code}, expected {flow.exit_code}"
    return None


def _census_pass(env: Dict[str, str], results) -> None:
    """Child process: run every flow under the hook; send back the
    reached ``src/repro`` functions and any failed flows."""
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    seen: Set[int] = set()
    codes: List[types.CodeType] = []  # keeps each id unique

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen.add(id(code))
                codes.append(code)

    failures = []
    with tempfile.TemporaryDirectory(prefix="reachability-census-") as workdir:
        cwd = os.getcwd()
        os.chdir(workdir)
        base_env = dict(os.environ)
        sys.setprofile(hook)
        try:
            for flow in FLOWS:
                failure = _run_flow(flow, base_env)
                if failure:
                    failures.append(failure)
        finally:
            sys.setprofile(None)
            os.chdir(cwd)
    package = os.path.realpath(PACKAGE) + os.sep
    reached = set()
    for code in codes:
        filename = os.path.realpath(code.co_filename)
        if filename.startswith(package):
            reached.add((filename, code.co_firstlineno, code.co_name))
    results.put((sorted(reached), failures))


def run_pass(env: Dict[str, str]) -> Tuple[Set[FunctionKey], List[str]]:
    """One census pass in a fresh process (memoization reads its switch
    at import time)."""
    context = multiprocessing.get_context("spawn")
    results = context.Queue()
    process = context.Process(target=_census_pass, args=(env, results))
    process.start()
    reached, failures = [], []
    while True:
        alive = process.is_alive()
        try:
            reached, failures = results.get(timeout=1.0)
            break
        except queue.Empty:
            if not alive:  # it died without reporting
                break
    process.join()
    if process.exitcode != 0:
        failures.append(f"census pass exited with code {process.exitcode}")
    return set(reached), failures


# ----------------------------------------------------------------------

def main() -> int:
    modules = defined_functions()
    reached: Set[FunctionKey] = set()
    failures: List[str] = []
    for label, env in PASSES:
        start = time.perf_counter()
        pass_reached, pass_failures = run_pass(env)
        reached |= pass_reached
        failures += [f"[{label}] {line}" for line in pass_failures]
        print(f"pass {label}: {len(FLOWS)} flows, {len(pass_reached)} functions "
              f"reached, {time.perf_counter() - start:.1f} s")

    total = unreached_total = 0
    dead_modules = []
    for module, functions in modules.items():
        if not functions:
            continue
        unreached = sorted(
            (key[1], qualname) for key, qualname in functions.items() if key not in reached
        )
        total += len(functions)
        unreached_total += len(unreached)
        if not unreached:
            continue
        print(f"\n{module}: {len(unreached)} of {len(functions)} functions never ran")
        for line, qualname in unreached:
            print(f"    {line:5d}  {qualname}")
        if len(unreached) == len(functions):
            dead_modules.append(module)

    print(f"\n{unreached_total} of {total} src/repro functions never ran.")
    for failure in failures:
        print(f"FLOW FAILED: {failure}")
    for module in dead_modules:
        print(f"UNREACHED MODULE: {module} (no entry point runs any of its functions)")
    return 1 if failures or dead_modules else 0


if __name__ == "__main__":
    sys.exit(main())
