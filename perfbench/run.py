"""Benchmark of the simulator's host time, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_stream --seed 0 --seconds 40 --trace 0

Every sample is a fresh single-threaded interpreter (``child.py``) with
the ``REPRO_*`` environment scrubbed.  Host times are scaled to a
reference host speed (see :data:`REFERENCE_CALIBRATION_S`).  With
``--trace 0`` the samples
are timed without spans and the end-to-end metrics are printed
(``setup_s``, ``run_s``, ``warm_run_s``, ``peak_rss_mb``, ``ok_frac``);
with ``--trace 1`` untraced cold samples alternate with traced ones and
the per-layer metrics are printed.  Every run's simulated outputs are
digested and checked against ``goldens.json`` and against each other.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Mapping, Optional

from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"

#: The calibration loop's time on the reference host (a 2-core Xeon VM
#: when in its fast state).  The host's speed drifts by up to a third
#: over minutes on shared machines; each sample's times are multiplied
#: by this over the sample's own calibration time, which cancels the
#: drift while keeping the numbers in (reference-host) seconds.
REFERENCE_CALIBRATION_S = 0.06
#: Fewest samples of each kind, however short ``--seconds`` is.
MIN_SAMPLES = 3
#: No new sample starts after this many seconds of a run.
START_CUTOFF_S = 120.0
#: A sample taking longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0

#: Environment variables that move a run onto another code path (scalar
#: core, process pool, audit, plugin backends) or bound it.
SCRUBBED_PREFIX = "REPRO_"
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "warm_run_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
}


class NoResult(RuntimeError):
    """No sample produced a usable measurement."""


def child_env(base: Mapping[str, str], src: pathlib.Path) -> Dict[str, str]:
    """The hermetic environment of one sample."""
    env = {
        key: value for key, value in base.items()
        if not key.startswith(SCRUBBED_PREFIX)
        and key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED")
    }
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(env: Dict[str, str], workload: str, seed: int, mode: str) -> dict:
    """Run one sample; returns its record (``error`` set on failure)
    with every host time scaled to the reference host speed."""
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode,
    ]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        record = {"runs": [], "error": f"sample exceeded {CHILD_TIMEOUT_S:g} s"}
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, ValueError):
            tail = proc.stderr.strip().splitlines()[-3:]
            record = {"runs": [], "error": f"exit {proc.returncode}: {' | '.join(tail)}"}
    record["mode"] = mode
    record["planned"] = {"prime": 0, "plain": 2}.get(mode, 1)
    if "ready" in record:
        record["setup_s"] = record["ready"] - start
    if "calibration_s" in record:
        scale_times(record)
    return record


def scale_times(record: dict) -> None:
    """Scale a sample's host times to the reference host speed: set-up
    by the calibration taken right after it, each run by its own."""
    factor = REFERENCE_CALIBRATION_S / record["calibration_s"]
    for key in ("setup_s", "import_s", "build_s"):
        if key in record:
            record[key] *= factor
    for run in record["runs"]:
        factor = REFERENCE_CALIBRATION_S / run["calibration_s"]
        run["seconds"] *= factor
        for key in run["layers"]:
            if key.endswith("_s"):
                run["layers"][key] *= factor


def collect(env, workload: str, seed: int, modes: List[str], seconds: float) -> List[dict]:
    """Cycle through ``modes`` while the next sample is expected to end
    within ``seconds``, and until each mode has :data:`MIN_SAMPLES`."""
    started = time.monotonic()
    records: List[dict] = []
    durations: Dict[str, List[float]] = {mode: [] for mode in modes}
    index = 0
    while True:
        mode = modes[index % len(modes)]
        elapsed = time.monotonic() - started
        done = min(len(d) for d in durations.values()) >= MIN_SAMPLES
        expected = statistics.median(durations[mode]) if durations[mode] else 0.0
        if (done and elapsed + expected > seconds) or elapsed >= START_CUTOFF_S:
            break
        index += 1
        start = time.monotonic()
        records.append(spawn(env, workload, seed, mode))
        durations[mode].append(time.monotonic() - start)
    return records


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}


def golden_digest(goldens: dict, workload: str, seed: int) -> Optional[str]:
    entry = goldens.get(workload, {})
    return entry.get(str(seed), entry.get("*"))


def score(records: List[dict], golden: Optional[str]) -> dict:
    """Attempted/failed run counts and the digest every run must match.

    A run fails when it raised (or never ran because its process died),
    when a workload-validity assertion failed, or when its digest differs
    from the golden digest -- or, for a seed without one, from the first
    digest of this benchmark run.
    """
    reference = golden
    attempted = failed = 0
    for record in records:
        attempted += record["planned"]
        good = 0
        for run in record["runs"]:
            if reference is None:
                reference = run["digest"]
            if run["digest"] == reference and not run["problems"]:
                good += 1
        failed += record["planned"] - good
    return {"attempted": attempted, "failed": failed, "reference": reference}


def _median(values: List[float], what: str) -> float:
    if not values:
        raise NoResult(f"no sample measured {what}")
    return statistics.median(values)


def _runs(records: List[dict], kind: str) -> List[dict]:
    return [run for record in records for run in record["runs"] if run["kind"] == kind]


def end_to_end(records: List[dict], tally: dict) -> Dict[str, float]:
    return {
        "setup_s": _median([r["setup_s"] for r in records if "setup_s" in r], "setup"),
        "run_s": _median([run["seconds"] for run in _runs(records, "cold")], "a cold run"),
        "warm_run_s": _median([run["seconds"] for run in _runs(records, "warm")], "a warm run"),
        "peak_rss_mb": _median(
            [r["peak_rss_mb"] for r in records if r["runs"]], "peak memory"
        ),
        "ok_frac": 1.0 - tally["failed"] / tally["attempted"],
    }


def per_layer(records: List[dict]) -> Dict[str, float]:
    """Layer numbers of the median traced sample, plus set-up split and
    tracing overhead against the untraced cold samples."""
    traced = [r for r in records if r["mode"] == "traced" and r["runs"]]
    if not traced:
        raise NoResult("no traced sample finished")
    traced.sort(key=lambda r: r["runs"][0]["seconds"])
    chosen = traced[len(traced) // 2]
    run = chosen["runs"][0]
    untraced = _median([r["seconds"] for r in _runs(records, "cold")], "an untraced run")
    traced_median = statistics.median(r["runs"][0]["seconds"] for r in traced)
    layers = {
        "setup.import_s": statistics.median(r["import_s"] for r in traced),
        "setup.build_s": statistics.median(r["build_s"] for r in traced),
        "bench.traced_run_s": run["seconds"],
        "bench.untraced_run_s": untraced,
        "bench.trace_overhead_frac": traced_median / untraced - 1.0,
        "bench.calibration_s": statistics.median(r["calibration_s"] for r in traced),
    }
    layers.update(run["layers"])
    return layers


def layer_metric_units() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def render(workload: str, seed: int, records: List[dict], tally: dict,
           metrics: Dict[str, dict]) -> str:
    calibration = [r["calibration_s"] for r in records if "calibration_s" in r]
    lines = [
        f"perfbench {workload} seed={seed}: {len(records)} processes, "
        f"{tally['attempted']} runs, {tally['failed']} failed; host calibration "
        f"{statistics.median(calibration) if calibration else float('nan'):.4f} s, "
        f"times scaled to {REFERENCE_CALIBRATION_S} s",
    ]
    for name, metric in metrics.items():
        lines.append(f"  {name:<34s} {metric['value']:>14.6g} {metric['unit']}")
    first = next((run for record in records for run in record["runs"]), None)
    if first is not None:
        info = " ".join(f"{key}={value:.6g}" for key, value in first["info"].items())
        lines.append(f"  simulated (not gated): {info}")
    for record in records:
        if "error" in record:
            lines.append(f"  error: {record['error'].strip().splitlines()[-1]}")
        for run in record["runs"]:
            for problem in run["problems"]:
                lines.append(f"  invalid {run['kind']} run: {problem}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-goldens", action="store_true",
        help="record this run's digest as the golden for its seed",
    )
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {src}", file=sys.stderr)
        return 2
    env = child_env(os.environ, src)
    # Fills the bytecode cache so no timed sample pays compilation.
    prime = spawn(env, args.workload, args.seed, "prime")
    if "error" in prime:
        print(f"perfbench: cannot import the simulator: {prime['error']}", file=sys.stderr)
        return 2

    modes = ["cold", "traced"] if args.trace else ["plain"]
    records = collect(env, args.workload, args.seed, modes, args.seconds)
    goldens = load_goldens()
    golden = None if args.update_goldens else golden_digest(goldens, args.workload, args.seed)
    tally = score(records, golden)
    try:
        if args.trace:
            units = layer_metric_units()
            values = per_layer(records)
            metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                       for name, unit in units.items()}
        else:
            metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                       for name, value in end_to_end(records, tally).items()}
    except NoResult as error:
        print(render(args.workload, args.seed, records, tally, {}))
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if args.update_goldens:
        if tally["failed"]:
            print("perfbench: not updating goldens from a failed run", file=sys.stderr)
            return 1
        key = "*" if WORKLOADS[args.workload].seed_free else str(args.seed)
        goldens.setdefault(args.workload, {})[key] = tally["reference"]
        GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(render(args.workload, args.seed, records, tally, metrics))
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
