"""Command-line interface.

Subcommands::

    python -m repro specs                      # Table 1
    python -m repro backends                   # registered accelerator backends
    python -m repro gemm 4096 4096 4096        # one GEMM on the comparison set
    python -m repro figures [--id fig08] [--full] [--out DIR] [--workers auto]
    python -m repro serve --model 8b --backend gaudi2 --max-batch 64
    python -m repro chaos --seed 0 --fail-device 3@t=2.0
    python -m repro trace --fast --out trace.json
    python -m repro top --backend gaudi2 --samples 10
    python -m repro smi --workload llm --backend gaudi2
    python -m repro reproduce --out runs/r0    # journaled full reproduction
    python -m repro resume runs/r0             # finish an interrupted run

Every report-producing subcommand renders through the shared
:func:`repro.api.render_report` path (``--format text|json|csv``).
Subcommands that simulate accept ``--audit off|sample|strict`` to turn
on the runtime invariant auditor (equivalent to ``REPRO_AUDIT``).

Platform selection is uniform: single-platform verbs (serve, trace,
top, chaos, smi) take ``--backend NAME``; comparison verbs (specs,
gemm, figures, reproduce, fleet) take a repeatable ``--backend``
naming the comparison set.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from contextlib import nullcontext
from typing import List, Optional

from repro.audit import audit_scope
from repro.audit.errors import ConfigError, JournalError
from repro.core.parallel import parse_workers
from repro.core.report import render_table
from repro.hw.backend import (
    A100,
    BACKENDS_ENV,
    DEFAULT_COMPARISON,
    GAUDI2,
    comparison_backends,
    get_backend,
    resolve_backend,
)
from repro.hw.spec import DType, get_spec, spec_comparison_rows_for


def _add_backend_flag(parser: argparse.ArgumentParser, *, multiple: bool,
                      default: Optional[str] = None) -> None:
    """The unified ``--backend`` platform flag.

    ``multiple`` verbs (gemm/figures/reproduce/fleet) take a repeatable
    flag naming the comparison set; single-platform verbs take one
    value.
    """
    if multiple:
        parser.add_argument(
            "--backend", action="append", default=None, metavar="NAME",
            help="registered backend (repeatable; see `repro backends`; "
                 "default: gaudi2 + a100, or REPRO_BACKENDS)",
        )
    else:
        parser.add_argument(
            "--backend", dest="device", default=default or "gaudi2",
            metavar="NAME",
            help="registered backend name (see `repro backends`)",
        )


def _comparison_set(args: argparse.Namespace, export: bool = False) -> List[str]:
    """Resolve the verb's comparison set: ``--backend`` flags, the
    ``REPRO_BACKENDS`` environment, then the default pair.

    With ``export``, explicitly passed flags are published as
    ``REPRO_BACKENDS`` so process-pool figure workers inherit them
    (cleared again when the flags name the default pair); :func:`main`
    restores the caller's value when the verb returns.
    """
    names = getattr(args, "backend", None)
    if not names:
        return list(comparison_backends())
    keys: List[str] = []
    for name in names:
        key = resolve_backend(name)
        if key not in keys:
            keys.append(key)
    if export:
        if tuple(keys) != DEFAULT_COMPARISON:
            os.environ[BACKENDS_ENV] = ",".join(keys)
        else:
            os.environ.pop(BACKENDS_ENV, None)
    return keys


def _cmd_specs(args: argparse.Namespace) -> int:
    keys = _comparison_set(args)
    if tuple(keys) == DEFAULT_COMPARISON:
        print(render_table(
            ["Metric", "A100", "Gaudi-2", "Ratio"],
            spec_comparison_rows_for([get_spec(A100), get_spec(GAUDI2)]),
            title="Table 1: NVIDIA A100 vs Intel Gaudi-2",
        ))
        return 0
    specs = [get_spec(key) for key in keys]
    print(render_table(
        ["Metric", *[s.name for s in specs], "Ratio (vs first)"],
        spec_comparison_rows_for(specs),
        title="Table 1: " + " vs ".join(s.name for s in specs),
    ))
    return 0


def _cmd_backends(_args: argparse.Namespace) -> int:
    from repro.hw.backend import REGISTRY

    rows = []
    for info in REGISTRY.infos():
        rows.append((
            info.key,
            info.display_name,
            info.vendor,
            info.family,
            ", ".join(info.aliases),
            info.summary,
        ))
    print(render_table(
        ["Key", "Name", "Vendor", "Family", "Aliases", "Summary"],
        rows,
        title="Registered backends",
    ))
    return 0


def _cmd_gemm(args: argparse.Namespace) -> int:
    dtype = DType(args.dtype)
    rows = []
    for name in _comparison_set(args):
        device = get_backend(name)
        result = device.gemm(args.m, args.k, args.n, dtype)
        rows.append((
            device.name,
            f"{result.achieved_flops / 1e12:.1f}",
            f"{result.utilization:.1%}",
            "memory" if result.memory_bound else "compute",
            result.config_label,
        ))
    print(render_table(
        ["Device", "TFLOPS", "Utilization", "Bound", "Engine config"],
        rows,
        title=f"GEMM {args.m}x{args.k}x{args.n} ({dtype.value})",
    ))
    return 0


def _check_figure_ids(figure_ids: List[str]) -> None:
    """Reject an unknown ``--id`` as a usage error (exit 2)."""
    from repro.figures import FIGURES

    for figure_id in figure_ids:
        if figure_id not in FIGURES:
            raise ConfigError(
                f"--id: unknown figure {figure_id!r} "
                f"(available: {', '.join(sorted(FIGURES))})"
            )


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.figures import FIGURES, generate_all, run_figure

    if args.markdown and tuple(_comparison_set(args)) != DEFAULT_COMPARISON:
        raise ConfigError("--markdown: the paper claims compare the default "
                          "gaudi2/a100 pair; drop --backend and REPRO_BACKENDS")
    _comparison_set(args, export=True)  # validate; workers inherit env
    if args.markdown:
        from repro.figures.report_md import collect_measurements, experiments_markdown

        print(experiments_markdown(collect_measurements()), end="")
        return 0
    _check_figure_ids([args.id] if args.id else [])
    figure_ids = [args.id] if args.id else sorted(FIGURES)
    out_dir: Optional[pathlib.Path] = None
    if args.out:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    results = None
    if args.id is None:
        results = generate_all(fast=not args.full, workers=args.workers)
    for figure_id in figure_ids:
        if results is not None:
            result = results[figure_id]
        else:
            result = run_figure(figure_id=figure_id, fast=not args.full)
        print(f"== {figure_id}: {result.title} ==")
        for key, value in result.summary.items():
            print(f"   {key} = {value:.4g}")
        if out_dir is not None:
            (out_dir / f"{figure_id}.txt").write_text(result.text + "\n")
    if out_dir is not None:
        print(f"reports written to {out_dir}/")
    return 0


def _build_serving_engine(args: argparse.Namespace, ctx=None):
    """One serving engine per the shared serve/trace/top knobs, which
    are checked here first so a bad value exits 2 naming its flag."""
    from repro.models.llama import (
        LLAMA_3_1_70B,
        LLAMA_3_1_8B,
        LlamaCostModel,
        check_tp_degree,
        default_decode_attention,
    )
    from repro.models.tensor_parallel import TensorParallelConfig
    from repro.serving import LlmServingEngine

    config = LLAMA_3_1_8B if args.model == "8b" else LLAMA_3_1_70B
    for flag, value in (
        ("--requests", args.requests), ("--max-batch", args.max_batch), ("--tp", args.tp),
        ("--samples", getattr(args, "samples", 1)),  # top's only
    ):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    check_tp_degree(config, args.tp, "--tp")
    device = get_backend(args.device)
    attention = default_decode_attention(device)
    tp = TensorParallelConfig.for_device(device, args.tp)
    engine = LlmServingEngine(
        LlamaCostModel(config, device, tp=tp),
        attention,
        max_decode_batch=args.max_batch,
        ctx=ctx,
    )
    return engine


def _output_file(flag: str, path: str) -> pathlib.Path:
    """``path`` once its directory is known to exist, so a bad output
    path exits 2 naming ``flag`` before the run, not after it."""
    out = pathlib.Path(path)
    if not out.parent.is_dir():
        raise ConfigError(f"{flag}: directory {out.parent} does not exist")
    return out


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import render_report
    from repro.serving import dynamic_sonnet_requests

    engine = _build_serving_engine(args)
    report = engine.run(dynamic_sonnet_requests(args.requests, seed=args.seed))
    print(render_report(report, args.format))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.api import RunContext
    from repro.serving import dynamic_sonnet_requests

    ctx = RunContext.create(seed=args.seed, device=args.device)
    engine = _build_serving_engine(args, ctx=ctx)
    out = _output_file("--out", args.out)
    num_requests = min(args.requests, 16) if args.fast else args.requests
    engine.run(dynamic_sonnet_requests(num_requests, seed=args.seed))
    from repro.core import memo

    memo.publish_metrics(ctx.metrics)
    out.write_text(ctx.chrome_trace() + "\n")
    print(ctx.tracer_summary())
    print()
    print(ctx.metrics_summary())
    print(f"chrome trace written to {out} (open in chrome://tracing or Perfetto)")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.api import RunContext
    from repro.serving import dynamic_sonnet_requests

    ctx = RunContext.create(seed=args.seed, device=args.device)
    engine = _build_serving_engine(args, ctx=ctx)
    engine.run(dynamic_sonnet_requests(args.requests, seed=args.seed))
    tracer = ctx.tracer
    closed = [s for s in tracer.spans if s.end is not None]
    total = max((s.end for s in closed), default=0.0)
    if total <= 0:
        print("no virtual time elapsed; nothing to sample")
        return 1

    def busy_fraction(name: str, w0: float, w1: float) -> float:
        # Filter by span *name*, not category: the engine category nests
        # (run > step > prefill/decode), which would multiply-count.
        busy = sum(
            max(0.0, min(s.end, w1) - max(s.start, w0))
            for s in closed
            if s.name == name or (name == "collective" and s.category == name)
        )
        return busy / (w1 - w0)

    def counter_at(name: str, w1: float) -> float:
        value = 0.0
        for sample in tracer.counters:
            if sample.name == name and sample.t <= w1:
                value = sample.value
        return value

    rows = []
    for i in range(args.samples):
        w0 = total * i / args.samples
        w1 = total * (i + 1) / args.samples
        rows.append((
            f"{w1:.4f}",
            f"{counter_at('power.watts', w1):.0f}",
            f"{counter_at('kv.allocated_blocks', w1):.0f}",
            f"{counter_at('batch.running', w1):.0f}",
            f"{busy_fraction('prefill', w0, w1):.0%}",
            f"{busy_fraction('decode.step', w0, w1):.0%}",
            f"{busy_fraction('collective', w0, w1):.0%}",
        ))
    print(render_table(
        ["Time (s)", "Power (W)", "KV blocks", "Batch",
         "Prefill", "Decode", "Collective"],
        rows,
        title=f"repro top: {args.model} on {args.device} (virtual time)",
    ))
    from repro.core import memo

    memo.publish_metrics(ctx.metrics)
    print()
    print("Cost-model caches (shape-keyed memoization):")
    print(memo.render_stats())
    from repro.serving import engine_core

    print()
    print("Engine core:")
    print(engine_core.render_counters())
    from repro.cluster import admission

    print()
    print("Admission / tenant isolation:")
    print(admission.render_counters())
    from repro.audit import get_auditor

    auditor = get_auditor()
    print()
    print("Runtime invariant auditor:")
    if auditor is None:
        print("  mode       : off (enable with --audit or REPRO_AUDIT)")
    else:
        auditor.publish_metrics(ctx.metrics)
        print(auditor.render())
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.core.reproduce import reproduce

    _comparison_set(args, export=True)  # validate; workers inherit env
    _check_figure_ids(args.id)
    result = reproduce(
        args.out,
        fast=not args.full,
        figure_ids=args.id or None,
        workers=args.workers,
    )
    print(result.render())
    return _print_audit_summary()


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.core.journal import RunJournal

    header = RunJournal(args.run_dir).load_header() or {}
    if header.get("tool") == "fleet":
        from repro.cluster import resume_fleet

        print(resume_fleet(args.run_dir).render())
        return _print_audit_summary()
    from repro.core.reproduce import resume

    result = resume(args.run_dir, workers=args.workers)
    print(result.render())
    return _print_audit_summary()


def _print_audit_summary() -> int:
    """Print the auditor section to stderr when auditing is on, so
    stdout carries only simulated output; non-zero exit when violations
    were counted (sample mode -- strict raises)."""
    from repro.audit import get_auditor

    auditor = get_auditor()
    if auditor is None:
        return 0
    print(file=sys.stderr)
    print("Runtime invariant auditor:", file=sys.stderr)
    print(auditor.render(), file=sys.stderr)
    return 1 if auditor.total_violations else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.api import render_report
    from repro.faults import ChaosConfig, FaultPlan, run_chaos

    plan = FaultPlan.from_specs(
        seed=args.seed,
        fail_device=args.fail_device,
        degrade_link=args.degrade_link,
        flap_link=args.flap_link,
        throttle_hbm=args.throttle_hbm,
        straggler=args.straggler,
        kernel_fault_rate=args.kernel_fault_rate,
    )
    config = ChaosConfig(
        model=args.model,
        device=args.device,
        tp=args.tp,
        max_decode_batch=args.max_batch,
        num_requests=args.requests,
        rate=args.rate,
        seed=args.seed,
        deadline=args.deadline,
        max_retries=args.max_retries,
        checkpoint_interval=args.checkpoint_interval,
        num_kv_blocks=args.kv_blocks,
        admission_watermark=args.watermark,
        plan=plan,
    )
    report = run_chaos(config=config)
    fmt = "json" if args.json else args.format
    print(render_report(report, fmt))
    return 0


def _parse_nodes_spec(spec: str):
    """``"4x gaudi2,2x a100"`` -> ``(("gaudi2", 4), ("a100", 2))``."""
    import re

    pools = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        # Any name token: FleetConfig's backend check names the registered ones.
        match = re.fullmatch(r"(\d+)\s*x\s*(\S+)", part)
        if match is None:
            raise ConfigError(
                f"--nodes: bad pool {part!r} (expected e.g. '4x gaudi2,2x a100')"
            )
        try:
            count = int(match.group(1))
        except ValueError:  # more digits than int() converts
            raise ConfigError(
                f"--nodes: pool count in {part[:40]!r}... is too large"
            ) from None
        pools.append((match.group(2), count))
    if not pools:
        raise ConfigError("--nodes names no pools")
    return tuple(pools)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.api import RunContext, render_report
    from repro.cluster import (
        AdmissionPolicy,
        AutoscalePolicy,
        BreakerPolicy,
        FleetConfig,
        NodeFaultPlan,
        UpgradePlan,
        parse_tenants_spec,
        run_fleet,
    )
    from repro.serving.request import RetryPolicy

    tenants = parse_tenants_spec(args.tenants) if args.tenants else ()
    admission = None
    if args.admission:
        admission = AdmissionPolicy(
            target_queue_delay=args.admission_target_delay,
            shed_queue_delay=args.shed_delay,
            evaluate_interval=args.admission_interval,
            brownout_max_new_tokens=args.brownout_tokens,
            max_inflight_per_node=args.max_inflight,
            max_queue_delay=args.max_queue_delay,
        )
    breaker = None
    if args.breaker:
        breaker = BreakerPolicy(
            failure_threshold=args.breaker_threshold,
            cooldown=args.breaker_cooldown,
        )
    upgrade = UpgradePlan.from_spec(args.upgrade) if args.upgrade else None
    autoscale = None
    if args.autoscale:
        autoscale = AutoscalePolicy(
            target_p99_ttft=args.slo_ttft,
            target_p99_tpot=args.slo_tpot,
            evaluate_interval=args.autoscale_interval,
            cooldown=args.autoscale_cooldown,
            min_nodes=args.min_nodes,
            max_nodes=args.max_nodes,
            provision_delay=args.provision_delay,
        )
    if args.backend:
        # --backend g2 --backend a100 --backend a100 -> 1x g2, 2x a100
        pools: List[tuple] = []
        for name in args.backend:
            key = resolve_backend(name)
            for i, (pool, count) in enumerate(pools):
                if pool == key:
                    pools[i] = (pool, count + 1)
                    break
            else:
                pools.append((key, 1))
        nodes = tuple(pools)
    else:
        nodes = _parse_nodes_spec(" ".join(args.nodes))
    config = FleetConfig(
        nodes=nodes,
        model=args.model,
        tp=args.tp,
        max_decode_batch=args.max_batch,
        num_kv_blocks=args.kv_blocks,
        num_requests=args.requests,
        rate=args.rate,
        diurnal=args.diurnal,
        diurnal_period=args.diurnal_period,
        seed=args.seed,
        policy=args.policy,
        timeout=args.timeout,
        retry=RetryPolicy(max_retries=args.max_retries, jitter=args.jitter),
        hedge_after=args.hedge_after,
        probe_interval=args.probe_interval,
        deadline=args.deadline,
        autoscale=autoscale,
        tenants=tenants,
        admission=admission,
        breaker=breaker,
        upgrade=upgrade,
        plan=NodeFaultPlan.from_spec(args.chaos) if args.chaos else NodeFaultPlan(),
    )
    ctx = None
    if args.trace_out:
        trace_out = _output_file("--trace-out", args.trace_out)
        ctx = RunContext.create(seed=args.seed)
    report = run_fleet(config, journal=args.out, ctx=ctx)
    if ctx is not None:
        trace_out.write_text(ctx.chrome_trace() + "\n")
        print(f"chrome trace written to {trace_out}", file=sys.stderr)
    print(render_report(report, args.format))
    if args.format == "text":
        return _print_audit_summary()
    # Machine-readable formats keep stdout parseable; violations still
    # drive the exit code (strict mode raises before reaching here).
    from repro.audit import get_auditor

    auditor = get_auditor()
    return 1 if auditor is not None and auditor.total_violations else 0


def _cmd_smi(args: argparse.Namespace) -> int:
    from repro.hw.power import ActivityAccumulator
    from repro.models.dlrm import DlrmCostModel, RM2_CONFIG
    from repro.models.llama import LLAMA_3_1_8B, LlamaCostModel
    from repro.tools.smi import smi

    device = get_backend(args.device)
    if args.workload == "llm":
        model = LlamaCostModel(LLAMA_3_1_8B, device)
        phase = model.decode_step(32, 1024)
        activity = phase.activity.profile(phase.time)
    else:
        dlrm = DlrmCostModel(RM2_CONFIG, device)
        acc = ActivityAccumulator()
        time = dlrm.embedding_time(4096, acc)
        activity = acc.profile(time)
    print(smi(device, activity).render())
    return 0


def _add_audit_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--audit", default=None, choices=["off", "sample", "strict"],
        help="runtime invariant auditor mode (same as REPRO_AUDIT; "
             "strict raises on the first violation)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulator-based reproduction of 'Debunking the CUDA Myth' (ISCA 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = sub.add_parser("specs", help="print the Table 1 spec comparison")
    _add_backend_flag(specs, multiple=True)
    specs.set_defaults(fn=_cmd_specs)

    backends = sub.add_parser(
        "backends", help="list the registered accelerator backends"
    )
    backends.set_defaults(fn=_cmd_backends)

    gemm = sub.add_parser("gemm", help="run one GEMM shape on the device models")
    gemm.add_argument("m", type=int)
    gemm.add_argument("k", type=int)
    gemm.add_argument("n", type=int)
    gemm.add_argument("--dtype", default="bf16", choices=[d.value for d in DType])
    _add_backend_flag(gemm, multiple=True)
    gemm.set_defaults(fn=_cmd_gemm)

    figures = sub.add_parser("figures", help="regenerate paper tables/figures")
    figures.add_argument("--id", help="one figure id (default: all)")
    figures.add_argument("--full", action="store_true", help="full parameter grids")
    figures.add_argument("--out", help="directory for rendered reports")
    figures.add_argument("--markdown", action="store_true",
                         help="print the paper-vs-measured tables (full grids)")
    figures.add_argument("--workers", default=None,
                         help="process-pool size for regenerating all figures "
                              "(an int or 'auto'; default: REPRO_WORKERS or serial)")
    _add_backend_flag(figures, multiple=True)
    _add_audit_flag(figures)
    figures.set_defaults(fn=_cmd_figures)

    reproduce = sub.add_parser(
        "reproduce",
        help="journaled, crash-safe reproduction of every figure",
        description=(
            "Run the full figure set, durably journaling each completed "
            "figure under the run directory.  If the process dies, "
            "`repro resume <run-dir>` re-runs only the missing figures "
            "and produces byte-identical report.txt/report.json."
        ),
    )
    reproduce.add_argument("--out", default="runs/reproduce",
                           help="run directory for the journal and reports")
    reproduce.add_argument("--full", action="store_true",
                           help="full parameter grids (default: fast)")
    reproduce.add_argument("--id", action="append", default=[],
                           help="one figure id (repeatable; default: all)")
    reproduce.add_argument("--workers", default=None,
                           help="process-pool size (an int or 'auto')")
    _add_backend_flag(reproduce, multiple=True)
    _add_audit_flag(reproduce)
    reproduce.set_defaults(fn=_cmd_reproduce)

    resume = sub.add_parser(
        "resume",
        help="finish an interrupted `repro reproduce` run from its journal",
    )
    resume.add_argument("run_dir", help="run directory holding journal.jsonl")
    resume.add_argument("--workers", default=None,
                        help="process-pool size (an int or 'auto')")
    _add_audit_flag(resume)
    resume.set_defaults(fn=_cmd_resume)

    serve = sub.add_parser("serve", help="run the vLLM-style serving simulation")
    serve.add_argument("--model", default="8b", choices=["8b", "70b"])
    _add_backend_flag(serve, multiple=False)
    serve.add_argument("--tp", type=int, default=1, help="tensor-parallel degree")
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument("--requests", type=int, default=64)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--format", default="text", choices=["text", "json", "csv"])
    _add_audit_flag(serve)
    serve.set_defaults(fn=_cmd_serve)

    trace = sub.add_parser(
        "trace",
        help="traced serving run; exports chrome://tracing JSON",
        description=(
            "Run the serving simulation with a RunContext bound, then "
            "export the virtual-clock trace (engine steps, prefill/decode "
            "phases, scheduler events, KV-pool occupancy, collectives, "
            "and per-step power) as chrome://tracing JSON."
        ),
    )
    trace.add_argument("--model", default="8b", choices=["8b", "70b"])
    _add_backend_flag(trace, multiple=False)
    trace.add_argument("--tp", type=int, default=4, help="tensor-parallel degree")
    trace.add_argument("--max-batch", type=int, default=32)
    trace.add_argument("--requests", type=int, default=64)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--fast", action="store_true",
                       help="cap the workload at 16 requests")
    trace.add_argument("--out", default="trace.json",
                       help="output path for the chrome trace")
    _add_audit_flag(trace)
    trace.set_defaults(fn=_cmd_trace)

    top = sub.add_parser(
        "top",
        help="hl-smi/top style sampled view of a traced serving run",
    )
    top.add_argument("--model", default="8b", choices=["8b", "70b"])
    _add_backend_flag(top, multiple=False)
    top.add_argument("--tp", type=int, default=4, help="tensor-parallel degree")
    top.add_argument("--max-batch", type=int, default=32)
    top.add_argument("--requests", type=int, default=32)
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--samples", type=int, default=10,
                     help="number of virtual-time sampling windows")
    _add_audit_flag(top)
    top.set_defaults(fn=_cmd_top)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injected serving run with graceful degradation",
        description=(
            "Run the vLLM-style serving simulation under a seeded fault "
            "plan: device failures, link degradation/flaps, HBM "
            "throttling, stragglers, and transient kernel faults. "
            "Example: repro chaos --seed 0 --fail-device 3@t=2.0"
        ),
    )
    chaos.add_argument("--model", default="8b", choices=["8b", "70b"])
    _add_backend_flag(chaos, multiple=False)
    chaos.add_argument("--tp", type=int, default=8,
                       help="tensor-parallel degree (the fault domain size)")
    chaos.add_argument("--max-batch", type=int, default=32)
    chaos.add_argument("--requests", type=int, default=128)
    chaos.add_argument("--rate", type=float, default=None,
                       help="Poisson offered rate in req/s (default: backlog)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--deadline", type=float, default=None,
                       help="TTFT SLO in seconds (drives retries and goodput)")
    chaos.add_argument("--max-retries", type=int, default=3)
    chaos.add_argument("--checkpoint-interval", type=int, default=32,
                       help="tokens between recompute checkpoints")
    chaos.add_argument("--kv-blocks", type=int, default=None,
                       help="constrain the KV pool to force shedding")
    chaos.add_argument("--watermark", type=float, default=1.0,
                       help="KV-pool admission watermark in (0, 1]")
    chaos.add_argument("--fail-device", action="append", default=[],
                       metavar="D@t=T[,recover=T]",
                       help="kill device D at time T (repeatable)")
    chaos.add_argument("--degrade-link", action="append", default=[],
                       metavar="A-B@t=T,factor=F[,until=T]")
    chaos.add_argument("--flap-link", action="append", default=[],
                       metavar="A-B@t=T,period=P,cycles=N")
    chaos.add_argument("--throttle-hbm", action="append", default=[],
                       metavar="F@t=T[,until=T]")
    chaos.add_argument("--straggler", action="append", default=[],
                       metavar="D@t=T,factor=F[,until=T]")
    chaos.add_argument("--kernel-fault-rate", type=float, default=0.0,
                       help="per-step transient kernel-failure probability")
    chaos.add_argument("--json", action="store_true",
                       help="emit the report as JSON (same as --format json)")
    chaos.add_argument("--format", default="text", choices=["text", "json", "csv"])
    _add_audit_flag(chaos)
    chaos.set_defaults(fn=_cmd_chaos)

    fleet = sub.add_parser(
        "fleet",
        help="multi-node fleet simulation with chaos, failover, autoscaling",
        description=(
            "Simulate a heterogeneous serving fleet on one virtual clock: "
            "Gaudi-2/A100 node pools behind a health-checked gateway "
            "(timeout -> jittered-backoff retry -> failover -> shed, "
            "optional hedging), node-level chaos, and SLO-driven "
            "autoscaling. Example: repro fleet --nodes 4x gaudi2,2x a100 "
            "--chaos 'crash:gaudi2-1@t=2,recover=6' --audit strict"
        ),
    )
    fleet.add_argument("--backend", action="append", default=None, metavar="NAME",
                       help="shorthand for one single-node pool per backend "
                            "(repeatable; overrides --nodes)")
    fleet.add_argument("--nodes", nargs="+", default=["2x", "gaudi2"],
                       metavar="SPEC",
                       help="pools as 'Nx device' comma-separated, "
                            "e.g. '4x gaudi2,2x a100' (at most 1024 nodes "
                            "in all)")
    fleet.add_argument("--model", default="8b", choices=["8b", "70b"])
    fleet.add_argument("--tp", type=int, default=8,
                       help="tensor-parallel degree inside each node")
    fleet.add_argument("--max-batch", type=int, default=32)
    fleet.add_argument("--kv-blocks", type=int, default=None,
                       help="constrain each node's KV pool to force shedding")
    fleet.add_argument("--requests", type=int, default=64)
    fleet.add_argument("--rate", type=float, default=8.0,
                       help="offered rate in req/s across the fleet")
    fleet.add_argument("--diurnal", action="store_true",
                       help="sinusoidally-modulated arrivals (exercises "
                            "the autoscaler)")
    fleet.add_argument("--diurnal-period", type=float, default=60.0)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--policy", default="round-robin",
                       choices=["round-robin", "least-loaded", "latency-aware"],
                       help="gateway routing policy")
    fleet.add_argument("--chaos", default=None, metavar="PLAN",
                       help="';'-separated node fault events, e.g. "
                            "'crash:gaudi2-1@t=2,recover=6;"
                            "brownout:a100-0@t=1,factor=0.5,until=4'")
    fleet.add_argument("--timeout", type=float, default=None,
                       help="per-attempt gateway timeout in seconds")
    fleet.add_argument("--max-retries", type=int, default=3)
    fleet.add_argument("--jitter", type=float, default=0.5,
                       help="backoff jitter fraction in [0, 1]")
    fleet.add_argument("--hedge-after", type=float, default=None,
                       help="hedge a second attempt after this many "
                            "quiet seconds")
    fleet.add_argument("--probe-interval", type=float, default=1.0,
                       help="gateway health-probe period in seconds")
    fleet.add_argument("--deadline", type=float, default=None,
                       help="engine-level TTFT SLO inside each node")
    fleet.add_argument("--tenants", default=None, metavar="SPEC",
                       help="';'-separated tenant traffic classes, e.g. "
                            "'gold:tier=0,share=0.25,weight=4,slo=2;"
                            "bronze:tier=2,rate=4,burst=8' "
                            "(keys: tier, share, weight, rate, burst, slo)")
    fleet.add_argument("--admission", action="store_true",
                       help="gateway admission control: per-tenant quotas, "
                            "weighted-fair queueing, and brownout/shed "
                            "overload response (requires --tenants)")
    fleet.add_argument("--admission-target-delay", type=float, default=0.5,
                       help="queue delay entering brownout (seconds)")
    fleet.add_argument("--shed-delay", type=float, default=2.0,
                       help="queue delay entering overload shedding (seconds)")
    fleet.add_argument("--admission-interval", type=float, default=0.25,
                       help="admission evaluation tick period (seconds)")
    fleet.add_argument("--brownout-tokens", type=int, default=64,
                       help="per-attempt new-token cap during brownout")
    fleet.add_argument("--max-inflight", type=int, default=None,
                       help="gateway concurrency cap per routable node "
                            "(default: --max-batch)")
    fleet.add_argument("--max-queue-delay", type=float, default=30.0,
                       help="hard bound on gateway queueing before any-tier "
                            "shedding")
    fleet.add_argument("--breaker", action="store_true",
                       help="per-node circuit breakers on consecutive "
                            "timeouts/failures")
    fleet.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive failures that open a breaker")
    fleet.add_argument("--breaker-cooldown", type=float, default=2.0,
                       help="seconds a breaker stays open before probing")
    fleet.add_argument("--upgrade", default=None, metavar="SPEC",
                       help="rolling-upgrade drain schedule "
                            "'start=T[,restart=D][,poll=P]' -- drains each "
                            "node in turn with a zero-loss audit")
    fleet.add_argument("--autoscale", action="store_true",
                       help="enable the SLO-driven autoscaler")
    fleet.add_argument("--slo-ttft", type=float, default=5.0,
                       help="autoscaler p99 TTFT target in seconds")
    fleet.add_argument("--slo-tpot", type=float, default=None,
                       help="autoscaler p99 TPOT target in seconds")
    fleet.add_argument("--autoscale-interval", type=float, default=2.0)
    fleet.add_argument("--autoscale-cooldown", type=float, default=4.0)
    fleet.add_argument("--min-nodes", type=int, default=1)
    fleet.add_argument("--max-nodes", type=int, default=8)
    fleet.add_argument("--provision-delay", type=float, default=1.0)
    fleet.add_argument("--out", default=None,
                       help="run directory: journal the run for "
                            "`repro resume`")
    fleet.add_argument("--trace-out", default=None,
                       help="write a chrome://tracing JSON of the fleet run")
    fleet.add_argument("--format", default="text", choices=["text", "json", "csv"])
    _add_audit_flag(fleet)
    fleet.set_defaults(fn=_cmd_fleet)

    smi = sub.add_parser("smi", help="hl-smi / nvidia-smi style readout")
    _add_backend_flag(smi, multiple=False)
    smi.add_argument("--workload", default="llm", choices=["llm", "recsys"])
    smi.set_defaults(fn=_cmd_smi)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    exported = os.environ.get(BACKENDS_ENV)
    # --audit holds for this call only, like a comparison verb's export.
    audit = audit_scope(args.audit) if getattr(args, "audit", None) else nullcontext()
    try:
        with audit:
            if getattr(args, "workers", None) is not None:
                parse_workers(args.workers)  # also where this run would not fan out
            return args.fn(args)
    except (ConfigError, JournalError) as exc:
        # Bad user input (a flag value, a spec string, a journal) is a
        # usage error like argparse's own: one line, exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; point
        # stdout at devnull so the interpreter's exit flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        # A comparison verb exports its --backend flags for its workers;
        # the next call in this process must not inherit them.
        if exported is None:
            os.environ.pop(BACKENDS_ENV, None)
        else:
            os.environ[BACKENDS_ENV] = exported


if __name__ == "__main__":
    sys.exit(main())
