"""Command-line interface: ``rowscale-cdi`` / ``python -m repro``.

Subcommands:

* ``list`` — show the available experiments (one per paper artifact
  plus the ``ext_*`` prose-claim extensions);
* ``run <id> [...]`` — regenerate one or more tables/figures
  (``--chart`` adds ASCII line charts, ``--output`` writes Markdown);
* ``all`` — regenerate everything;
* ``slack <seconds>`` — quick slack-to-distance conversion;
* ``profile <app>`` — trace any registered application model (see
  :mod:`repro.apps.registry`: lammps, cosmoflow, cpuonly, inference)
  and predict its slack penalty — normalized runtime for the batch
  apps, measured + predicted TTFT/TPOT inflation for the
  latency-SLO inference workload (optionally exporting the trace);
* ``sweep`` — measure a slack response surface on a custom grid
  (``--faults SPEC`` degrades the fabric, see docs/faults.md;
  ``--adaptive [--tol PEN]`` measures a seed and refines only where
  log-linear interpolation exceeds the tolerance; ``--workers N``
  fans the grid out over a process pool — see docs/performance.md);
* ``fleet`` — fleet-scale CDI simulation: generate a seeded
  multi-tenant job stream and run it through the vectorized fleet
  engine (``--mode both`` compares traditional vs CDI; ``--parity``
  first proves per-job bit-parity against the scalar reference DES;
  ``--racks`` adds rack placement and, with ``--penalties``, a
  per-tenant slack-penalty distribution — see docs/performance.md);
* ``faults`` — describe/validate a fault-plan spec without running;
* ``metrics`` — render a RunReport JSON (see docs/observability.md)
  as a human-readable table;
* ``predict <size> <slack>`` — one-shot penalty prediction from the
  serving surrogate (``--cold`` measures refused queries for real);
* ``serve`` — interactive serving loop: read ``SIZE SLACK [THREADS]``
  queries from stdin, answer each from the micro-batching
  :class:`~repro.serve.PenaltyService` (see docs/serving.md).

``--full`` switches from the quick configuration (short runs, fixed
proxy iterations) to the paper's full run lengths. ``--metrics-out
PATH`` (on ``run``/``all``/``sweep``) enables the :mod:`repro.obs`
metrics registry for the invocation and writes the resulting
:class:`~repro.obs.RunReport` as JSON.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from typing import List, Optional

__all__ = ["main", "build_parser"]


class _RegisteredApps:
    """The ``profile`` choices: the app registry's names, read when
    ``profile`` is parsed or its help printed. The registry imports
    every app model, which no other command needs."""

    def __iter__(self):
        from .apps.registry import app_names

        return iter(app_names())

    def __contains__(self, name: object) -> bool:
        return name in list(self)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="rowscale-cdi",
        description=(
            "Reproduction of 'Examining the Viability of Row-Scale "
            "Disaggregation for Production Applications' (SC 2024)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one or more experiments")
    run_p.add_argument("experiments", nargs="+", metavar="ID",
                       help="experiment ids (see 'list')")
    run_p.add_argument("--full", action="store_true",
                       help="use the paper's full run lengths")
    run_p.add_argument("--output", metavar="PATH",
                       help="also write results as a Markdown report")
    run_p.add_argument("--chart", action="store_true",
                       help="render figure series as ASCII charts")
    _add_parallel_flags(run_p)

    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--full", action="store_true",
                       help="use the paper's full run lengths")
    all_p.add_argument("--output", metavar="PATH",
                       help="also write results as a Markdown report")
    _add_parallel_flags(all_p)

    slack_p = sub.add_parser("slack", help="slack <-> fibre distance")
    slack_p.add_argument("seconds", type=float, help="one-way slack in seconds")

    prof_p = sub.add_parser(
        "profile", help="trace an application and predict its slack penalty"
    )
    prof_p.add_argument("app", choices=_RegisteredApps(), metavar="APP",
                        help="application model to profile (from the "
                             "app registry: %(choices)s)")
    prof_p.add_argument("--slack", type=float, action="append",
                        metavar="SECONDS", dest="slacks",
                        help="slack value(s) to predict at "
                             "(default: the paper's grid)")
    prof_p.add_argument("--trace-out", metavar="PATH",
                        help="export the trace as JSON to PATH")
    prof_p.add_argument("--full", action="store_true",
                        help="use the paper's full run lengths")

    sweep_p = sub.add_parser(
        "sweep", help="measure a slack response surface on a custom grid"
    )
    sweep_p.add_argument("--matrix", type=int, action="append",
                         dest="matrix_sizes", metavar="N",
                         help="matrix size(s) (default: the paper's grid)")
    sweep_p.add_argument("--slack", type=float, action="append",
                         dest="slacks", metavar="SECONDS",
                         help="slack value(s) (default: the paper's grid)")
    sweep_p.add_argument("--threads", type=int, action="append",
                         dest="threads", metavar="T",
                         help="thread count(s) (default: 1)")
    sweep_p.add_argument("--iterations", type=int, default=25,
                         help="loop iterations per point (default 25; "
                              "0 = auto-calibrate like the paper)")
    sweep_p.add_argument("--target-compute", type=float, default=30.0,
                         dest="target_compute", metavar="SECONDS",
                         help="auto-calibration compute budget per point "
                              "(default 30.0; only with --iterations 0)")
    sweep_p.add_argument("--faults", metavar="SPEC", dest="faults",
                         help="degrade the fabric with a fault plan "
                              "(spec DSL or JSON; see 'faults' "
                              "subcommand and docs/faults.md), e.g. "
                              "'seed=42;loss:rate=1%%;"
                              "flap:start=5ms,down=2ms'")
    sweep_p.add_argument("--adaptive", action="store_true",
                         help="adaptive refinement: measure a seed of "
                              "each series and predict the rest by "
                              "log-linear interpolation, refining only "
                              "where the interpolation error exceeds "
                              "--tol")
    sweep_p.add_argument("--tol", type=float, default=None, metavar="PEN",
                         help="certification tolerance for --adaptive, "
                              "in penalty units (default 1e-3 = 0.1 "
                              "percentage points)")
    _add_parallel_flags(sweep_p)

    fleet_p = sub.add_parser(
        "fleet",
        help="fleet-scale CDI simulation on the vectorized engine",
    )
    fleet_p.add_argument("--tenant", action="append", dest="tenants",
                         metavar="NAME:PER_HOUR[:CPU%%:GPU%%]",
                         help="add a tenant: arrival rate in jobs/hour "
                              "plus optional CPU-heavy / GPU-heavy "
                              "archetype shares in percent (default "
                              "tenants: batch 4/h, interactive 2/h)")
    fleet_p.add_argument("--horizon", type=float, default=7 * 24 * 3600.0,
                         metavar="SECONDS",
                         help="arrival horizon in seconds "
                              "(default: one week)")
    fleet_p.add_argument("--max-jobs", type=int, default=None,
                         dest="max_jobs", metavar="N",
                         help="truncate the generated stream to N jobs")
    fleet_p.add_argument("--seed", type=int, default=2024,
                         help="generation seed (default 2024)")
    fleet_p.add_argument("--nodes", type=int, default=16,
                         help="cluster nodes (default 16)")
    fleet_p.add_argument("--cores-per-node", type=int, default=48,
                         dest="cores_per_node", metavar="C",
                         help="cores per node (default 48)")
    fleet_p.add_argument("--gpus-per-node", type=int, default=4,
                         dest="gpus_per_node", metavar="G",
                         help="GPUs per node (default 4)")
    fleet_p.add_argument("--mode", choices=["cdi", "traditional", "both"],
                         default="both",
                         help="scheduling discipline to simulate "
                              "(default: both, as a comparison)")
    fleet_p.add_argument("--placement",
                         choices=["pack", "spread", "locality"],
                         default="pack",
                         help="rack placement policy (with --racks)")
    fleet_p.add_argument("--racks", type=int, default=0,
                         help="replay GPU grants onto N racks of a "
                              "uniform topology (0 = no placement)")
    fleet_p.add_argument("--penalties", action="store_true",
                         help="evaluate per-job slack penalties through "
                              "the serving surrogate (requires --racks; "
                              "CDI mode only)")
    fleet_p.add_argument("--penalty-matrix", type=int, default=2048,
                         dest="penalty_matrix", metavar="N",
                         help="proxy matrix size for --penalties "
                              "(default 2048; must be on the measured "
                              "grid)")
    fleet_p.add_argument("--full", action="store_true",
                         help="fit the --penalties surrogate over the "
                              "paper's full sweep")
    fleet_p.add_argument("--faults", metavar="SPEC", dest="faults",
                         help="fault plan whose link-flap windows freeze "
                              "GPU admission fleet-wide (CDI mode; see "
                              "docs/faults.md)")
    fleet_p.add_argument("--parity", action="store_true",
                         help="first prove per-job bit-parity against "
                              "the scalar reference DES (slow: runs the "
                              "generator simulation too)")
    fleet_p.add_argument("--metrics-out", metavar="PATH",
                         dest="metrics_out",
                         help="enable the metrics registry and write a "
                              "kind=fleet RunReport JSON to PATH")

    faults_p = sub.add_parser(
        "faults", help="describe or validate a fault-plan spec"
    )
    faults_p.add_argument("action", choices=["describe", "validate"],
                          help="describe: print the plan's events and "
                               "determinism contract; validate: parse "
                               "and cross-check only")
    faults_p.add_argument("spec", metavar="SPEC",
                          help="fault-plan spec (DSL clauses or a JSON "
                               "document; see docs/faults.md)")

    metrics_p = sub.add_parser(
        "metrics", help="render a RunReport JSON as a human-readable table"
    )
    metrics_p.add_argument(
        "report", nargs="?", metavar="PATH",
        help="RunReport JSON to render (omit to run a small demo sweep "
             "with metrics enabled and render its report)",
    )

    predict_p = sub.add_parser(
        "predict",
        help="one-shot penalty prediction from the serving surrogate",
    )
    predict_p.add_argument("matrix_size", type=int,
                           help="proxy matrix size (on the measured grid)")
    predict_p.add_argument("slack", type=float,
                           help="one-way slack in seconds")
    _add_serve_flags(predict_p)

    serve_p = sub.add_parser(
        "serve",
        help="serve penalty predictions: read 'SIZE SLACK [THREADS]' "
             "queries from stdin, one answer per line",
    )
    _add_serve_flags(serve_p)
    serve_p.add_argument("--metrics-out", metavar="PATH",
                         dest="metrics_out",
                         help="enable the metrics registry and write a "
                              "kind=serve RunReport JSON to PATH on exit")
    return parser


def _add_serve_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the ``predict`` and ``serve`` subcommands."""
    parser.add_argument("--threads", type=int, default=1, metavar="T",
                        help="queue parallelism of the prediction "
                             "(predict only; default 1)")
    parser.add_argument("--full", action="store_true",
                        help="fit the surrogate over the paper's full "
                             "sweep instead of the quick configuration")
    parser.add_argument("--method", choices=["loglinear", "pchip"],
                        default="loglinear",
                        help="surrogate interpolation rule (loglinear = "
                             "exact surface parity; pchip = monotone "
                             "cubic)")
    parser.add_argument("--cold", action="store_true",
                        help="measure refused queries with the real DES "
                             "cold path and refine the surrogate online")


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared parallel-execution and caching flags."""
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for sweeps/experiments "
                             "(default 1 = sequential; 0 = all CPU cores)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the per-point and surface caches "
                             "(recompute everything)")
    parser.add_argument("--no-fast-forward", action="store_true",
                        dest="no_fast_forward",
                        help="disable steady-state fast-forward and the "
                             "index cores: run every proxy iteration and "
                             "profile the apps on the reference DES event "
                             "by event (results are bit-identical; only "
                             "slower)")
    parser.add_argument("--metrics-out", metavar="PATH", dest="metrics_out",
                        help="enable the metrics registry for this run and "
                             "write a RunReport JSON to PATH")


def _resolve_workers(args: argparse.Namespace) -> int:
    """Map the CLI convention (0 = auto) to a concrete worker count."""
    import os

    workers = getattr(args, "workers", 1)
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise SystemExit("--workers must be >= 0")
    return workers


def _freeze_imports() -> None:
    """Move everything imported so far out of the collector's reach.

    Modules live as long as the process, so the first allocation-heavy
    span should not pay a full collection of every imported one. Each
    command calls this once its modules are imported (they are imported
    by the command, not at start-up).
    Once per process: a later in-process call would also freeze the
    garbage earlier runs left for the collector.
    """
    if not gc.get_freeze_count():
        gc.freeze()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        from .experiments.runner import experiment_ids

        _freeze_imports()
        for eid in experiment_ids():
            print(eid)
        return 0

    if args.command == "slack":
        from .network.slack import fibre_distance_for_latency

        _freeze_imports()
        if args.seconds < 0:
            print("slack must be non-negative", file=sys.stderr)
            return 2
        km = fibre_distance_for_latency(args.seconds) / 1e3
        print(
            f"{args.seconds:g} s of one-way slack = {km:.3f} km of fibre "
            f"at light speed"
        )
        return 0

    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "predict":
        return _cmd_predict(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return _cmd_experiments(args)


def _cmd_experiments(args: argparse.Namespace) -> int:
    """``run`` and ``all``: regenerate experiments and print them."""
    from .experiments.context import ExperimentContext
    from .experiments.runner import experiment_ids, run_all, run_experiment

    _freeze_imports()
    options = _sweep_options(args)
    workers = options.workers
    metrics_out = _maybe_enable_metrics(args)
    ctx = ExperimentContext(quick=not args.full, options=options)
    if args.command == "all":
        targets = experiment_ids()
    else:
        targets = args.experiments
        unknown = [t for t in targets if t not in experiment_ids()]
        if unknown:
            print(f"unknown experiment(s): {', '.join(unknown)}",
                  file=sys.stderr)
            print(f"available: {', '.join(experiment_ids())}", file=sys.stderr)
            return 2

    if args.command == "all" and workers > 1:
        t0 = time.time()
        results = run_all(ctx, workers=workers)
        for result in results:
            print(result.render())
            print()
        print(f"[{len(results)} experiments, {workers} workers: "
              f"{time.time() - t0:.1f}s]", file=sys.stderr)
        if getattr(args, "output", None):
            from .experiments.export import write_markdown_report

            path = write_markdown_report(results, args.output)
            print(f"markdown report written to {path}")
        _write_metrics_report(
            metrics_out, kind="all",
            meta={"experiments": targets, "workers": workers},
        )
        return 0

    results = []
    for eid in targets:
        t0 = time.time()
        result = run_experiment(eid, ctx)
        results.append(result)
        print(result.render())
        if getattr(args, "chart", False):
            for series in result.series:
                print()
                print(series.ascii_chart(log_y=any(
                    y is not None and y > 10
                    for ys in series.lines.values() for y in ys
                )))
        print(f"[{eid}: {time.time() - t0:.1f}s]", file=sys.stderr)
        print()
    if getattr(args, "output", None):
        from .experiments.export import write_markdown_report

        path = write_markdown_report(results, args.output)
        print(f"markdown report written to {path}")
    _write_metrics_report(
        metrics_out, kind=args.command,
        meta={"experiments": targets, "workers": workers},
    )
    return 0


def _maybe_enable_metrics(args: argparse.Namespace) -> Optional[str]:
    """Enable the metrics registry if ``--metrics-out`` was given."""
    path = getattr(args, "metrics_out", None)
    if path:
        from .obs.metrics import enable_metrics

        enable_metrics()
    return path


def _write_metrics_report(
    path: Optional[str],
    kind: str,
    meta: Optional[dict] = None,
    report=None,
) -> None:
    """Write (and announce) the RunReport of a ``--metrics-out`` run."""
    if not path:
        return
    from .obs.report import RunReport
    from .obs.metrics import disable_metrics, get_registry

    if report is None:
        report = RunReport.collect(get_registry(), kind=kind, meta=meta or {})
    report.to_json(path)
    disable_metrics()
    print(f"metrics report written to {path}", file=sys.stderr)


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Render a RunReport JSON (or a fresh demo report) as a table."""
    from .obs.report import RunReport
    from .obs.metrics import collecting

    _freeze_imports()
    if args.report:
        try:
            report = RunReport.from_json(args.report)
        except (OSError, ValueError) as exc:
            print(f"cannot read report {args.report!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(report.render())
        return 0

    # No file given: measure a tiny sweep with metrics enabled and
    # render its report, so `repro metrics` is self-demonstrating.
    from .proxy.sweep import run_slack_sweep

    with collecting():
        sweep = run_slack_sweep(
            matrix_sizes=[512],
            slack_values_s=[1e-5, 1e-3],
            threads=[1],
            iterations=5,
        )
    assert sweep.report is not None
    print(sweep.report.render())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Trace one registered application and predict its slack penalty."""
    from .apps.registry import get_app
    from .experiments.context import ExperimentContext
    from .model.predictor import CDIProfiler
    from .proxy.sweep import PAPER_SLACK_VALUES_S
    from .trace.export import to_json

    _freeze_imports()
    app = get_app(args.app)
    ctx = ExperimentContext(quick=not args.full)
    profile = ctx.app_profile(args.app)
    kernels = profile.trace.kernels()
    copies = profile.trace.memcpys()
    print(f"{profile.name}: {len(kernels)} kernels, {len(copies)} memcpys, "
          f"runtime {profile.runtime_s:.1f} s, "
          f"queue parallelism {profile.queue_parallelism}")
    store = getattr(profile.trace, "store", None)
    if store is not None:
        stats = store.stats()
        print(f"columnar store: {int(stats['events'])} events in "
              f"{int(stats['bytes'])} bytes "
              f"({int(stats['interned_names'])} interned names, "
              f"{int(stats['growths'])} growths)")

    if args.trace_out:
        to_json(profile.trace, args.trace_out)
        print(f"trace written to {args.trace_out}")

    if app.penalty.kind == "none":
        print("no accelerator: slack penalty identically zero (Sec III-D)")
        return 0

    slacks = args.slacks or list(PAPER_SLACK_VALUES_S)
    for slack in slacks:
        if slack < 0:
            print("slack must be non-negative", file=sys.stderr)
            return 2
    profiler = CDIProfiler(ctx.surface())

    if app.penalty.kind == "latency-slo":
        from .apps.inference.slo import (
            measure_slo_response,
            predict_slo_response,
        )

        positive = sorted(s for s in slacks if s > 0)
        resp = measure_slo_response(ctx.app_config(args.app), positive)
        print(f"measured SLO inflation vs zero-slack baseline "
              f"(p99 TTFT {resp.baseline.ttft_p99_s * 1e3:.1f} ms, "
              f"mean TPOT {resp.baseline.tpot_mean_s * 1e3:.2f} ms):")
        print(f"{'slack [us]':>12}  {'TTFT [%]':>10}  {'TPOT [%]':>10}")
        for s, ttft, tpot in zip(
            resp.slack_values_s, resp.ttft_penalty, resp.tpot_penalty
        ):
            print(f"{s * 1e6:12.1f}  {ttft * 100:10.4f}  {tpot * 100:10.4f}")
        pred = predict_slo_response(profiler, profile, positive)
        print("predicted per-phase starvation bounds (unchanged "
              "Equations 2-3) + first-order direct delay:")
        print(f"{'slack [us]':>12}  {'prefill [%]':>22}  "
              f"{'decode [%]':>22}  {'decode direct [%]':>18}")
        for s in positive:
            pre, dec = pred.prefill[s], pred.decode[s]
            print(f"{s * 1e6:12.1f}  "
                  f"{pre.lower_percent:10.4f}-{pre.upper_percent:<10.4f}  "
                  f"{dec.lower_percent:10.4f}-{dec.upper_percent:<10.4f}  "
                  f"{pred.decode_direct[s] * 100:18.4f}")
        return 0

    # One vectorized pass over the whole slack grid (bit-identical to
    # per-slack predict calls, see tests/oracles/model.py).
    predictions = profiler.predict_sweep(profile, sorted(slacks))
    print(f"{'slack [us]':>12}  {'lower [%]':>10}  {'upper [%]':>10}")
    for slack, p in predictions.items():
        print(f"{slack * 1e6:12.1f}  {p.lower_percent:10.4f}  "
              f"{p.upper_percent:10.4f}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Describe or validate a fault-plan spec without running anything."""
    from .faults.plan import FaultPlan

    _freeze_imports()
    try:
        plan = FaultPlan.from_spec(args.spec).validate()
    except ValueError as exc:
        print(f"invalid fault plan: {exc}", file=sys.stderr)
        return 2
    if args.action == "describe":
        print(plan.describe())
    else:
        print(
            f"valid fault plan: seed={plan.seed}, "
            f"{len(plan.events)} event(s)"
        )
    return 0


def _parse_tenant_arg(spec: str):
    """Parse ``--tenant NAME:PER_HOUR[:CPU%:GPU%]`` into a TenantSpec."""
    from .cdi.fleet import TenantSpec

    parts = spec.split(":")
    try:
        if len(parts) == 2:
            return TenantSpec(name=parts[0], rate_per_s=float(parts[1]) / 3600.0)
        if len(parts) == 4:
            return TenantSpec(
                name=parts[0],
                rate_per_s=float(parts[1]) / 3600.0,
                cpu_heavy_share=float(parts[2]) / 100.0,
                gpu_heavy_share=float(parts[3]) / 100.0,
            )
        raise ValueError("want NAME:PER_HOUR[:CPU%:GPU%]")
    except ValueError as exc:
        raise SystemExit(f"invalid --tenant {spec!r}: {exc}")


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Generate a multi-tenant stream and run the fleet engine."""
    from .cdi.simulation import ClusterSpec
    from .cdi.fleet import (
        FleetConfig,
        assert_fleet_parity,
        generate_fleet_jobs,
        run_fleet,
    )
    from .cdi.placement import FleetTopology

    _freeze_imports()
    try:
        cluster = ClusterSpec(
            nodes=args.nodes,
            cores_per_node=args.cores_per_node,
            gpus_per_node=args.gpus_per_node,
        )
    except ValueError as exc:
        print(f"invalid cluster geometry: {exc}", file=sys.stderr)
        return 2

    config_kwargs = dict(
        cluster=cluster,
        horizon_s=args.horizon,
        seed=args.seed,
        max_jobs=args.max_jobs,
    )
    if args.tenants:
        config_kwargs["tenants"] = tuple(
            _parse_tenant_arg(s) for s in args.tenants
        )
    try:
        config = FleetConfig(**config_kwargs)
        jobs = generate_fleet_jobs(config)
    except ValueError as exc:
        print(f"cannot generate fleet stream: {exc}", file=sys.stderr)
        return 2

    topology = None
    if args.racks:
        if args.racks < 0 or cluster.total_gpus == 0 or (
            cluster.total_gpus % args.racks
        ):
            print(
                f"--racks must evenly divide the {cluster.total_gpus} "
                f"cluster GPUs",
                file=sys.stderr,
            )
            return 2
        topology = FleetTopology.uniform(
            args.racks, cluster.total_gpus // args.racks
        )
    if args.penalties and topology is None:
        print("--penalties requires --racks", file=sys.stderr)
        return 2
    surrogate = None
    if args.penalties:
        from .experiments.context import ExperimentContext

        ctx = ExperimentContext(quick=not args.full)
        surrogate = ctx.surrogate(method="loglinear")
    faults = _parse_faults_arg(args)

    modes = ["traditional", "cdi"] if args.mode == "both" else [args.mode]
    print(
        f"fleet stream: {len(jobs)} jobs from "
        f"{len(jobs.tenant_names)} tenant(s) over "
        f"{config.horizon_s / 86400.0:g} day(s), seed {config.seed}; "
        f"cluster {cluster.nodes} nodes x {cluster.cores_per_node} cores "
        f"+ {cluster.gpus_per_node} GPUs"
    )

    if args.parity:
        if faults is not None:
            print(
                "--parity is defined for the fault-free schedule; "
                "checking with faults disabled",
                file=sys.stderr,
            )
        for m in modes:
            t0 = time.time()
            assert_fleet_parity(jobs, cluster, m)
            print(
                f"[parity: {len(jobs)} jobs bit-identical to the "
                f"scalar {m} DES in {time.time() - t0:.1f}s]",
                file=sys.stderr,
            )

    metrics_out = _maybe_enable_metrics(args)
    results = {}
    for m in modes:
        t0 = time.time()
        result = run_fleet(
            jobs,
            cluster,
            m,
            placement=args.placement,
            topology=topology,
            faults=faults,
            surrogate=surrogate,
            penalty_matrix_size=args.penalty_matrix,
        )
        wall = time.time() - t0
        results[m] = result
        rate = len(jobs) / wall if wall > 0 else float("inf")
        print(f"\n--- {m}: {len(jobs)} jobs simulated in {wall:.2f}s "
              f"({rate:,.0f} jobs/s) ---")
        print(f"makespan {result.makespan_s / 3600.0:.1f} h, "
              f"mean wait {result.mean_wait_s:.1f} s, "
              f"core util {result.core_utilization:.1%}, "
              f"GPU util {result.gpu_utilization:.1%}, "
              f"trapped {result.trapped_core_hours:.1f} core-h / "
              f"{result.trapped_gpu_hours:.1f} GPU-h")
        if result.penalty is not None and result.penalty_refusals:
            print(f"penalty refusals: {result.penalty_refusals} "
                  f"(slack outside the surrogate domain)")
        header = (f"{'tenant':<14}{'jobs':>8}{'wait p50 [s]':>14}"
                  f"{'wait p99 [s]':>14}{'trapped core-h':>16}")
        if result.penalty is not None:
            header += f"{'penalty p50 [%]':>17}{'p99 [%]':>9}"
        print(header)
        for name, ts in result.tenant_stats().items():
            row = (f"{name:<14}{ts.jobs:>8d}{ts.wait_p50_s:>14.1f}"
                   f"{ts.wait_p99_s:>14.1f}{ts.trapped_core_hours:>16.1f}")
            if result.penalty is not None:
                if ts.penalty_p50 is not None:
                    row += (f"{ts.penalty_p50 * 100:>17.4f}"
                            f"{(ts.penalty_p99 or 0.0) * 100:>9.4f}")
                else:
                    row += f"{'-':>17}{'-':>9}"
            print(row)

    if len(results) == 2:
        trad, cdi = results["traditional"], results["cdi"]
        trapped_trad = trad.trapped_core_hours + trad.trapped_gpu_hours
        trapped_cdi = cdi.trapped_core_hours + cdi.trapped_gpu_hours
        print(f"\nCDI vs traditional: trapped resource-hours "
              f"{trapped_trad:.1f} -> {trapped_cdi:.1f}, "
              f"mean wait {trad.mean_wait_s:.1f} s -> "
              f"{cdi.mean_wait_s:.1f} s")

    _write_metrics_report(
        metrics_out, kind="fleet",
        meta={"modes": modes, "jobs": len(jobs)},
    )
    return 0


def _parse_faults_arg(args: argparse.Namespace):
    """Parse a ``--faults`` spec (None when absent or empty)."""
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    from .faults.plan import FaultPlan

    try:
        plan = FaultPlan.from_spec(spec).validate()
    except ValueError as exc:
        raise SystemExit(f"invalid --faults spec: {exc}")
    return None if plan.is_empty else plan


def _sweep_options(args: argparse.Namespace) -> "SweepOptions":
    """The resolved execution-knob bundle of one CLI invocation."""
    from .proxy.options import SweepOptions

    return SweepOptions(
        workers=_resolve_workers(args),
        cache=not getattr(args, "no_cache", False),
        fast_forward=(
            False if getattr(args, "no_fast_forward", False) else None
        ),
        faults=_parse_faults_arg(args),
        adaptive=getattr(args, "adaptive", False),
        tol=getattr(args, "tol", None),
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run a custom proxy sweep and print the surface."""
    from .proxy.response import SlackResponseSurface
    from .proxy.sweep import (
        PAPER_MATRIX_SIZES,
        PAPER_SLACK_VALUES_S,
        run_slack_sweep,
    )

    _freeze_imports()
    matrix_sizes = args.matrix_sizes or list(PAPER_MATRIX_SIZES)
    slacks = sorted(args.slacks or PAPER_SLACK_VALUES_S)
    threads = args.threads or [1]
    iterations = args.iterations if args.iterations > 0 else None
    try:
        options = _sweep_options(args).validate()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    metrics_out = _maybe_enable_metrics(args)

    common = dict(
        matrix_sizes=matrix_sizes,
        slack_values_s=slacks,
        threads=threads,
        iterations=iterations,
        target_compute_s=args.target_compute,
        options=options,
    )
    if options.adaptive:
        from .model.adaptive import adaptive_slack_sweep

        res = adaptive_slack_sweep(**common)
        sweep = res.dense
        print(
            f"[adaptive: {res.measured_grid_points}/"
            f"{res.dense_grid_points} points measured "
            f"({res.measured_fraction:.0%}: {res.seed_points} seed + "
            f"{res.refined_points} refined), {res.predicted_points} "
            f"predicted within {res.tol:g}, max observed error "
            f"{res.max_error:.2e}]",
            file=sys.stderr,
        )
    else:
        sweep = run_slack_sweep(**common)

    if sweep.timing is not None:
        t = sweep.timing
        print(
            f"[{t.grid_points} grid points in {t.wall_s:.2f}s "
            f"({t.points_per_sec:.1f} pts/s, {t.cached} cached, "
            f"{t.workers} worker(s), {t.mode})]",
            file=sys.stderr,
        )
    _write_metrics_report(metrics_out, kind="sweep", report=sweep.report)
    for n, t, reason in sweep.skipped:
        print(f"skipped matrix {n} x {t} threads: {reason}", file=sys.stderr)
    if not sweep.points:
        print("no measurable configurations", file=sys.stderr)
        return 1
    surface = SlackResponseSurface(sweep)
    for t in surface.thread_counts():
        print(f"--- {t} thread(s): normalized corrected runtime ---")
        print("matrix".ljust(10) + "".join(f"{s * 1e6:>12.0f}us" for s in slacks))
        for n in surface.matrix_sizes(t):
            row = f"{n:<10d}"
            for s in slacks:
                row += f"{1.0 + surface.penalty(n, s, t):>14.4f}"
            print(row)
    return 0


def _serve_setup(args: argparse.Namespace):
    """Fit the surrogate and cold-path config for predict/serve."""
    from .experiments.context import ExperimentContext
    from .serve.service import ColdPathConfig

    _freeze_imports()
    ctx = ExperimentContext(quick=not args.full)
    model = ctx.surrogate(method=args.method)
    cold = ColdPathConfig() if args.cold else None
    return model, cold


def _cmd_predict(args: argparse.Namespace) -> int:
    """One-shot penalty prediction from the serving surrogate."""
    from .serve.surrogate import SurrogateDomainError
    from .serve.service import predict_penalty

    model, cold = _serve_setup(args)
    try:
        p = predict_penalty(
            args.matrix_size, args.slack, args.threads,
            surrogate=model, cold_path=cold,
        )
    except SurrogateDomainError as exc:
        print(f"refused ({exc.reason}): {exc}", file=sys.stderr)
        if not args.cold:
            print("hint: --cold measures out-of-domain queries for real",
                  file=sys.stderr)
        return 1
    print(
        f"matrix {args.matrix_size}, slack {args.slack:g} s, "
        f"{args.threads} thread(s): penalty {p.penalty * 100:.4f}% "
        f"(error bound ±{p.bound * 100:.4f} pp)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Interactive serving loop over stdin queries."""
    import asyncio

    from .serve.service import PenaltyService
    from .serve.surrogate import SurrogateDomainError

    model, cold = _serve_setup(args)
    metrics_out = _maybe_enable_metrics(args)

    async def _loop() -> "PenaltyService":
        svc = PenaltyService(surrogate=model, cold_path=cold)
        async with svc:
            print("ready: SIZE SLACK [THREADS] per line "
                  "(EOF or blank line to exit)", file=sys.stderr)
            for line in sys.stdin:
                line = line.strip()
                if not line:
                    break
                parts = line.split()
                try:
                    size = int(parts[0])
                    slack = float(parts[1])
                    threads = int(parts[2]) if len(parts) > 2 else 1
                except (IndexError, ValueError):
                    print(f"cannot parse query {line!r} "
                          "(want: SIZE SLACK [THREADS])", file=sys.stderr)
                    continue
                try:
                    p = await svc.predict(size, slack, threads)
                except SurrogateDomainError as exc:
                    print(f"refused ({exc.reason})")
                    continue
                print(f"penalty={p.penalty:.6f} bound={p.bound:.6f}")
        return svc

    svc = asyncio.run(_loop())
    stats = svc.stats()
    print(
        f"[served {int(stats['requests'])} request(s): "
        f"{int(stats['answered_warm'])} warm, "
        f"{int(stats['cold_misses'])} cold, "
        f"{int(stats['refused'])} refused]",
        file=sys.stderr,
    )
    _write_metrics_report(metrics_out, kind="serve", report=svc.report())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
