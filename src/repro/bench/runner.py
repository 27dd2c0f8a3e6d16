"""Experiment runner CLI: ``python -m repro.bench run <experiment>``.

Runs a paper experiment at full or reduced scale, prints the markdown
table, and optionally saves markdown/CSV to a results directory.  The
``serve`` subcommand throughput-tests the :class:`QueryService` serving
layer instead (see :func:`serve_experiment`).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.bench.charts import experiment_chart
from repro.bench.experiments import EXPERIMENTS, ExperimentResult
from repro.bench.reporting import (
    format_csv,
    format_kv_table,
    format_markdown_table,
)

__all__ = ["main", "run_experiment", "scaled_overrides",
           "serve_experiment"]


def scaled_overrides(name: str, scale: str) -> dict:
    """Parameter overrides implementing the ``--scale`` presets.

    ``paper`` is the empty override (function defaults are paper scale);
    ``quick`` shrinks graphs and query counts so every experiment
    finishes in seconds.
    """
    if scale == "paper":
        return {}
    if scale != "quick":
        raise ValueError(f"unknown scale {scale!r}")
    quick: dict[str, dict] = {
        "fig8": {"n": 400, "edge_counts": range(420, 800, 90),
                 "num_queries": 5000},
        "fig9": {"n": 400, "edge_counts": range(420, 800, 90),
                 "num_queries": 5000},
        "fig10": {"n": 400, "edge_counts": range(420, 800, 90),
                  "num_queries": 5000},
        "fig11": {"sizes": (200, 400, 600), "num_queries": 5000},
        "fig12": {"n": 400, "edge_counts": range(420, 640, 40)},
        "fig13": {"n": 400, "edge_counts": range(420, 640, 40),
                  "num_queries": 5000},
        "fig14": {"n": 2000, "edge_counts": (2100, 2400, 2800)},
        "table2": {"num_queries": 5000, "names": ("HpyCyc", "XMark")},
        "ablation_meg": {"n": 400, "edge_counts": (450, 550, 700)},
        "ablation_tlc": {"n": 400, "edge_counts": (450, 550, 700),
                         "num_queries": 5000},
        "amortization": {"n": 400, "num_queries": 3000},
        "latency_tails": {"n": 400, "num_queries": 3000},
    }
    return quick.get(name, {})


def run_experiment(name: str, scale: str = "paper",
                   **overrides) -> ExperimentResult:
    """Run one registered experiment with optional overrides."""
    try:
        func = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown experiment {name!r}; available: {known}"
                       ) from None
    params = scaled_overrides(name, scale)
    params.update(overrides)
    return func(**params)


def _save(result: ExperimentResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = result.column_order()
    markdown = format_markdown_table(result.rows, columns,
                                     title=result.title)
    if result.notes:
        markdown += f"\n\n> {result.notes}\n"
    (out_dir / f"{result.name}.md").write_text(markdown, encoding="utf-8")
    (out_dir / f"{result.name}.csv").write_text(
        format_csv(result.rows, columns), encoding="utf-8")


def serve_experiment(*, graph=None, kind: str = "dag", nodes: int = 2000,
                     edges: int = 2600, scheme: str = "dual-i",
                     num_queries: int = 100_000, batch_size: int = 8192,
                     seed: int = 0, baseline: bool = False) -> dict:
    """Drive a query workload through :class:`QueryService`; return the
    serving metrics (plus setup context and, optionally, the scalar-loop
    baseline comparison) as one flat report dict.

    This is the paper's 100k-query protocol run over the production hot
    path: the workload arrives in ``batch_size`` batches, exactly as the
    bench suite and the serving CLI feed it.
    """
    from repro.bench.timing import measure_build_time
    from repro.bench.workloads import chunked, random_query_pairs
    from repro.core.service import QueryService
    from repro.graph.generators import gnm_random_digraph, single_rooted_dag

    if graph is None:
        if kind == "dag":
            graph = single_rooted_dag(nodes, edges, max_fanout=5, seed=seed)
        elif kind == "gnm":
            graph = gnm_random_digraph(nodes, edges, seed=seed)
        else:
            raise ValueError(f"kind must be 'dag' or 'gnm', got {kind!r}")
    built = measure_build_time(graph, scheme)
    pairs = random_query_pairs(graph, num_queries, seed=seed + 1)
    report: dict = {
        "scheme": scheme,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "build_seconds": built.seconds,
        "num_queries": len(pairs),
        "batch_size": batch_size,
    }
    with QueryService(built.index) as service:
        report["vectorised"] = service.vectorised
        for batch in chunked(pairs, batch_size):
            service.query_batch(batch)
        report.update(service.metrics.as_dict())
    if baseline:
        reach = built.index.reachable
        started = time.perf_counter()
        positives = sum(reach(u, v) for u, v in pairs)
        scalar_seconds = time.perf_counter() - started
        service_seconds = report["seconds_total"]
        report["scalar_loop_seconds"] = scalar_seconds
        report["scalar_loop_positives"] = positives
        report["service_speedup"] = (
            scalar_seconds / service_seconds if service_seconds > 0
            else float("inf"))
        if positives != report["positives"]:
            raise AssertionError(
                f"service/scalar disagreement: {report['positives']} vs "
                f"{positives} positives")
    return report


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.bench.buildbench import (append_trajectory,
                                        format_build_report,
                                        run_build_benchmark)

    entry = run_build_benchmark(
        nodes=args.nodes, edges=args.edges, seed=args.seed,
        repeats=3 if args.quick else args.repeats,
        use_meg=not args.no_meg)
    print(format_build_report(entry))
    if str(args.out) != "-":
        append_trajectory(entry, args.out)
        print(f"[appended to {args.out}]")
    if args.assert_speedup is not None:
        speedup = entry.get("speedup", 0.0)
        if speedup < args.assert_speedup:
            print(f"FAIL: speedup {speedup:.2f}x is below the required "
                  f"{args.assert_speedup:.2f}x")
            return 1
        print(f"OK: speedup {speedup:.2f}x >= "
              f"{args.assert_speedup:.2f}x")
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    from repro.bench.kernelbench import (append_trajectory,
                                         format_kernel_report,
                                         run_kernel_benchmark)

    entry = run_kernel_benchmark(
        nodes=args.nodes, edges=args.edges, seed=args.seed,
        scheme=args.scheme, num_pairs=args.pairs,
        repeats=args.repeats)
    print(format_kernel_report(entry))
    if str(args.out) != "-":
        append_trajectory(entry, args.out)
        print(f"[appended to {args.out}]")
    if args.assert_fast is not None:
        speedup = entry["fast_speedup_vs_batched"]
        if speedup < args.assert_fast:
            print(f"FAIL: fast-buffer speedup {speedup:.2f}x is below "
                  f"the required {args.assert_fast:.2f}x over "
                  f"batched-numpy")
            return 1
        print(f"OK: fast-buffer speedup {speedup:.2f}x >= "
              f"{args.assert_fast:.2f}x over batched-numpy")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.graph.io import read_edge_list

    graph = read_edge_list(args.graph) if args.graph is not None else None
    report = serve_experiment(
        graph=graph, kind=args.kind, nodes=args.nodes, edges=args.edges,
        scheme=args.scheme, num_queries=args.queries,
        batch_size=args.batch_size, seed=args.seed,
        baseline=args.baseline)
    print(format_kv_table(
        report, title=f"QueryService — {args.scheme} serving "
                      f"{report['num_queries']} queries"))
    qps = report["queries_per_second"]
    print(f"\n[{qps:,.0f} queries/second through the service]")
    if args.baseline:
        print(f"[{report['service_speedup']:.1f}x the scalar "
              f"reachable loop]")
    return 0


def _cmd_serve_load(args: argparse.Namespace) -> int:
    from repro.bench.serveload import (append_trajectory,
                                       format_obs_overhead_report,
                                       format_protocol_report,
                                       format_scaling_report,
                                       format_serve_report,
                                       format_tenant_report,
                                       run_fleet_smoke,
                                       run_obs_overhead_benchmark,
                                       run_protocol_benchmark,
                                       run_serve_load_benchmark,
                                       run_serve_smoke,
                                       run_tenant_benchmark,
                                       run_tenant_smoke,
                                       run_worker_scaling_benchmark)

    if args.obs_overhead:
        entry = run_obs_overhead_benchmark(
            nodes=args.nodes, edges=args.edges, seed=args.seed,
            scheme=args.scheme, connections=args.connections,
            duration=args.duration, pipeline=args.pipeline,
            batch_size=args.batch_size)
        print(format_obs_overhead_report(entry))
        if str(args.out) != "-":
            append_trajectory(entry, args.out)
            print(f"[appended to {args.out}]")
        if args.assert_overhead is not None:
            overhead = entry["overhead_percent"]
            if overhead > args.assert_overhead:
                print(f"FAIL: ambient observability overhead "
                      f"{overhead:.2f}% exceeds the allowed "
                      f"{args.assert_overhead:.2f}%")
                return 1
            print(f"OK: ambient observability overhead "
                  f"{overhead:.2f}% <= {args.assert_overhead:.2f}%")
        return 0
    if args.tenants > 0:
        return _cmd_serve_load_tenants(args, run_tenant_smoke,
                                       run_tenant_benchmark,
                                       format_tenant_report,
                                       append_trajectory)
    if args.protocols:
        entry = run_protocol_benchmark(
            nodes=args.nodes, edges=args.edges, seed=args.seed,
            scheme=args.scheme, connections=args.connections,
            duration=args.duration, pipeline=args.pipeline,
            batch_size=args.batch_size)
        print(format_protocol_report(entry))
        if str(args.out) != "-":
            append_trajectory(entry, args.out)
            print(f"[appended to {args.out}]")
        if args.assert_speedup is not None:
            speedup = entry["speedup"]
            if speedup < args.assert_speedup:
                print(f"FAIL: binary-over-JSON speedup {speedup:.2f}x "
                      f"is below the required "
                      f"{args.assert_speedup:.2f}x")
                return 1
            print(f"OK: binary-over-JSON speedup {speedup:.2f}x >= "
                  f"{args.assert_speedup:.2f}x")
        return 0
    if args.workers > 1:
        return _cmd_serve_load_fleet(args, run_fleet_smoke,
                                     run_worker_scaling_benchmark,
                                     format_scaling_report,
                                     append_trajectory)
    if args.smoke:
        report = run_serve_smoke(
            nodes=args.nodes if args.nodes != 600 else 400,
            edges=args.edges, seed=args.seed, scheme=args.scheme,
            connections=min(args.connections, 4),
            duration=min(args.duration, 2.0), pipeline=args.pipeline)
        print(format_kv_table(
            {k: v for k, v in report.items()
             if k not in ("reload", "server_stages")},
            title="serve-load smoke"))
        for stage, block in report["server_stages"].items():
            print(f"  stage {stage:10s} p50={block['p50_ms']:.2f}ms "
                  f"p99={block['p99_ms']:.2f}ms")
        print(f"[hot reload swapped in {report['reload']['nodes']} "
              f"nodes from {report['reload']['source']}]")
        print("OK: zero protocol errors, cross-connection batching "
              "active, server-side stage percentiles present, hot "
              "reload verified")
        return 0
    entry = run_serve_load_benchmark(
        nodes=args.nodes, edges=args.edges, seed=args.seed,
        scheme=args.scheme, connections=(8, args.connections),
        duration=args.duration, pipeline=args.pipeline)
    print(format_serve_report(entry))
    if str(args.out) != "-":
        append_trajectory(entry, args.out)
        print(f"[appended to {args.out}]")
    if args.assert_speedup is not None:
        speedup = entry["speedup"]
        if speedup < args.assert_speedup:
            print(f"FAIL: speedup {speedup:.2f}x is below the required "
                  f"{args.assert_speedup:.2f}x")
            return 1
        print(f"OK: speedup {speedup:.2f}x >= "
              f"{args.assert_speedup:.2f}x")
    return 0


def _cmd_serve_load_tenants(args: argparse.Namespace, run_tenant_smoke,
                            run_tenant_benchmark, format_tenant_report,
                            append_trajectory) -> int:
    """``serve-load --tenants N``: multi-tenant smoke gate or bench."""
    if args.smoke:
        report = run_tenant_smoke(
            nodes=args.nodes if args.nodes != 600 else 300,
            edges=args.edges, seed=args.seed, scheme=args.scheme,
            tenants=args.tenants, workers=max(args.workers, 2),
            connections=min(args.connections, 2),
            duration=min(args.duration, 1.5), pipeline=args.pipeline)
        print(format_kv_table(
            {k: v for k, v in report.items()
             if k not in ("streams", "runtime_tenant")},
            title=f"serve-load multi-tenant smoke "
                  f"({args.tenants} tenants, "
                  f"{report['workers']} workers)"))
        for row in report["streams"]:
            print(f"  index {row['index']!s:12} "
                  f"{row['queries']:>7} queries, "
                  f"{row['wrong_answers']} wrong answers")
        print(f"[runtime tenant lifecycle verified: id "
              f"{report['runtime_tenant']['index_id']} created, "
              f"built (gen {report['runtime_tenant']['generation']}), "
              f"queried, dropped]")
        print("OK: zero wrong answers on every tenant stream, "
              "runtime catalog lifecycle verified, no leaked "
              "per-index shared-memory segments")
        return 0
    entry = run_tenant_benchmark(
        nodes=args.nodes, edges=args.edges, seed=args.seed,
        scheme=args.scheme, tenants=args.tenants,
        connections=args.connections, duration=args.duration,
        pipeline=args.pipeline, batch_size=args.batch_size,
        workers=args.workers)
    print(format_tenant_report(entry))
    if str(args.out) != "-":
        append_trajectory(entry, args.out)
        print(f"[appended to {args.out}]")
    if entry["wrong_answers"]:
        print(f"FAIL: {entry['wrong_answers']} wrong answers under "
              f"multi-tenant load")
        return 1
    return 0


def _cmd_serve_load_fleet(args: argparse.Namespace, run_fleet_smoke,
                          run_worker_scaling_benchmark,
                          format_scaling_report,
                          append_trajectory) -> int:
    """``serve-load --workers N``: fleet smoke gate or scaling bench."""
    if args.smoke:
        report = run_fleet_smoke(
            nodes=args.nodes if args.nodes != 600 else 400,
            edges=args.edges, seed=args.seed, scheme=args.scheme,
            workers=args.workers,
            connections=min(args.connections, 4),
            duration=min(args.duration, 2.0), pipeline=args.pipeline)
        print(format_kv_table(
            {k: v for k, v in report.items() if k != "reload"},
            title=f"serve-load fleet smoke ({args.workers} workers)"))
        print(f"[fleet hot swap moved all {report['reload']['workers']} "
              f"workers to generation {report['reload']['generation']}]")
        print(f"OK: zero wrong answers, workers "
              f"{report['served_by']} all served, scaling "
              f"{report['scaling']:.2f}x >= core-aware floor "
              f"{report['expected_scaling']:.2f}x, no leaked "
              f"shared-memory segments")
        return 0
    entry = run_worker_scaling_benchmark(
        nodes=args.nodes, edges=args.edges, seed=args.seed,
        scheme=args.scheme, workers=args.workers,
        connections=args.connections, duration=args.duration,
        pipeline=args.pipeline)
    print(format_scaling_report(entry))
    if str(args.out) != "-":
        append_trajectory(entry, args.out)
        print(f"[appended to {args.out}]")
    if args.assert_scaling is not None:
        floor = (entry["expected_scaling"]
                 if args.assert_scaling == "auto"
                 else float(args.assert_scaling))
        if entry["scaling"] < floor:
            print(f"FAIL: scaling {entry['scaling']:.2f}x is below "
                  f"the required {floor:.2f}x")
            return 1
        print(f"OK: scaling {entry['scaling']:.2f}x >= {floor:.2f}x")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.bench``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment",
                     choices=sorted(EXPERIMENTS) + ["all"],
                     help="experiment name")
    run.add_argument("--scale", choices=("paper", "quick"), default="paper",
                     help="paper-scale parameters or a quick smoke run")
    run.add_argument("--out", type=Path, default=None,
                     help="directory to save markdown/CSV results")
    run.add_argument("--chart", action="store_true",
                     help="also print an ASCII chart of the main series")

    sub.add_parser("list", help="list available experiments")

    serve = sub.add_parser(
        "serve",
        help="throughput-test the QueryService serving layer")
    serve.add_argument("--graph", type=Path, default=None,
                       help="edge-list file (default: synthetic graph)")
    serve.add_argument("--kind", choices=("dag", "gnm"), default="dag",
                       help="synthetic family when --graph is absent")
    serve.add_argument("--nodes", type=int, default=2000)
    serve.add_argument("--edges", type=int, default=2600)
    serve.add_argument("--scheme", default="dual-i",
                       help="index scheme to serve (see `repro-reach "
                            "schemes`)")
    serve.add_argument("--queries", type=int, default=100_000,
                       help="workload size (paper protocol: 100k)")
    serve.add_argument("--batch-size", type=int, default=8192,
                       help="queries per service batch")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--baseline", action="store_true",
                       help="also time the scalar reachable loop and "
                            "report the speedup")

    serve_load = sub.add_parser(
        "serve-load",
        help="benchmark the repro.server gateway under multi-"
             "connection load (micro-batched vs. unbatched)")
    serve_load.add_argument("--nodes", type=int, default=600,
                            help="graph size (default: the Figure 11 "
                                 "quick-scale largest graph)")
    serve_load.add_argument("--edges", type=int, default=None,
                            help="edge count (default: 1.5x nodes)")
    serve_load.add_argument("--seed", type=int, default=None,
                            help="generator seed (default: seed = "
                                 "nodes)")
    serve_load.add_argument("--scheme", default="dual-i")
    serve_load.add_argument("--connections", type=int, default=32,
                            help="peak concurrent connections")
    serve_load.add_argument("--duration", type=float, default=2.0,
                            help="seconds of load per measurement "
                                 "point")
    serve_load.add_argument("--pipeline", type=int, default=16,
                            help="in-flight requests per connection")
    serve_load.add_argument("--out", type=Path,
                            default=Path("BENCH_serve.json"),
                            help="trajectory file to append to ('-' "
                                 "to skip writing)")
    serve_load.add_argument("--assert-speedup", type=float,
                            default=None, metavar="RATIO",
                            help="exit non-zero unless micro-batching "
                                 "is at least RATIO times faster than "
                                 "one-query-per-request")
    serve_load.add_argument("--smoke", action="store_true",
                            help="CI gate: short low-concurrency run "
                                 "asserting zero protocol errors, "
                                 "multi-query flushes, and one hot "
                                 "reload")
    serve_load.add_argument("--workers", type=int, default=1,
                            help="benchmark the multi-process worker "
                                 "fleet: throughput at 1..N workers "
                                 "(with --smoke: the fleet CI gate — "
                                 "differential answers, core-aware "
                                 "scaling floor, fleet-wide hot swap, "
                                 "shared-memory leak scan)")
    serve_load.add_argument("--protocols", action="store_true",
                            help="compare JSON vs binary wire framing "
                                 "through one server at the peak "
                                 "connection count (--assert-speedup "
                                 "then gates the binary-over-JSON "
                                 "ratio)")
    serve_load.add_argument("--batch-size", type=int, default=16,
                            help="pairs per request in the --protocols "
                                 "comparison (both protocols use the "
                                 "same value)")
    serve_load.add_argument("--obs-overhead", action="store_true",
                            help="measure the operations plane's cost: "
                                 "throughput with the SLO engine + "
                                 "flight recorder off, on, and on with "
                                 "per-request tracing "
                                 "(--assert-overhead then gates the "
                                 "ambient off-to-on loss)")
    serve_load.add_argument("--assert-overhead", type=float,
                            default=None, metavar="PERCENT",
                            help="with --obs-overhead: exit non-zero "
                                 "if the ambient overhead exceeds "
                                 "PERCENT")
    serve_load.add_argument("--assert-scaling", default=None,
                            metavar="RATIO",
                            help="with --workers: exit non-zero unless "
                                 "the top fleet reaches RATIO times the "
                                 "single-worker throughput ('auto' = "
                                 "the core-aware floor)")
    serve_load.add_argument("--tenants", type=int, default=0,
                            metavar="N",
                            help="drive N named catalog indexes plus "
                                 "the default concurrently, one "
                                 "differentially-verified stream each "
                                 "(with --smoke: the multi-tenant CI "
                                 "gate — zero wrong answers per "
                                 "tenant, runtime catalog lifecycle, "
                                 "per-index shared-memory leak scan; "
                                 "composes with --workers)")

    kernel = sub.add_parser(
        "kernel",
        help="microbenchmark the query kernels (scalar loop, batched "
             "NumPy, fast buffer path, compiled extension) on one "
             "workload")
    kernel.add_argument("--nodes", type=int, default=600,
                        help="graph size (default: the Figure 11 "
                             "quick-scale largest graph)")
    kernel.add_argument("--edges", type=int, default=None,
                        help="edge count (default: 1.5x nodes)")
    kernel.add_argument("--seed", type=int, default=None,
                        help="generator seed (default: seed = nodes)")
    kernel.add_argument("--scheme", default="dual-i")
    kernel.add_argument("--pairs", type=int, default=100_000,
                        help="workload size (paper protocol: 100k)")
    kernel.add_argument("--repeats", type=int, default=5,
                        help="rounds per kernel; best-of wall clock")
    kernel.add_argument("--out", type=Path,
                        default=Path("BENCH_kernel.json"),
                        help="trajectory file to append to ('-' to "
                             "skip writing)")
    kernel.add_argument("--assert-fast", type=float, default=None,
                        metavar="RATIO",
                        help="exit non-zero unless the fast buffer "
                             "path is at least RATIO times the "
                             "batched-numpy throughput")

    claims = sub.add_parser(
        "claims", help="grade the paper-fidelity claims (PASS/FAIL)")
    claims.add_argument("--scale", choices=("paper", "quick"),
                        default="quick")

    build = sub.add_parser(
        "build",
        help="benchmark pipeline construction across backends")
    build.add_argument("--nodes", type=int, default=600,
                       help="graph size (default: the Figure 11 "
                            "quick-scale largest graph)")
    build.add_argument("--edges", type=int, default=None,
                       help="edge count (default: 1.5x nodes, the "
                            "Figure 11 density)")
    build.add_argument("--seed", type=int, default=None,
                       help="generator seed (default: Figure 11 "
                            "convention, seed = nodes)")
    build.add_argument("--repeats", type=int, default=7,
                       help="rounds per backend; best-of wall clock")
    build.add_argument("--quick", action="store_true",
                       help="smoke mode: 3 repeats")
    build.add_argument("--no-meg", action="store_true",
                       help="skip the MEG preprocessing phase")
    build.add_argument("--out", type=Path,
                       default=Path("BENCH_build.json"),
                       help="trajectory file to append to ('-' to skip "
                            "writing)")
    build.add_argument("--assert-speedup", type=float, default=None,
                       metavar="RATIO",
                       help="exit non-zero unless fast is at least "
                            "RATIO times faster than python")

    args = parser.parse_args(argv)
    if args.command == "build":
        return _cmd_build(args)
    if args.command == "kernel":
        return _cmd_kernel(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "serve-load":
        return _cmd_serve_load(args)
    if args.command == "claims":
        from repro.bench.claims import run_claims

        verdicts = run_claims(scale=args.scale)
        for verdict in verdicts:
            print(verdict.summary())
        failed = sum(1 for v in verdicts if not v.passed)
        print(f"\n{len(verdicts) - failed}/{len(verdicts)} fidelity "
              f"claims hold at scale={args.scale}")
        return 1 if failed else 0
    if args.command == "list":
        for name, func in sorted(EXPERIMENTS.items()):
            doc = (func.__doc__ or "").strip().splitlines()[0]
            print(f"{name:14s} {doc}")
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [
        args.experiment]
    for name in names:
        started = time.perf_counter()
        result = run_experiment(name, scale=args.scale)
        elapsed = time.perf_counter() - started
        print(format_markdown_table(result.rows, result.column_order(),
                                    title=result.title))
        if args.chart:
            chart = experiment_chart(result)
            if chart:
                print()
                print(chart)
        if result.notes:
            print(f"\n> {result.notes}")
        print(f"\n[{name} completed in {elapsed:.1f}s]\n")
        if args.out is not None:
            _save(result, args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
