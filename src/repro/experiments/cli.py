"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig5 [--quick]
    python -m repro.experiments run all [--quick]
    python -m repro.experiments serve [--quick] [--policy reservation]
    python -m repro.experiments bench [--quick] [--out FILE]
    python -m repro.experiments obs [--quick] [--out-dir DIR]
    python -m repro.experiments cluster [--quick] [--jobs N]

Every simulation-running subcommand accepts ``--engine
{legacy,batched}`` for compatibility with recorded command lines.  It
selects nothing: the offline simulator, the RAID-5 array and the
serving loop (:class:`repro.serve.StreamingServer`) have a single loop
each.  The value is stamped into ``$REPRO_SIM_ENGINE`` and recorded
with the run as provenance.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from typing import Callable

from . import (
    fig1_curves,
    fig5_priority_inversion,
    fig6_scalability,
    fig7_fairness,
    fig8_f_tradeoff,
    fig9_selectivity,
    fig10_r_tradeoff,
    fig11_aggregate_losses,
    table1_disk_model,
)
from .common import Table


def _tables_of(result: object) -> list[Table]:
    """Collect every Table an experiment result carries."""
    if isinstance(result, Table):
        return [result]
    tables: list[Table] = []
    for attr in vars(result).values() if hasattr(result, "__dict__") else []:
        if isinstance(attr, Table):
            tables.append(attr)
        elif isinstance(attr, list):
            tables.extend(t for t in attr if isinstance(t, Table))
    return tables


def _run_spec(module, quick: bool, jobs: int | None = None):
    # Only spec classes the module itself defines count — imported
    # helpers like repro.parallel.CellSpec must not shadow them.
    spec_cls = next(
        (obj for name in dir(module)
         if name.endswith("Spec")
         and isinstance(obj := getattr(module, name), type)
         and obj.__module__ == module.__name__),
        None,
    )
    if spec_cls is None:
        return module.run()
    spec = spec_cls()
    if quick:
        spec = spec.quick()
    if jobs is not None and hasattr(spec, "jobs"):
        spec = dataclasses.replace(spec, jobs=jobs)
    return module.run(spec)


EXPERIMENTS: dict[str, Callable[..., object]] = {
    "table1": lambda quick, jobs=None: table1_disk_model.run(),
    "fig1": lambda quick, jobs=None: _run_spec(fig1_curves, quick),
    "fig5": lambda quick, jobs=None: _run_spec(fig5_priority_inversion,
                                               quick, jobs),
    "fig6": lambda quick, jobs=None: _run_spec(fig6_scalability, quick,
                                               jobs),
    "fig7": lambda quick, jobs=None: _run_spec(fig7_fairness, quick,
                                               jobs),
    "fig8": lambda quick, jobs=None: _run_spec(fig8_f_tradeoff, quick,
                                               jobs),
    "fig9": lambda quick, jobs=None: _run_spec(fig9_selectivity, quick,
                                               jobs),
    "fig10": lambda quick, jobs=None: _run_spec(fig10_r_tradeoff, quick,
                                                jobs),
    "fig11": lambda quick, jobs=None: _run_spec(fig11_aggregate_losses,
                                                quick, jobs),
}

DESCRIPTIONS = {
    "table1": "disk model calibration (Table 1)",
    "fig1": "curve structural properties",
    "fig5": "priority inversion vs window size",
    "fig6": "scalability with QoS dimensionality",
    "fig7": "fairness across priority dimensions",
    "fig8": "deadline balance factor f",
    "fig9": "selectivity of deadline misses",
    "fig10": "seek partition count R",
    "fig11": "editing-server aggregate losses",
}


def run_experiment(name: str, quick: bool,
                   out=sys.stdout, csv_dir: str | None = None,
                   jobs: int | None = None) -> list[Table]:
    """Run one experiment; print its tables, optionally export CSV."""
    result = EXPERIMENTS[name](quick, jobs)
    tables = _tables_of(result)
    for table in tables:
        print(table.render(), file=out)
        print(file=out)
    if csv_dir is not None:
        from .export import export_tables
        for path in export_tables(tables, csv_dir, prefix=f"{name}-"):
            print(f"wrote {path}", file=out)
    return tables


def run_serve(args) -> int:
    """The online serving-layer ramp demo (`serve` subcommand)."""
    from . import history, serve_demo

    spec = serve_demo.ServeSpec(
        scheduler=args.scheduler,
        policy=args.policy,
        report_every_ms=args.report_every,
    )
    if args.quick:
        spec = spec.quick()
    store = history.maybe_open_store(args)
    observer = None
    if store is not None:
        # Recording lights up the span/metrics pillars so the stored
        # run carries per-phase latency histograms for `history diff`.
        from repro.obs import Observer
        observer = Observer()
    started = time.perf_counter()
    print("=== serve: admission-controlled streaming ramp "
          f"(scheduler={spec.scheduler}, policy={spec.policy})")
    result = serve_demo.run(spec, observer=observer)
    print(result.summary.render())
    print()
    if args.verbose:
        print(result.decisions_table.render())
        print()
    if args.out is not None:
        print(f"wrote {serve_demo.write_ramp_csv(result, args.out)}")
    if args.csv is not None:
        from .export import export_tables
        tables = [result.summary, result.decisions_table]
        for path in export_tables(tables, args.csv, prefix="serve-"):
            print(f"wrote {path}")
    elapsed = time.perf_counter() - started
    if store is not None:
        with store:
            run_id = history.record_serve(
                store, spec, result, argv=args.argv_,
                elapsed=elapsed, quick=args.quick, observer=observer)
        print(f"recorded run {run_id} -> {store.path}")
    print(f"--- serve done in {elapsed:.1f}s")
    return 0


def run_faults(args) -> int:
    """Schedulers under one fault schedule (`faults` subcommand)."""
    from . import faults_scenario, history

    spec = faults_scenario.FaultsSpec(seed=args.seed)
    if args.quick:
        spec = spec.quick()
    store = history.maybe_open_store(args)
    started = time.perf_counter()
    print("=== faults: schedulers under an identical fault schedule "
          f"(seed={spec.seed})")
    result = faults_scenario.run(spec)
    print(result.summary.render())
    print(f"deterministic replay: {result.deterministic}")
    cascaded = result.outcome("cascaded-sfc")
    beaten = [
        out.scheduler for out in result.outcomes
        if out.scheduler != "cascaded-sfc"
        and cascaded.window_miss_ratio < out.window_miss_ratio
    ]
    print("degraded-window winner: cascaded-sfc beats "
          f"{', '.join(beaten) if beaten else 'nothing'}")
    if args.out is not None:
        print(f"wrote {faults_scenario.write_faults_csv(result, args.out)}")
    elapsed = time.perf_counter() - started
    if store is not None:
        with store:
            run_id = history.record_faults(
                store, spec, result, argv=args.argv_,
                elapsed=elapsed, quick=args.quick)
        print(f"recorded run {run_id} -> {store.path}")
    print(f"--- faults done in {elapsed:.1f}s")
    return 0 if (result.deterministic and beaten) else 1


def run_bench(args) -> int:
    """Hot-path benchmark baseline (`bench` subcommand)."""
    from . import bench, history

    spec = bench.BenchSpec()
    if args.quick:
        spec = spec.quick()
    store = history.maybe_open_store(args)
    started = time.perf_counter()
    print("=== bench: hot-path timings and safety invariants "
          f"({'quick' if args.quick else 'full'})")
    report = bench.run(spec)
    print(bench.render(report))
    if args.out is not None:
        print(f"wrote {bench.write_report(report, args.out)}")
    elapsed = time.perf_counter() - started
    if store is not None:
        with store:
            run_id = history.record_bench(
                store, spec, report, argv=args.argv_,
                elapsed=elapsed, quick=args.quick)
        print(f"recorded run {run_id} -> {store.path}")
    print(f"--- bench done in {elapsed:.1f}s")
    return 0 if report["ok"] else 1


def run_obs(args) -> int:
    """Observed serve ramp with span/metric exports (`obs` subcommand)."""
    from . import history, obs_demo

    spec = obs_demo.ObsSpec(out_dir=args.out_dir)
    if args.quick:
        spec = spec.quick()
    store = history.maybe_open_store(args)
    started = time.perf_counter()
    print("=== obs: request-lifecycle tracing, metrics, and profiling "
          f"({'quick' if args.quick else 'full'})")
    result = obs_demo.run(spec)
    print(result.report)
    print()
    for path in result.paths:
        print(f"wrote {path}")
    if result.violations:
        print(f"INVALID: {len(result.violations)} span-contract "
              "violations")
        for violation in result.violations[:10]:
            print(f"  - {violation}")
    elapsed = time.perf_counter() - started
    if store is not None:
        with store:
            run_id = history.record_obs(
                store, spec, result, argv=args.argv_,
                elapsed=elapsed, quick=args.quick)
        print(f"recorded run {run_id} -> {store.path}")
    print(f"--- obs done in {elapsed:.1f}s")
    return 0 if result.ok else 1


def run_cluster(args) -> int:
    """Fleet of arrays behind one controller (`cluster` subcommand)."""
    import dataclasses as dc

    from . import cluster_demo, history

    spec = cluster_demo.ClusterSpec(
        placement=args.policy,
        seed=args.seed,
        jobs=args.jobs,
    )
    if args.quick:
        spec = spec.quick()
    if args.arrays is not None:
        spec = dc.replace(spec, arrays=args.arrays)
    if args.selfcheck is not None:
        spec = dc.replace(spec, selfcheck=args.selfcheck)
    store = history.maybe_open_store(args)
    started = time.perf_counter()
    print(f"=== cluster: {spec.arrays}-array fleet "
          f"(placement={spec.placement}, jobs={spec.jobs or 1})")
    result = cluster_demo.run(spec)
    print(result.summary.render())
    print()
    if args.verbose:
        print(result.arrays_table.render())
        print()
    if args.out is not None:
        from .common import ensure_parent
        print(f"wrote {result.report.write_json(ensure_parent(args.out))}")
    for name, ok, detail in result.checks:
        if not ok:
            print(f"FAILED check: {name} ({detail})")
    elapsed = time.perf_counter() - started
    if store is not None:
        with store:
            run_id = history.record_cluster(
                store, spec, result, argv=args.argv_,
                elapsed=elapsed, quick=args.quick)
        print(f"recorded run {run_id} -> {store.path}")
    print(f"--- cluster done in {elapsed:.1f}s")
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    # Shared by every simulation-running subcommand.  --engine is kept
    # so recorded command lines still parse; every tier has one loop,
    # so the value is only stamped into $REPRO_SIM_ENGINE and recorded.
    engine_parent = argparse.ArgumentParser(add_help=False)
    engine_parent.add_argument(
        "--engine", choices=("legacy", "batched"), default=None,
        help="recorded with the run only; every tier has one loop "
             "(default: $REPRO_SIM_ENGINE, else batched)")
    # Recording is opt-in per run (--record), implied by an explicit
    # --store PATH, or ambient for a whole session ($REPRO_STORE).
    engine_parent.add_argument(
        "--record", action="store_true",
        help="record this run's provenance (config, trace, report, "
             "observability payloads) into the run store")
    engine_parent.add_argument(
        "--store", metavar="PATH", default=None,
        help="run-store file (implies --record; default: "
             "$REPRO_STORE, else results/runs.sqlite)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runner = sub.add_parser("run", help="run one experiment (or 'all')",
                            parents=[engine_parent])
    runner.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"])
    runner.add_argument("--quick", action="store_true",
                        help="benchmark-sized instance")
    runner.add_argument("--csv", metavar="DIR", default=None,
                        help="also export every table as CSV into DIR")
    runner.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the experiment grid "
                             "(default: serial; results are "
                             "bit-identical at any N)")
    server = sub.add_parser(
        "serve", help="online serving-layer ramp demo (repro.serve)",
        parents=[engine_parent],
    )
    server.add_argument("--quick", action="store_true",
                        help="short ramp (same saturation point)")
    server.add_argument("--policy", default="reservation",
                        choices=("reservation", "measurement", "always"),
                        help="admission controller")
    server.add_argument("--scheduler", default="cascaded-sfc",
                        help="serving scheduler (registry name)")
    server.add_argument("--report-every", type=float, default=None,
                        metavar="MS", help="periodic QoS report interval")
    server.add_argument("--verbose", action="store_true",
                        help="also print the per-user decision table")
    server.add_argument("--out", metavar="PATH", default=None,
                        help="write the ramp decisions CSV to PATH")
    server.add_argument("--csv", metavar="DIR", default=None,
                        help="also export tables as CSV into DIR")
    faults = sub.add_parser(
        "faults",
        help="schedulers under an identical fault schedule (repro.faults)",
        parents=[engine_parent],
    )
    faults.add_argument("--quick", action="store_true",
                        help="benchmark-sized run (same fault acts)")
    faults.add_argument("--seed", type=int, default=2004,
                        help="fault-schedule seed")
    faults.add_argument("--out", metavar="PATH", default=None,
                        help="comparison CSV (default: "
                             "results/faults_compare.csv for full runs, "
                             "skipped under --quick; use '' to skip)")
    benchp = sub.add_parser(
        "bench",
        help="hot-path benchmark baseline with safety invariants",
        parents=[engine_parent],
    )
    benchp.add_argument("--quick", action="store_true",
                        help="CI-sized run (same invariants)")
    benchp.add_argument("--out", metavar="PATH", default=None,
                        help="write the JSON report (default: the next "
                             "BENCH_PR<n>.json for full runs, skipped "
                             "under --quick; use '' to skip)")
    obsp = sub.add_parser(
        "obs",
        help="observed serve ramp: lifecycle spans, metrics, profiling",
        parents=[engine_parent],
    )
    obsp.add_argument("--quick", action="store_true",
                      help="CI-sized ramp (same validation)")
    obsp.add_argument("--out-dir", metavar="DIR", default="results",
                      help="export directory for spans/trace/metrics "
                           "(default: results)")
    clusterp = sub.add_parser(
        "cluster",
        help="fleet of arrays: placement, global admission, migration",
        parents=[engine_parent],
    )
    clusterp.add_argument("--quick", action="store_true",
                          help="4-array CI scenario (MPEG profile, one "
                               "disk failure)")
    clusterp.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="worker processes for the per-array "
                               "serving cells (bit-identical at any N)")
    clusterp.add_argument("--arrays", type=int, default=None,
                          metavar="N", help="override the fleet size")
    clusterp.add_argument("--policy", default="ring",
                          choices=("ring", "least-reserved"),
                          help="stream placement policy")
    clusterp.add_argument("--seed", type=int, default=2004,
                          help="fleet scenario seed")
    clusterp.add_argument("--selfcheck", action="store_true",
                          default=None,
                          help="force the jobs bit-identity re-run "
                               "(default: on under --quick)")
    clusterp.add_argument("--verbose", action="store_true",
                          help="also print the per-array QoS table")
    clusterp.add_argument("--out", metavar="PATH", default=None,
                          help="write the fleet QoS report JSON "
                               "(default: results/cluster_qos.json "
                               "under --quick; use '' to skip)")
    historyp = sub.add_parser(
        "history",
        help="query the run store: list/show/replay/diff recorded runs",
    )
    store_parent = argparse.ArgumentParser(add_help=False)
    store_parent.add_argument(
        "--store", metavar="PATH", default=None,
        help="run-store file (default: $REPRO_STORE, else "
             "results/runs.sqlite)")
    hist_sub = historyp.add_subparsers(dest="history_command",
                                       required=True)
    hlist = hist_sub.add_parser("list", parents=[store_parent],
                                help="list recorded runs, newest first")
    hlist.add_argument("--kind", default=None,
                       choices=("run", "serve", "faults", "bench",
                                "obs", "cluster"))
    hlist.add_argument("--scheduler", default=None)
    hlist.add_argument("--engine", default=None,
                       choices=("legacy", "batched"))
    hlist.add_argument("--label", default=None)
    hlist.add_argument("--since", metavar="YYYY-MM-DD", default=None,
                       help="only runs recorded on/after this date")
    hlist.add_argument("--limit", type=int, default=None, metavar="N")
    hshow = hist_sub.add_parser("show", parents=[store_parent],
                                help="full provenance of one run")
    hshow.add_argument("run", type=int)
    hreplay = hist_sub.add_parser(
        "replay", parents=[store_parent],
        help="re-execute a run from its stored config and assert "
             "byte-identity of the trace (exit 1 on divergence)")
    hreplay.add_argument("run", type=int)
    hdiff = hist_sub.add_parser(
        "diff", parents=[store_parent],
        help="QoS, per-phase latency, and outcome deltas between "
             "two runs (--bench: baseline speedup trajectory)")
    hdiff.add_argument("a", type=int, nargs="?", default=None)
    hdiff.add_argument("b", type=int, nargs="?", default=None)
    hdiff.add_argument("--bench", action="store_true",
                       help="render the committed BENCH_PR<n> "
                            "end-to-end speedup trajectory")
    args = parser.parse_args(argv)
    # The exact invocation, recorded as provenance (works both for
    # process use and for main(argv) callers like the tests).
    args.argv_ = tuple(sys.argv[1:] if argv is None else argv)

    # The recorded engine tag: --engine > $REPRO_SIM_ENGINE > batched.
    # Routed through the environment so worker processes (--jobs N)
    # record the same tag.
    engine = getattr(args, "engine", None)
    if engine is not None:
        os.environ["REPRO_SIM_ENGINE"] = engine
    else:
        os.environ.setdefault("REPRO_SIM_ENGINE", "batched")

    from .common import results_path
    if getattr(args, "out", None) == "":
        args.out = None
    elif (args.command == "bench" and args.out is None
            and not args.quick):
        # Only full runs record a new baseline, always the next
        # BENCH_PR<n>.json after the latest committed one (which the
        # run itself compared against).
        from .bench import next_baseline_path
        args.out = next_baseline_path()
    elif (args.command == "faults" and args.out is None
            and not args.quick):
        # Only full-spec runs refresh the recorded comparison; the
        # quick demo must not clobber it with benchmark-sized numbers.
        args.out = results_path("faults_compare.csv")
    elif (args.command == "cluster" and args.out is None
            and args.quick):
        # The quick fleet report is the cluster-smoke CI artifact.
        args.out = results_path("cluster_qos.json")

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(f"{name:8s} {DESCRIPTIONS[name]}")
        print("serve    online admission-controlled streaming ramp")
        print("faults   schedulers under an identical fault schedule")
        print("bench    hot-path benchmark baseline (invariant-checked)")
        print("obs      observed serve ramp (spans, metrics, profiling)")
        print("cluster  fleet of arrays: placement, admission, migration")
        print("history  run store: list/show/replay/diff recorded runs")
        return 0

    if args.command == "history":
        from .history import run_history
        return run_history(args)

    if args.command == "serve":
        return run_serve(args)

    if args.command == "faults":
        return run_faults(args)

    if args.command == "bench":
        return run_bench(args)

    if args.command == "obs":
        return run_obs(args)

    if args.command == "cluster":
        return run_cluster(args)

    from . import history
    store = history.maybe_open_store(args)
    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        started = time.perf_counter()
        print(f"=== {name}: {DESCRIPTIONS[name]}")
        tables = run_experiment(name, args.quick, csv_dir=args.csv,
                                jobs=args.jobs)
        elapsed = time.perf_counter() - started
        if store is not None:
            run_id = history.record_run(
                store, name, tables, argv=args.argv_,
                elapsed=elapsed, quick=args.quick, jobs=args.jobs)
            print(f"recorded run {run_id} -> {store.path}")
        print(f"--- {name} done in {elapsed:.1f}s")
        print()
    if store is not None:
        store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
