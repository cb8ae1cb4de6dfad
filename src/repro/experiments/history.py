"""Run history: record every run, list/show/replay/diff them.

The glue between the experiment CLI and :mod:`repro.store`.  Each
recordable subcommand has a ``record_*`` helper that packages its spec,
canonical trace bytes, report, and observability payloads into a
:class:`~repro.store.RunRecord`; the ``history`` subcommand group
(:func:`run_history`) queries the store back:

* ``history list`` — summaries, filterable by kind/scheduler/engine/
  label/date;
* ``history show <run>`` — full provenance of one run;
* ``history replay <run>`` — re-executes from the stored config +
  seeds with the *recorded* engine tag pinned, and asserts
  byte-identity of the regenerated trace against the stored one (exit
  1 on divergence, and on a tampered/corrupt entry, which is detected
  from the fingerprint before anything re-executes);
* ``history diff <a> <b>`` — config, QoS, per-phase latency
  percentile, and outcome-counter deltas (``--bench``: the committed
  baseline speedup trajectory instead).

The replay contract per kind (what the trace bytes are):

==========  ==========================================================
``serve``   :func:`repro.experiments.faults_scenario.serialize_trace`
            of the ramp's server (the golden-trace bytes).
``faults``  Per-contender trace digests + the determinism verdict.
``run``     CSV serialization of every table the experiment printed.
``obs``     The schema-versioned span JSONL text (sim-time only).
``cluster`` The controller decision log + the fleet fingerprint.
``bench``   Not replayable (wall-clock timings); recorded for
            provenance and ``diff --bench`` only.
==========  ==========================================================
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from contextlib import contextmanager
from typing import Callable

from repro.store import (
    RunRecord,
    RunStore,
    StoredRun,
    StoreError,
    bench_trajectory,
    diff_runs,
    fingerprint_of,
    open_store,
    render_diff,
)

ENGINE_ENV = "REPRO_SIM_ENGINE"


def _silent(*args, **kwargs) -> None:
    return None


@contextmanager
def pinned_engine(engine: str | None):
    """Run with ``$REPRO_SIM_ENGINE`` forced to the recorded engine.

    Every tier has one loop now, so the recorded tag selects nothing
    and is provenance only; the pin keeps the environment a replay
    sees equal to the one the run recorded.  ``None`` (nothing
    recorded) leaves the environment alone.
    """
    if engine is None:
        yield
        return
    previous = os.environ.get(ENGINE_ENV)
    os.environ[ENGINE_ENV] = engine
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ENGINE_ENV, None)
        else:
            os.environ[ENGINE_ENV] = previous


def current_engine() -> str | None:
    """The engine a run executed under (the CLI stamps the env)."""
    return os.environ.get(ENGINE_ENV)


# -- store resolution -------------------------------------------------------


def maybe_open_store(args) -> RunStore | None:
    """The store to record into, or None when recording is off.

    Recording turns on via ``--record``, an explicit ``--store PATH``,
    or an ambient ``$REPRO_STORE``; the path precedence is ``--store``
    > ``$REPRO_STORE`` > ``results/runs.sqlite``.
    """
    from repro.store import STORE_ENV

    explicit = getattr(args, "store", None)
    if not (explicit or getattr(args, "record", False)
            or os.environ.get(STORE_ENV)):
        return None
    from .common import default_store_path, ensure_parent
    path = explicit or default_store_path()
    return open_store(ensure_parent(path))


# -- per-kind trace builders ------------------------------------------------


def serve_trace(result) -> bytes:
    return result.trace


def faults_trace(result) -> bytes:
    lines = [f"{out.scheduler}|{out.trace_digest}"
             for out in result.outcomes]
    lines.append(f"deterministic|{result.deterministic}")
    return "\n".join(lines).encode()


def tables_trace(tables) -> bytes:
    from .export import table_to_csv
    parts = [f"== {table.title}\n{table_to_csv(table)}"
             for table in tables]
    return "".join(parts).encode()


def obs_trace(result) -> bytes:
    return result.observer.spans.to_jsonl_text().encode()


def cluster_trace(report) -> bytes:
    return (report.plan.serialize()
            + b"\nfingerprint|" + report.fingerprint().encode())


def _table_dict(table) -> dict:
    """A two-column (metric, value) table as a flat mapping."""
    return {str(row[0]): row[1] for row in table.rows
            if len(row) == 2}


# -- record helpers (one per CLI subcommand) --------------------------------


def record_serve(store: RunStore, spec, result, *, argv=(),
                 elapsed: float = 0.0, quick: bool = False,
                 observer=None) -> int:
    record = RunRecord(
        kind="serve",
        config=dataclasses.asdict(spec),
        trace=serve_trace(result),
        engine=current_engine(),
        scheduler=spec.scheduler,
        seed=spec.seed,
        quick=quick,
        argv=tuple(argv),
        report={"summary": _table_dict(result.summary)},
        timings={"total_s": elapsed},
    )
    if observer is not None:
        observer.publish_into(record)
    return store.record(record)


def record_faults(store: RunStore, spec, result, *, argv=(),
                  elapsed: float = 0.0, quick: bool = False) -> int:
    outcomes = {
        out.scheduler: {
            "window_miss_ratio": out.window_miss_ratio,
            "window_misses": out.window_misses,
            "window_completions": out.window_completions,
            "window_high_miss_ratio": out.window_high_miss_ratio,
        }
        for out in result.outcomes
    }
    return store.record(RunRecord(
        kind="faults",
        config=dataclasses.asdict(spec),
        trace=faults_trace(result),
        engine=current_engine(),
        scheduler=",".join(spec.schedulers),
        seed=spec.seed,
        quick=quick,
        argv=tuple(argv),
        report={"deterministic": result.deterministic,
                "outcomes": outcomes},
        timings={"total_s": elapsed},
    ))


def record_run(store: RunStore, name: str, tables, *, argv=(),
               elapsed: float = 0.0, quick: bool = False,
               jobs: int | None = None) -> int:
    return store.record(RunRecord(
        kind="run",
        config={"name": name, "quick": quick, "jobs": jobs},
        trace=tables_trace(tables),
        engine=current_engine(),
        quick=quick,
        label=name,
        argv=tuple(argv),
        timings={"total_s": elapsed},
    ))


def record_obs(store: RunStore, spec, result, *, argv=(),
               elapsed: float = 0.0, quick: bool = False) -> int:
    record = RunRecord(
        kind="obs",
        config=dataclasses.asdict(spec),
        trace=obs_trace(result),
        engine=current_engine(),
        scheduler=spec.serve.scheduler,
        seed=spec.serve.seed,
        quick=quick,
        argv=tuple(argv),
        report={"ok": result.ok,
                "violations": len(result.violations)},
        timings={"total_s": elapsed},
    )
    result.observer.publish_into(record)
    return store.record(record)


def record_cluster(store: RunStore, spec, result, *, argv=(),
                   elapsed: float = 0.0, quick: bool = False) -> int:
    from repro.obs import Registry
    registry = Registry()
    result.report.publish(registry)
    return store.record(RunRecord(
        kind="cluster",
        config=dataclasses.asdict(spec),
        trace=cluster_trace(result.report),
        engine=current_engine(),
        scheduler=spec.scheduler,
        seed=spec.seed,
        quick=quick,
        argv=tuple(argv),
        metrics=registry.to_json(),
        report=result.report.as_dict(),
        timings={"total_s": elapsed},
    ))


def record_bench(store: RunStore, spec, report: dict, *, argv=(),
                 elapsed: float = 0.0, quick: bool = False) -> int:
    return store.record(RunRecord(
        kind="bench",
        config=dataclasses.asdict(spec),
        trace=json.dumps(report, sort_keys=True).encode(),
        engine=current_engine(),
        quick=quick,
        replayable=False,
        argv=tuple(argv),
        report=report,
        timings={"total_s": elapsed,
                 **{name: section.get("seconds")
                    for name, section in report.get("sections", {}).items()
                    if isinstance(section, dict)
                    and isinstance(section.get("seconds"), (int, float))}},
    ))


# -- baseline import --------------------------------------------------------


def import_bench_baselines(store: RunStore,
                           directory: str = ".") -> list[str]:
    """Load committed ``BENCH_PR<n>.json`` files into the store once.

    Idempotent: baselines already present (by label) are skipped, so
    every ``history`` invocation can call this cheaply.  Imported rows
    are ``replayable=False`` — they carry timings, not a trace.
    """
    from .bench import baseline_history
    present = store.labels(kind="bench")
    imported = []
    for number, path in baseline_history(directory):
        label = f"BENCH_PR{number}"
        if label in present:
            continue
        try:
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        store.record(RunRecord(
            kind="bench",
            config={"imported_from": path,
                    "spec": report.get("spec")},
            trace=json.dumps(report, sort_keys=True).encode(),
            engine=report.get("engine"),
            quick=report.get("spec") == "quick",
            replayable=False,
            label=label,
            report=report,
        ))
        imported.append(label)
    return imported


# -- replay -----------------------------------------------------------------


#: Spec fields older runs recorded that no longer exist: ``engine``
#: chose between two serving loops; there is one now, and both old
#: loops traced byte-identically, so it is dropped on replay.
_RETIRED_SPEC_FIELDS = ("engine",)


def _current_fields(config: dict) -> dict:
    return {key: value for key, value in config.items()
            if key not in _RETIRED_SPEC_FIELDS}


def _rebuild_serve_spec(config: dict):
    from .serve_demo import ServeSpec
    return ServeSpec(**_current_fields(config))


def _reexecute_serve(run: StoredRun) -> bytes:
    from . import serve_demo
    result = serve_demo.run(_rebuild_serve_spec(run.config),
                            sink=_silent)
    return serve_trace(result)


def _reexecute_faults(run: StoredRun) -> bytes:
    from . import faults_scenario
    config = dict(run.config)
    config["schedulers"] = tuple(config["schedulers"])
    result = faults_scenario.run(faults_scenario.FaultsSpec(**config))
    return faults_trace(result)


def _reexecute_run(run: StoredRun) -> bytes:
    import io

    from . import cli
    config = run.config
    buffer = io.StringIO()
    tables = cli.run_experiment(config["name"], config["quick"],
                                out=buffer, jobs=config.get("jobs"))
    return tables_trace(tables)


def _reexecute_obs(run: StoredRun) -> bytes:
    import tempfile

    from . import obs_demo
    config = dict(run.config)
    serve_spec = _rebuild_serve_spec(config.pop("serve"))
    with tempfile.TemporaryDirectory() as scratch:
        spec = obs_demo.ObsSpec(serve=serve_spec, out_dir=scratch)
        result = obs_demo.run(spec)
        return obs_trace(result)


def _reexecute_cluster(run: StoredRun) -> bytes:
    from . import cluster_demo
    config = _current_fields(run.config)
    # The jobs bit-identity contract (and the recorded selfcheck that
    # proved it) lets replay run serial without re-proving it.
    config["jobs"] = None
    config["selfcheck"] = False
    result = cluster_demo.run(cluster_demo.ClusterSpec(**config))
    return cluster_trace(result.report)


_REEXECUTORS: dict[str, Callable[[StoredRun], bytes]] = {
    "serve": _reexecute_serve,
    "faults": _reexecute_faults,
    "run": _reexecute_run,
    "obs": _reexecute_obs,
    "cluster": _reexecute_cluster,
}


def replay(run: StoredRun, out=print) -> int:
    """Re-execute ``run`` and assert byte-identity; 0 ok, 1 diverged.

    Order matters: the stored trace is verified against its recorded
    fingerprint *first*, so a tampered or bit-rotted store entry fails
    fast instead of being blamed on the simulator.
    """
    if not run.verify():
        out(f"run {run.run_id}: STORE TAMPERED — trace hashes to "
            f"{fingerprint_of(run.trace)[:16]}, recorded fingerprint "
            f"is {run.fingerprint[:16]}")
        return 1
    if not run.replayable:
        out(f"run {run.run_id}: kind '{run.kind}' records wall-clock "
            "timings, not a deterministic trace; cannot replay")
        return 1
    reexecute = _REEXECUTORS.get(run.kind)
    if reexecute is None:
        out(f"run {run.run_id}: no replayer for kind '{run.kind}'")
        return 1
    started = time.perf_counter()
    with pinned_engine(run.engine):
        trace = reexecute(run)
    elapsed = time.perf_counter() - started
    if trace == run.trace:
        out(f"run {run.run_id} ({run.kind}, engine={run.engine}): "
            f"replay reproduced the trace byte-for-byte "
            f"({len(trace)} bytes, fingerprint "
            f"{run.fingerprint[:16]}) in {elapsed:.1f}s")
        return 0
    out(f"run {run.run_id} ({run.kind}, engine={run.engine}): "
        f"REPLAY DIVERGED — regenerated fingerprint "
        f"{fingerprint_of(trace)[:16]} != recorded "
        f"{run.fingerprint[:16]} ({len(trace)} vs "
        f"{len(run.trace)} bytes)")
    return 1


# -- the history subcommand group -------------------------------------------


def _fmt_when(timestamp: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S",
                         time.localtime(timestamp))


def history_list(store: RunStore, args, out=print) -> int:
    since = None
    if args.since is not None:
        import datetime
        day = datetime.date.fromisoformat(args.since)
        since = time.mktime(day.timetuple())
    rows = store.list(kind=args.kind, scheduler=args.scheduler,
                      engine=args.engine, label=args.label,
                      since=since, limit=args.limit)
    out(f"{'run':>4s}  {'recorded':19s} {'kind':7s} {'sz':2s} "
        f"{'engine':7s} {'scheduler':22s} {'seed':>6s} "
        f"{'label':12s} fingerprint")
    for row in rows:
        out(f"{row.run_id:4d}  {_fmt_when(row.created_at):19s} "
            f"{row.kind:7s} {'q' if row.quick else 'f':2s} "
            f"{row.engine or '-':7s} {(row.scheduler or '-')[:22]:22s} "
            f"{row.seed if row.seed is not None else '-':>6} "
            f"{(row.label or '-')[:12]:12s} {row.fingerprint[:16]}")
    out(f"{len(rows)} run(s)")
    return 0


def history_show(store: RunStore, args, out=print) -> int:
    run = store.get(args.run)
    out(f"run {run.run_id}: kind={run.kind} recorded "
        f"{_fmt_when(run.created_at)}")
    out(f"  engine={run.engine} scheduler={run.scheduler} "
        f"seed={run.seed} quick={run.quick} "
        f"replayable={run.replayable} label={run.label}")
    out(f"  argv: {' '.join(run.argv) if run.argv else '-'}")
    out(f"  fingerprint: {run.fingerprint}"
        + ("" if run.verify() else "  [TAMPERED — trace mismatch]"))
    out(f"  trace: {len(run.trace)} bytes")
    for name, payload in (("spans", run.spans_jsonl),
                          ("metrics", run.metrics),
                          ("report", run.report)):
        if payload is None:
            out(f"  {name}: -")
        elif isinstance(payload, str):
            out(f"  {name}: {len(payload.splitlines())} line(s)")
        else:
            out(f"  {name}: {len(payload)} top-level key(s)")
    if run.timings:
        timings = ", ".join(f"{k}={v:.2f}s"
                            for k, v in sorted(run.timings.items())
                            if isinstance(v, (int, float)))
        out(f"  timings: {timings}")
    out("  config:")
    for line in json.dumps(run.config, indent=2,
                           sort_keys=True).splitlines():
        out(f"    {line}")
    return 0


def history_replay(store: RunStore, args, out=print) -> int:
    return replay(store.get(args.run), out)


def history_diff(store: RunStore, args, out=print) -> int:
    if args.bench:
        labels = sorted(store.labels(kind="bench"),
                        key=lambda lab: (len(lab), lab))
        reports = []
        for label in labels:
            rows = store.list(kind="bench", label=label, limit=1)
            run = store.get(rows[0].run_id)
            if run.report is not None:
                reports.append((label, run.report))
        if not reports:
            out("no bench baselines in the store (and none importable "
                "from BENCH_PR<n>.json)")
            return 1
        out(bench_trajectory(reports))
        return 0
    if args.a is None or args.b is None:
        out("history diff needs two run ids (or --bench)")
        return 2
    out(render_diff(diff_runs(store.get(args.a), store.get(args.b))))
    return 0


def run_history(args, out=print) -> int:
    """Dispatch one ``history`` subcommand; returns the exit code."""
    from .common import default_store_path, ensure_parent
    path = args.store or default_store_path()
    try:
        store = open_store(ensure_parent(path))
    except StoreError as exc:
        out(f"error: {exc}")
        return 1
    with store:
        imported = import_bench_baselines(store)
        if imported:
            out(f"imported {len(imported)} committed bench baseline(s): "
                f"{', '.join(imported)}")
        try:
            handler = {
                "list": history_list,
                "show": history_show,
                "replay": history_replay,
                "diff": history_diff,
            }[args.history_command]
            return handler(store, args, out)
        except StoreError as exc:
            out(f"error: {exc}")
            return 1
