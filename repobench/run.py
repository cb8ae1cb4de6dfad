"""Repository benchmark: one seeded workload, end-to-end or per-layer.

Run from the root of a checkout::

    python3 repobench/run.py --workload sim_disk --seed 2004 \\
        --seconds 36 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (one extra traced pass, spans written to
``.repobench/spans/``).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run context.  See ``repobench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy

from hostspeed import PERIOD_S, REFERENCE_KERNEL_S, HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(ROOT, ".repobench")

#: Set-up repeats (fresh processes) whose median is ``setup_s``.
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "decisions_per_s": "1/s",
    "decision_us_p50": "us",
    "peak_rss_mb": "MB",
    "deadline_miss_ratio": "ratio",
    "inversions_per_request": "count",
    "mean_seek_ms": "ms",
    "sessions_accepted_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "workloads.generate_s": "s",
    "sfc.lut_builds": "count",
    "sfc.lut_disk_loads": "count",
    "sfc.lut_build_s": "s",
    "core.init_s": "s",
    "core.submit_calls": "count",
    "core.submit_requests": "count",
    "core.submit_s": "s",
    "core.next_request_calls": "count",
    "core.next_request_s": "s",
    "core.next_request_us_p99": "us",
    "core.recharacterize_s": "s",
    "disk.init_s": "s",
    "disk.serve_calls": "count",
    "disk.serve_s": "s",
    "disk.sim_busy_ratio": "ratio",
    "sim.self_s": "s",
    "obs.extra_s": "s",
    "serve.run_until_calls": "count",
    "serve.run_until_self_s": "s",
    "serve.open_stream_us_p99": "us",
    "serve.shed_ratio": "ratio",
    "serve.sim_queue_len_mean": "count",
    "cluster.init_s": "s",
    "cluster.run_s": "s",
    "cluster.route_calls": "count",
    "cluster.route_us_p50": "us",
    "cluster.route_us_p99": "us",
    "cluster.spill_ratio": "ratio",
    "cluster.migrations": "count",
    "parallel.cells": "count",
    "parallel.cell_s_max": "s",
    "parallel.cell_s_median": "s",
    "parallel.spec_bytes": "bytes",
    "parallel.result_bytes": "bytes",
    "faults.injected": "count",
    "store.record_s": "s",
    "store.record_bytes": "bytes",
    "bench.unattributed_s": "s",
    "bench.trace_overhead": "ratio",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- set-up ----------------------------------------------------------------------


def prepare_environment(scratch: str) -> None:
    """Engine and LUT cache exactly as the experiments CLI sets them,
    with the cache in a fresh, empty directory of this run."""
    os.environ.setdefault("REPRO_SIM_ENGINE", "batched")
    lut_dir = os.path.join(scratch, "lut-cache")
    os.makedirs(lut_dir)
    os.environ["REPRO_LUT_CACHE_DIR"] = lut_dir
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"repro sources not found under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


class Setup:
    """Imports, input generation and a quick warm-up pass (which fills
    the LUT caches and lazy imports) -- everything before the first
    measured pass."""

    def __init__(self, workload_name: str, seed: int, scratch: str,
                 quick: bool, recorder=None) -> None:
        import repro  # noqa: F401  (import cost belongs to set-up)
        from repro.sfc.lut import LUT_STATS
        from workloads import WORKLOADS

        cls = WORKLOADS[workload_name]
        started = time.perf_counter()
        self.workload = cls(seed, quick=quick)
        self.workload.generate()
        self.generate_s = time.perf_counter() - started
        builds, loads = LUT_STATS.builds, LUT_STATS.disk_loads
        if recorder is not None:
            recorder.install()
        try:
            warm = cls(seed, quick=True)
            warm.generate()
            outcome = warm.run_pass("plain", scratch)
        finally:
            if recorder is not None:
                recorder.uninstall()
        self.warmup_ok = all(ok for _, ok in outcome.laws)
        self.lut_builds = LUT_STATS.builds - builds
        self.lut_disk_loads = LUT_STATS.disk_loads - loads


def setup_samples(args) -> list[tuple[float, float]]:
    """Process start -> ready of fresh set-up processes: (reference
    seconds, wall-clock seconds) each.  The child samples the host
    speed from the start of ``main`` (see :func:`setup_only`); the
    interpreter's start before it and the hand-over after it are
    scaled by the child's median factor."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"] + (["--quick"] if args.quick else []),
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = child.stdout.readline()
            done = time.perf_counter()
        finally:
            child.stdout.close()
            code = child.wait()
        try:
            ready = json.loads(line)
        except ValueError:
            ready = None
        if code != 0 or not isinstance(ready, dict):
            raise RuntimeError(f"set-up process failed (exit {code})")
        outside = (ready["began"] - started) + (done - ready["ready"])
        samples.append((outside / ready["factor"] + ready["reference_s"],
                        done - started))
    return samples


def setup_only(args, scratch: str, host: HostSpeed, began: float) -> int:
    """A set-up process: set up, then report when it began and became
    ready and its set-up time on the reference host."""
    try:
        prepare_environment(scratch)
        setup = Setup(args.workload, args.seed, scratch, args.quick)
    finally:
        ready = time.perf_counter()
        host.uninstall()
    if not setup.warmup_ok:
        print("warm-up failed", flush=True)
        return 1
    print(json.dumps({"began": began, "ready": ready,
                      "reference_s": host.reference_s(began, ready),
                      "factor": host.factor(began, ready)}), flush=True)
    return 0


# -- correctness -----------------------------------------------------------------


def load_reference(workload: str, seed: int, quick: bool) -> dict | None:
    """Pinned fingerprints for this workload/size, on the reference
    seed only."""
    from workloads import REFERENCE_SEED
    if seed != REFERENCE_SEED:
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    return reference["workloads"][workload]["quick" if quick else "full"]


def check_pass(outcome, first: dict, reference: dict | None) -> list:
    """Failed checks of one pass: laws, the run's first pass, and the
    reference fingerprints."""
    failures = [name for name, ok in outcome.laws if not ok]
    for key, digest in outcome.fingerprint.items():
        if first.setdefault(key, digest) != digest:
            failures.append(f"fingerprint {key} differs from first pass")
        if reference is not None and reference.get(key, digest) != digest:
            failures.append(f"fingerprint {key} differs from reference")
    return failures


# -- the run ---------------------------------------------------------------------


class Run:
    def __init__(self, args, scratch: str) -> None:
        self.args = args
        self.scratch = scratch
        self.reference = load_reference(args.workload, args.seed,
                                        args.quick)
        self.setup = None
        self.setup_recorder = None
        self.first: dict = {}
        self.passes: list[tuple[str, object]] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.host = HostSpeed()
        #: (reference-host, wall-clock) latencies of each timed pass.
        self.latencies: list[tuple] = []

    def one(self, kind: str, recorder=None):
        """Run, check and keep one pass; None when it failed."""
        workload = self.setup.workload
        gc.collect()
        self.attempted += 1
        if recorder is None:
            outcome = workload.run_pass(kind, self.scratch)
        else:
            recorder.install()
            try:
                outcome = workload.run_pass(
                    "plain", self.scratch,
                    region=lambda: recorder.span("bench.pass"))
            finally:
                recorder.uninstall()
        failures = check_pass(outcome, self.first, self.reference)
        print(f"[{self.args.workload}] {kind:8s} {outcome.wall_s:8.3f}s "
              f"{'ok' if not failures else 'FAILED: ' + '; '.join(failures)}",
              file=sys.stderr)
        if failures:
            self.failures.extend(failures)
            return None
        if outcome.decision_starts:
            # Keep the timed calls as compact arrays, so that peak
            # memory does not grow with the number of passes a run
            # fits in.
            self.latencies.append((
                self.host.reference_latencies(outcome.decision_starts,
                                              outcome.decision_latencies),
                numpy.asarray(outcome.decision_latencies, numpy.float32)))
            outcome.decision_starts = outcome.decision_latencies = []
        self.passes.append((kind, outcome))
        return outcome

    def measure(self, seconds: float) -> None:
        """One pass of each of the workload's kinds, then every pass that
        still fits in ``seconds`` (a kind that no longer fits is
        skipped, so cheap kinds fill the tail)."""
        kinds = self.setup.workload.kinds
        began = time.perf_counter()
        cost: dict[str, float] = {}
        with self.host:
            for kind in kinds:
                started = time.perf_counter()
                self.one(kind)
                cost[kind] = time.perf_counter() - started
            while True:
                left = seconds - (time.perf_counter() - began)
                fits = [kind for kind in kinds if cost[kind] <= left]
                if not fits:
                    break
                # The kind with the fewest passes so far goes next.
                kind = min(fits, key=lambda k: len(self.of(k)))
                started = time.perf_counter()
                self.one(kind)
                cost[kind] = time.perf_counter() - started

    def of(self, kind: str) -> list:
        return [outcome for k, outcome in self.passes if k == kind]


def end_to_end(run: Run, setup: list[tuple[float, float]]) -> tuple:
    """Host metrics on the reference host (see ``hostspeed``): medians
    over the run's passes of each pass's time on the reference host.
    Also returns the same figures in plain wall-clock time, for the
    run context."""
    host = run.host
    plain = run.of("plain")
    decided = [o for _, o in run.passes if o.decision_span]
    first = plain[0] if plain else None

    def figures(seconds, reference: bool) -> dict:
        return {
            "setup_s": median([s[0] if reference else s[1]
                               for s in setup]),
            "requests_per_s": (first.resolved / median(
                [seconds(o.started, o.started + o.wall_s) for o in plain])
                if first else 0.0),
            "decisions_per_s": median([o.decisions
                                       / seconds(*o.decision_span)
                                       for o in decided]),
            "decision_us_p50": (1e6 * float(numpy.median(numpy.concatenate(
                [calls[0 if reference else 1]
                 for calls in run.latencies])))
                if run.latencies else 0.0),
        }

    metrics = figures(host.reference_s, True)
    metrics.update({
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "deadline_miss_ratio": (first.missed / first.attempted
                                if first else 0.0),
        "inversions_per_request": (first.inversions / first.attempted
                                   if first else 0.0),
        "mean_seek_ms": (first.seek_ms / first.served
                         if first and first.served else 0.0),
        "sessions_accepted_ratio": (
            first.sessions_accepted / first.sessions_attempted
            if first else 0.0),
    })
    return metrics, figures(host.program_s, False)


def per_layer(run: Run, recorder, traced) -> dict:
    names = recorder.by_name()

    def row(name: str) -> dict:
        return names.get(name, {"count": 0, "total_s": 0.0, "self_s": 0.0,
                                "size": 0})

    submits = [row(n) for n in ("core.submit", "core.submit_batch",
                                "core.submit_many")]
    submit_calls = sum(r["count"] for r in submits)
    plain, observed = run.of("plain"), run.of("observed")
    plain_wall = median([o.wall_s for o in plain])
    cells = recorder.durations_of("parallel.run_cluster_cell")
    routes = recorder.durations_of("cluster.route")
    setup = run.setup
    layer = traced.layer
    return {
        "workloads.generate_s": setup.generate_s,
        "sfc.lut_builds": setup.lut_builds,
        "sfc.lut_disk_loads": setup.lut_disk_loads,
        "sfc.lut_build_s": run.setup_recorder.by_name().get(
            "sfc.curve_lut", {"self_s": 0.0})["self_s"],
        "core.init_s": row("core.init")["self_s"],
        "core.submit_calls": submit_calls,
        "core.submit_requests": (sum(r["size"] for r in submits)
                                 / submit_calls if submit_calls else 0.0),
        "core.submit_s": sum(r["self_s"] for r in submits),
        "core.next_request_calls": row("core.next_request")["count"],
        "core.next_request_s": row("core.next_request")["self_s"],
        "core.next_request_us_p99": percentile(
            recorder.durations_of("core.next_request"), 0.99) * 1e6,
        "core.recharacterize_s": row("core.recharacterize")["self_s"],
        "disk.init_s": row("disk.make")["self_s"],
        "disk.serve_calls": row("disk.serve")["count"],
        "disk.serve_s": row("disk.serve")["self_s"],
        "disk.sim_busy_ratio": layer.get("disk.sim_busy_ratio", 0.0),
        "sim.self_s": row("sim.run_simulation")["self_s"],
        "obs.extra_s": (median([o.wall_s for o in observed]) - plain_wall
                        if observed else 0.0),
        "serve.run_until_calls": row("serve.run_until")["count"],
        "serve.run_until_self_s": row("serve.run_until")["self_s"],
        "serve.open_stream_us_p99": percentile(
            recorder.durations_of("serve.open_stream"), 0.99) * 1e6,
        "serve.shed_ratio": layer.get("serve.shed_ratio", 0.0),
        "serve.sim_queue_len_mean": layer.get("serve.sim_queue_len_mean",
                                              0.0),
        "cluster.init_s": row("cluster.init")["self_s"],
        "cluster.run_s": row("cluster.run")["total_s"],
        "cluster.route_calls": len(routes),
        "cluster.route_us_p50": percentile(routes, 0.50) * 1e6,
        "cluster.route_us_p99": percentile(routes, 0.99) * 1e6,
        "cluster.spill_ratio": layer.get("cluster.spill_ratio", 0.0),
        "cluster.migrations": layer.get("cluster.migrations", 0),
        "parallel.cells": len(cells),
        "parallel.cell_s_max": max(cells, default=0.0),
        "parallel.cell_s_median": median(cells),
        "parallel.spec_bytes": layer.get("parallel.spec_bytes", 0),
        "parallel.result_bytes": layer.get("parallel.result_bytes", 0),
        "faults.injected": layer.get("faults.injected", 0),
        "store.record_s": row("store.record")["total_s"],
        "store.record_bytes": layer.get("store.record_bytes", 0),
        "bench.unattributed_s": row("bench.pass")["self_s"],
        "bench.trace_overhead": (traced.wall_s / plain_wall
                                 if plain_wall else 0.0),
    }


def context(args, setup, host: HostSpeed, wall_clock) -> dict:
    from repro.sfc import lut_cache
    from repro.sim.server import resolve_engine
    cache = lut_cache.cache_dir()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine": resolve_engine(None),
        "lut_cache": {
            "dir": os.path.relpath(str(cache), ROOT) if cache else None,
            "state_at_start": "empty",
            "builds": setup.lut_builds,
            "disk_loads": setup.lut_disk_loads,
        },
        "inputs": setup.workload.describe(),
        "quick": args.quick,
        "host_speed": {
            "reference_kernel_s": REFERENCE_KERNEL_S,
            "period_s": PERIOD_S,
            "samples": len(host.durations),
            "factor_median": (median(host.durations)
                              / REFERENCE_KERNEL_S
                              if host.durations else None),
        },
        # The host metrics in plain wall-clock time on this host.
        "wall_clock": wall_clock,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim_disk", "fleet16"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs (self-tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="pin this workload's fingerprints for the "
                             "reference seed in reference.json")
    args = parser.parse_args(argv)

    if args.setup_only:
        # Set-up time is measured from here, so sample from here.
        began = time.perf_counter()
        setup_host = HostSpeed()
        setup_host.install()
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = os.path.join(OUT_DIR, f"work-{os.getpid()}-{time.time_ns()}")
    os.makedirs(scratch)
    try:
        if args.setup_only:
            return setup_only(args, scratch, setup_host, began)
        prepare_environment(scratch)
        from spans import SpanRecorder

        setup_recorder = SpanRecorder() if args.trace else None
        setup = Setup(args.workload, args.seed, scratch, args.quick,
                      recorder=setup_recorder)
        if args.write_reference:
            return write_reference(args, setup, scratch)
        run = Run(args, scratch)
        run.setup = setup
        run.setup_recorder = setup_recorder
        if not setup.warmup_ok:
            run.failures.append("warm-up pass broke a law")

        if args.trace:
            run.one("plain")
            run.one("observed")
            recorder = SpanRecorder()
            traced = run.one("traced", recorder=recorder)
            metrics, wall_clock = {}, None
            if traced is not None:
                metrics = per_layer(run, recorder, traced)
                run.failures.extend(recorder.check(traced.wall_s))
                write_spans(args, recorder, metrics, traced.wall_s)
            units = PER_LAYER_UNITS
        else:
            run.measure(args.seconds)
            metrics, wall_clock = end_to_end(run, setup_samples(args))
            units = END_TO_END_UNITS
        failed = run.attempted - len(run.passes)
        correct = not run.failures and failed == 0 and bool(run.passes)
        print(json.dumps({"context": context(args, setup, run.host,
                                             wall_clock),
                          "failures": run.failures}))
        print(json.dumps({
            "correct": correct,
            "attempted": run.attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics.get(name), "unit": unit}
                        for name, unit in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def write_reference(args, setup, scratch: str) -> int:
    from workloads import REFERENCE_SEED
    if args.seed != REFERENCE_SEED:
        raise SystemExit(f"references are pinned for seed {REFERENCE_SEED}")
    outcome = setup.workload.run_pass("plain", scratch)
    broken = [name for name, ok in outcome.laws if not ok]
    if broken:
        raise SystemExit(f"laws broken, not pinning: {broken}")
    reference = {"seed": REFERENCE_SEED, "workloads": {}}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)
    sizes = reference["workloads"].setdefault(args.workload, {})
    sizes["quick" if args.quick else "full"] = outcome.fingerprint
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def write_spans(args, recorder, metrics: dict, wall: float) -> None:
    """The traced pass's spans (JSONL) and per-name summary (JSON)."""
    directory = os.path.join(OUT_DIR, "spans")
    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, f"{args.workload}-seed{args.seed}")
    recorder.write_jsonl(stem + ".jsonl")
    with open(stem + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump({"traced_wall_s": wall, "spans": recorder.by_name(),
                   "per_layer": metrics}, fh, indent=2, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
