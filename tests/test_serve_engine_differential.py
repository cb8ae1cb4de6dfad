"""Differential harness: the serving loop vs the reference loop.

:meth:`StreamingServer.run_until` admits pure-arrival spans in bulk
and takes a flat event step for every other instant; its correctness
contract is one sentence: *for every accepted input, the shipped loop
reproduces the reference loop in* ``tests/legacy_oracle.py`` *bit for
bit* -- the serialized trace (including ``repr`` float formatting),
every :class:`ServerStats` field, and the metrics fingerprint.  These
tests pin that contract across the serving-layer input space:

* admission policies: reservation / measurement / always;
* overload handling: lowest-priority shedding at small queue bounds
  and pure backpressure (``shed_policy="none"``);
* fault plans (outages, transient errors) with retry/backoff, plus
  graceful degradation in both ``shed`` and ``downgrade`` modes;
* periodic queue re-characterization;
* session lifecycle: bounded titles retiring mid-run, explicit closes,
  mixed rates/priorities/write flags;
* sparse fleet-shaped traffic: low-rate sessions, one ``run_until``
  per open/close, migrated (``advanced``) specs, a failure window,
  integral and fractional instants, many hundreds of spans;
* the bench's dense overload ramp, the golden serve ramp and the
  golden cluster scenario (at ``--jobs`` 1 and 4).

A divergence here means the serving loop changed semantics -- fix the
loop, never the test.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_report
from repro.disk.disk import make_xp32150_disk
from repro.experiments.bench import BenchSpec, serve_ramp_spec
from repro.experiments.cluster_demo import _cells
from repro.experiments.faults_scenario import serialize_trace
from repro.experiments.serve_demo import (
    ServeSpec,
    build_server,
    make_scheduler,
    ramp_events,
)
from repro.faults import (
    DiskFailure,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    TransientErrors,
)
from repro.parallel import metrics_fingerprint, run_cells, run_cluster_cell
from repro.serve import (
    ServerConfig,
    SessionManager,
    StreamSpec,
    StreamingServer,
    VirtualClock,
    make_admission,
    run_ramp_online,
)
from repro.sim.service import DiskService
from tests.legacy_oracle import LegacyStreamingServer, legacy_serving

LEVELS = 8


def fault_variants(seed: int) -> list[FaultPlan | None]:
    return [
        None,
        FaultPlan([DiskFailure(disk=0, start_ms=2_000.0, end_ms=3_500.0)],
                  seed=seed),
        FaultPlan([
            DiskFailure(disk=0, start_ms=1_000.0, end_ms=2_200.0),
            TransientErrors(disk=0, start_ms=0.0, end_ms=9_000.0,
                            probability=0.25),
        ], seed=seed),
    ]


#: The loop under test and its reference.
SERVERS = {"shipped": StreamingServer, "oracle": LegacyStreamingServer}


def make_server(cls: type[StreamingServer], *, seed: int = 5,
                policy: str = "always",
                scheduler: str = "cascaded-sfc",
                fault_plan: FaultPlan | None = None,
                config: ServerConfig | None = None) -> StreamingServer:
    disk = make_xp32150_disk()
    disk.reset(0)
    kwargs = {"priority_levels": LEVELS} if policy == "reservation" else {}
    faults = None
    if fault_plan is not None:
        faults = FaultInjector(fault_plan, policy=RetryPolicy(
            max_attempts=3, abort_ms=2.0, backoff_ms=150.0))
    return cls(
        make_scheduler(scheduler),
        DiskService(disk),
        SessionManager(disk.geometry, seed=seed),
        make_admission(policy, disk, **kwargs),
        clock=VirtualClock(),
        config=config,
        faults=faults,
    )


def drive(server: StreamingServer, *, users: int, interval_ms: float,
          tail_ms: float = 8_000.0, close_every: int = 0) -> None:
    """A deterministic open/close script exercising every code path:
    mixed rates and priorities, bounded titles (mid-run retirement),
    write streams, and optional explicit closes."""
    open_ids: list[int] = []
    for user in range(users):
        server.run_until(user * interval_ms)
        rate = (1.5, 0.75, 0.375)[user % 3]
        blocks = (None, None, 12, None, 5)[user % 5]
        _result, session = server.open_stream(StreamSpec(
            rate_mbps=rate,
            priorities=((user * 3) % LEVELS,),
            start_block=(user * 977) % 30_000,
            blocks=blocks,
            is_write=user % 4 == 0,
            value=float(LEVELS - 1 - (user * 3) % LEVELS),
        ))
        if session is not None:
            open_ids.append(session.stream_id)
        if close_every and user % close_every == close_every - 1:
            while open_ids:
                sid = open_ids.pop(0)
                if sid in server.manager.sessions:
                    server.close_stream(sid)
                    break
    server.run_until(users * interval_ms + tail_ms)


def fingerprint(server: StreamingServer) -> tuple:
    return (serialize_trace(server), server.stats(),
            metrics_fingerprint(server.metrics))


def assert_engines_agree(**scenario) -> tuple:
    drive_kwargs = {
        k: scenario.pop(k)
        for k in ("users", "interval_ms", "tail_ms", "close_every")
        if k in scenario
    }
    prints = {}
    for name, cls in SERVERS.items():
        server = make_server(cls, **scenario)
        drive(server, **drive_kwargs)
        prints[name] = fingerprint(server)
    assert prints["shipped"] == prints["oracle"]
    return prints["oracle"]


# -- quick deterministic lane (always on, CI-sized) ------------------------

@pytest.mark.parametrize("policy",
                         ("reservation", "measurement", "always"))
def test_engines_identical_per_policy(policy):
    """Every admission policy agrees on the ramp demo's own path
    (decisions, trace, and stats)."""
    spec = replace(ServeSpec(), max_users=40, user_interval_ms=120.0,
                   tail_ms=4_000.0, policy=policy)
    assert ramp_prints(spec, "shipped") == ramp_prints(spec, "oracle")


def ramp_prints(spec: ServeSpec, loop: str) -> tuple:
    """Decisions and fingerprint of one ramp through ``build_server``."""
    with legacy_serving() if loop == "oracle" else nullcontext():
        server = build_server(spec, sink=lambda line: None)
    decisions = run_ramp_online(server, ramp_events(spec), spec.until_ms)
    return decisions, fingerprint(server)


def test_engines_identical_under_overload_shedding():
    """A tight queue bound forces the bulk shed path every group."""
    prints = assert_engines_agree(
        users=60, interval_ms=40.0,
        config=ServerConfig(max_queue=8, priority_levels=LEVELS),
    )
    assert prints[1].preempted > 0  # the scenario actually sheds


def test_engines_identical_under_backpressure():
    """shed_policy="none" takes no spans (deferred polls change the
    arrival pattern) -- outcomes must still match."""
    assert_engines_agree(
        users=50, interval_ms=50.0,
        config=ServerConfig(max_queue=8, shed_policy="none",
                            priority_levels=LEVELS),
    )


@pytest.mark.parametrize("degrade_policy", ("shed", "downgrade"))
def test_engines_identical_under_faults_and_degrade(degrade_policy):
    prints = assert_engines_agree(
        users=40, interval_ms=60.0,
        fault_plan=fault_variants(11)[2],
        config=ServerConfig(max_queue=32, priority_levels=LEVELS,
                            degrade_after=3, degrade_window_ms=2_000.0,
                            degrade_policy=degrade_policy,
                            degrade_victims=2),
    )
    assert prints[1].degrade_entries > 0  # degraded mode really trips


def test_engines_identical_with_recharacterize():
    assert_engines_agree(
        users=40, interval_ms=80.0,
        config=ServerConfig(max_queue=32, priority_levels=LEVELS,
                            recharacterize_ms=500.0),
    )


def test_engines_identical_with_closes_and_bounded_titles():
    """Bounded titles retire mid-span; explicit closes interleave."""
    assert_engines_agree(users=45, interval_ms=70.0, close_every=6)


def test_engines_identical_on_baseline_scheduler():
    """EDF has no encapsulator: spans go through the scalar submit
    path for any span length."""
    assert_engines_agree(users=40, interval_ms=50.0, scheduler="edf",
                         config=ServerConfig(max_queue=16,
                                             priority_levels=LEVELS))


# -- hypothesis battery ----------------------------------------------------

@pytest.mark.slow
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    users=st.integers(10, 60),
    interval=st.sampled_from((25.0, 60.0, 140.0)),
    policy=st.sampled_from(("reservation", "measurement", "always")),
    scheduler=st.sampled_from(("cascaded-sfc", "edf", "scan-edf")),
    fault_variant=st.integers(0, 2),
    shed=st.sampled_from(("lowest-priority", "none")),
    degrade_policy=st.sampled_from(("shed", "downgrade")),
    max_queue=st.sampled_from((8, 24, 64)),
    recharacterize=st.sampled_from((None, 400.0)),
    close_every=st.sampled_from((0, 5)),
)
def test_serve_engine_battery(seed, users, interval, policy, scheduler,
                              fault_variant, shed, degrade_policy,
                              max_queue, recharacterize, close_every):
    assert_engines_agree(
        seed=seed,
        users=users,
        interval_ms=interval,
        policy=policy,
        scheduler=scheduler,
        fault_plan=fault_variants(seed)[fault_variant],
        close_every=close_every,
        config=ServerConfig(
            max_queue=max_queue,
            shed_policy=shed,
            priority_levels=LEVELS,
            degrade_after=4,
            degrade_window_ms=2_500.0,
            degrade_policy=degrade_policy,
            recharacterize_ms=recharacterize,
        ),
    )


# -- sparse fleet-shaped traffic -------------------------------------------

def drive_sparse(server: StreamingServer, *, seed: int, entries: int,
                 integral: bool, tail_ms: float = 6_000.0) -> None:
    """A cluster-cell-shaped script: one ``run_until`` per open/close
    entry, low-rate sessions (about one block per second), bounded and
    live titles, explicit closes, and migrated specs resumed with
    :meth:`StreamSpec.advanced` -- the sparse profile where a span
    rarely holds more than a request or two."""
    rng = Random(seed)
    now: float = 0 if integral else 0.0
    live: list[int] = []
    for _ in range(entries):
        now += (rng.choice((7, 20, 45, 90)) if integral
                else rng.uniform(3.0, 90.0))
        server.run_until(now)
        live = [sid for sid in live if sid in server.manager.sessions]
        if live and rng.random() < 0.2:
            server.close_stream(live.pop(rng.randrange(len(live))))
            continue
        spec = StreamSpec(
            rate_mbps=rng.choice((0.09375, 0.1875, 0.375)),
            priorities=(rng.randrange(LEVELS),),
            start_block=rng.randrange(30_000),
            blocks=rng.choice((None, None, 2, 6, 15)),
            is_write=rng.random() < 0.25,
            value=float(rng.randrange(LEVELS)),
        )
        if rng.random() < 0.25:
            spec = spec.advanced(rng.randrange(1, 8))  # a migrated stream
        _result, session = server.open_stream(spec)
        if session is not None:
            live.append(session.stream_id)
    server.run_until(now + (int(tail_ms) if integral else tail_ms))


def sparse_prints(cls: type[StreamingServer], *, seed: int,
                  integral: bool, entries: int = 700) -> tuple:
    failure = 400.0 + 30.0 * (seed % 50)
    server = make_server(
        cls, seed=seed,
        fault_plan=FaultPlan([DiskFailure(
            disk=0, start_ms=failure, end_ms=failure + 1_500.0)],
            seed=seed),
        config=ServerConfig(max_queue=16, priority_levels=LEVELS,
                            degrade_after=6, degrade_window_ms=1_000.0),
    )
    spans = 0
    admit_span = server._admit_span

    def counting(first_due, barrier):
        nonlocal spans
        spans += 1
        return admit_span(first_due, barrier)

    server._admit_span = counting  # type: ignore[method-assign]
    drive_sparse(server, seed=seed, entries=entries, integral=integral)
    return fingerprint(server), spans


@pytest.mark.parametrize("integral", (True, False),
                         ids=("integral", "fractional"))
def test_sparse_fleet_traffic_identical(integral):
    """The profile the old loop demoted itself on: hundreds of short
    spans, each a request or two, between one-entry ``run_until``
    calls."""
    shipped, spans = sparse_prints(StreamingServer, seed=3,
                                   integral=integral)
    oracle, _ = sparse_prints(LegacyStreamingServer, seed=3,
                              integral=integral)
    assert shipped == oracle
    assert spans > 128  # well past the old 128-span demotion window
    stats = shipped[1]
    assert stats.faults_injected > 0 and stats.closed > 0


@pytest.mark.slow
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**20), integral=st.booleans(),
       entries=st.integers(150, 600))
def test_sparse_fleet_battery(seed, integral, entries):
    shipped, _spans = sparse_prints(StreamingServer, seed=seed,
                                    integral=integral, entries=entries)
    oracle, _ = sparse_prints(LegacyStreamingServer, seed=seed,
                              integral=integral, entries=entries)
    assert shipped == oracle


# -- the bench's dense ramp ------------------------------------------------

@pytest.mark.parametrize("size", (
    "quick", pytest.param("full", marks=pytest.mark.slow)))
def test_bench_ramp_identical(size):
    """The ``serve`` bench section's overload ramp (bulk sheds, long
    spans through one ``characterize_batch``) matches the reference
    loop: decisions, trace, stats and metrics."""
    bench_spec = BenchSpec().quick() if size == "quick" else BenchSpec()
    spec = serve_ramp_spec(bench_spec)
    shipped = ramp_prints(spec, "shipped")
    assert shipped == ramp_prints(spec, "oracle")
    assert shipped[1][1].preempted > 0  # the ramp really sheds


# -- golden replays ----------------------------------------------------------

def test_golden_serve_trace_through_batched_engine():
    """The pinned golden serve trace replays byte-identically through
    the serving loop and through the reference loop."""
    from tests.test_determinism_golden import (
        GOLDEN_DIR,
        GOLDEN_SPEC,
        serve_trace,
    )

    golden = (GOLDEN_DIR / "serve_trace.txt").read_bytes().rstrip(b"\n")
    assert serve_trace(GOLDEN_SPEC) == golden
    with legacy_serving():
        assert serve_trace(GOLDEN_SPEC) == golden


@pytest.mark.parametrize("jobs", (1, 4))
def test_golden_cluster_through_batched_engine(jobs):
    """The golden cluster scenario -- decision log and per-array
    serving digests -- through the serving loop at any ``--jobs N``
    equals the reference loop's."""
    from tests.test_cluster_golden import (
        GOLDEN_DIR,
        GOLDEN_SPEC,
        decision_plan,
    )

    plan = decision_plan(GOLDEN_SPEC)
    golden = (GOLDEN_DIR / "cluster_trace.txt").read_bytes()
    assert plan.serialize() == golden.rstrip(b"\n")
    cells = _cells(GOLDEN_SPEC, plan)
    with legacy_serving():
        oracle = build_report(plan, run_cells(run_cluster_cell, cells,
                                              jobs=1))
    shipped = build_report(plan, run_cells(run_cluster_cell, cells,
                                           jobs=jobs))
    assert shipped.fingerprint() == oracle.fingerprint()
    assert shipped.as_dict() == oracle.as_dict()
