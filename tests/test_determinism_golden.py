"""Golden determinism: every experiment is exactly repeatable.

Two invocations of the same quick spec must produce byte-identical
tables -- the property that makes EXPERIMENTS.md reproducible and the
benchmark assertions stable.  The serving layer gets the same
treatment at event granularity: two identical-seed ramps must replay a
byte-identical :class:`~repro.serve.TraceLog`, and a small pinned
golden trace (``tests/golden/serve_trace.txt``) guards against
accidental behavior drift between sessions -- for the serving loop and
for the reference serving loop in ``tests/legacy_oracle.py`` alike.

The offline simulation loop gets its own pinned replays: the golden
serve ramp and the golden cluster scenario are materialized offline and
run through both :func:`repro.sim.run_simulation` and the reference
heap loop in ``tests/legacy_oracle.py`` -- the serialized outcome
(decisions, dispatch timeline, metrics fingerprint) must match byte for
byte between the two, and match the pinned golden files
(``serve_replay.txt`` / ``cluster_replay.txt``) across sessions.
"""

from __future__ import annotations

from dataclasses import replace
from hashlib import sha256
from pathlib import Path

import pytest

from repro.experiments.cli import EXPERIMENTS
from repro.experiments.export import table_to_csv
from repro.experiments.cli import _tables_of
from repro.experiments.serve_demo import ServeSpec, build_server, ramp_events
from repro.experiments.faults_scenario import serialize_trace
from repro.parallel import metrics_fingerprint
from repro.serve import run_ramp_online
from repro.sim import run_simulation
from tests import legacy_oracle

#: The offline loop under test and its reference.
SIMULATORS = {"shipped": run_simulation,
              "oracle": legacy_oracle.run_simulation}

# fig10/fig11 are the slow ones; two runs each still fit comfortably.
FAST = ("table1", "fig1", "fig5", "fig6", "fig7", "fig8", "fig9")

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Small, fixed ramp behind the pinned golden trace. Do not change
#: without regenerating the golden file (see regenerate_golden()).
GOLDEN_SPEC = replace(ServeSpec(), max_users=10, user_interval_ms=400.0,
                      tail_ms=3_000.0, seed=77)


def render_all(name):
    result = EXPERIMENTS[name](True)  # quick spec
    return "\n".join(table_to_csv(t) for t in _tables_of(result))


@pytest.mark.parametrize("name", FAST)
def test_experiment_is_deterministic(name):
    assert render_all(name) == render_all(name)


def serve_trace(spec: ServeSpec) -> bytes:
    server = build_server(spec, sink=lambda line: None)
    run_ramp_online(server, ramp_events(spec), spec.until_ms)
    return serialize_trace(server)


def test_serve_trace_is_deterministic():
    """Identical seeds -> byte-identical trace event sequences."""
    spec = GOLDEN_SPEC.quick()
    assert serve_trace(spec) == serve_trace(spec)


def test_serve_trace_differs_across_seeds():
    """The trace actually depends on the seed (no vacuous pinning)."""
    spec = GOLDEN_SPEC.quick()
    assert serve_trace(spec) != serve_trace(replace(spec, seed=78))


def test_serve_trace_matches_golden():
    """The pinned golden trace replays byte for byte, through the
    serving loop and through the reference loop in the tests."""
    golden = (GOLDEN_DIR / "serve_trace.txt").read_bytes()
    assert serve_trace(GOLDEN_SPEC) == golden.rstrip(b"\n")
    with legacy_oracle.legacy_serving():
        assert serve_trace(GOLDEN_SPEC) == golden.rstrip(b"\n")


def regenerate_golden() -> None:
    """Rewrite the golden files after an *intentional* behavior change.

    Run ``python -c "import sys; sys.path.insert(0, 'src');
    sys.path.insert(0, '.'); from tests.test_determinism_golden import
    regenerate_golden; regenerate_golden()"`` from the repo root.
    """
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, payload in (
        ("serve_trace.txt", serve_trace(GOLDEN_SPEC)),
        ("serve_replay.txt", serialize_offline_replay(
            offline_replay(legacy_oracle.run_simulation))),
        ("cluster_replay.txt", cluster_replay(legacy_oracle.run_simulation)),
    ):
        path = GOLDEN_DIR / name
        path.write_bytes(payload + b"\n")
        print(f"wrote {path}")


# -- offline-loop golden replays -------------------------------------------

def offline_replay(simulate):
    """The golden serve ramp, materialized and simulated offline.

    ``simulate`` stands in for ``run_simulation`` inside
    :func:`repro.serve.replay_ramp_offline` for the call's duration.
    """
    from unittest import mock

    from repro.disk.disk import make_xp32150_disk
    from repro.experiments.serve_demo import LEVELS, make_scheduler
    from repro.serve import adapter, make_admission, replay_ramp_offline
    from repro.sim.service import DiskService

    disk = make_xp32150_disk()
    disk.reset(0)
    with mock.patch.object(adapter, "run_simulation", simulate):
        return replay_ramp_offline(
            ramp_events(GOLDEN_SPEC),
            make_admission(GOLDEN_SPEC.policy, disk,
                           priority_levels=LEVELS),
            disk.geometry,
            make_scheduler(GOLDEN_SPEC.scheduler),
            DiskService(disk),
            seed=GOLDEN_SPEC.seed,
            until_ms=GOLDEN_SPEC.until_ms,
            priority_levels=LEVELS,
            record_timeline=True,
        )


def serialize_offline_replay(ramp) -> bytes:
    """Canonical byte form of an offline ramp outcome.

    Covers every loop-visible fact: the admission decisions, the
    complete dispatch timeline, the unserved count and the full
    metrics fingerprint (``repr`` of floats is exact, so equal bytes
    means bit-equal runs).
    """
    lines = [
        f"decision|{d.time_ms!r}|{d.decision.name}|{d.stream_id}"
        f"|{d.reserved_utilization_after!r}"
        for d in ramp.decisions
    ]
    lines += [
        f"dispatch|{e.request_id}|{e.start_ms!r}|{e.end_ms!r}"
        f"|{e.queue_length}|{int(e.dropped)}"
        for e in ramp.result.timeline
    ]
    lines.append(f"unserved|{ramp.result.unserved}")
    lines.append(f"metrics|{metrics_fingerprint(ramp.result.metrics)!r}")
    return "\n".join(lines).encode()


def test_serve_replay_batched_equals_legacy():
    """The shipped loop matches the reference on the golden ramp,
    byte for byte."""
    replays = {name: serialize_offline_replay(offline_replay(simulate))
               for name, simulate in SIMULATORS.items()}
    assert replays["shipped"] == replays["oracle"]


def test_serve_replay_matches_golden():
    """Both loops replay the pinned offline-ramp serialization."""
    golden = (GOLDEN_DIR / "serve_replay.txt").read_bytes().rstrip(b"\n")
    for simulate in SIMULATORS.values():
        assert serialize_offline_replay(offline_replay(simulate)) == golden


def cluster_replay(simulate) -> bytes:
    """Offline materialization of the golden cluster scenario.

    The controller's decision plan scripts each array's open/close
    timeline; each array's sessions are materialized offline (polls at
    every scripted instant, exactly like the serving cell's
    ``run_until`` barriers) and served through ``simulate`` (the
    shipped ``run_simulation`` or the reference).  One digest line per
    array pins the complete outcome: request count, unserved, and a
    hash over the timeline + metrics fingerprint.
    """
    from repro.disk.disk import make_xp32150_disk
    from repro.parallel.cells import make_scheduler
    from repro.serve import SessionManager
    from repro.sim.rng import spawn_seed
    from repro.sim.service import DiskService
    from tests.test_cluster_golden import (
        GOLDEN_SPEC as CLUSTER_SPEC,
        decision_plan,
    )
    from repro.experiments.cluster_demo import _cells

    plan = decision_plan(CLUSTER_SPEC)
    lines = []
    for cell in _cells(CLUSTER_SPEC, plan):
        disk = make_xp32150_disk()
        disk.reset(0)
        manager = SessionManager(
            disk.geometry,
            seed=spawn_seed(cell.seed, "cluster", cell.array_id),
        )
        requests = []
        local_ids: dict[int, int] = {}
        for entry in cell.timeline:
            requests += manager.poll(entry.time_ms)
            if entry.action == "open":
                session = manager.open(entry.spec, entry.time_ms)
                local_ids[entry.stream_key] = session.stream_id
            else:
                manager.close(local_ids.pop(entry.stream_key),
                              entry.time_ms)
        requests += manager.poll(cell.until_ms)
        result = simulate(
            requests, make_scheduler(cell.scheduler), DiskService(disk),
            priority_levels=cell.priority_levels, drop_expired=True,
            record_timeline=True,
        )
        payload = repr((tuple(result.timeline),
                        metrics_fingerprint(result.metrics))).encode()
        lines.append(
            f"array{cell.array_id}|{len(requests)}|{result.unserved}"
            f"|{sha256(payload).hexdigest()}"
        )
    return "\n".join(lines).encode()


@pytest.mark.slow
def test_cluster_replay_batched_equals_legacy_and_golden():
    """The shipped loop matches the reference on every array of the
    golden fleet scenario, pinned against the committed digests."""
    golden = (GOLDEN_DIR / "cluster_replay.txt").read_bytes().rstrip(b"\n")
    replays = {name: cluster_replay(simulate)
               for name, simulate in SIMULATORS.items()}
    assert replays["shipped"] == replays["oracle"]
    assert replays["oracle"] == golden
