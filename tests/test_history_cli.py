"""The ``history`` CLI: record, list, show, replay, diff, engine pin.

End-to-end through ``repro.experiments.cli.main`` — a quick serve run
recorded with ``--record`` lands in the store, ``history
list/show/replay/diff`` work against it, a tampered entry makes
``replay`` exit 1, ``diff --bench`` renders the committed baseline
trajectory, and replay honors the *recorded* engine even when the
ambient CLI default differs (the engine-pin regression).
"""

from __future__ import annotations

import os
import shutil
import sqlite3
from pathlib import Path

import pytest

from repro.experiments import history
from repro.experiments.cli import main
from repro.store import SqliteRunStore

REPO_ROOT = Path(__file__).parent.parent

#: ``run fig5 --quick`` and ``run fig11 --quick`` (the drop-expired
#: path) recorded with ``--engine legacy`` while the offline simulator
#: still had a separate legacy loop.
LEGACY_SIM_RUNS = REPO_ROOT / "tests" / "golden" / "legacy_sim_runs.sqlite"
#: ``serve --quick``, ``faults --quick`` and ``cluster --quick``
#: recorded with ``--engine legacy`` while the serving tier still had
#: a separate legacy loop (and an ``engine`` field on its specs).
LEGACY_SERVE_RUNS = (REPO_ROOT / "tests" / "golden"
                     / "legacy_serve_runs.sqlite")


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "runs.sqlite")


def record_serve(store_path: str, *extra: str) -> int:
    """Record one quick serve run; returns its run id."""
    assert main(["serve", "--quick", "--record",
                 "--store", store_path, *extra]) == 0
    rows = SqliteRunStore(store_path).list(kind="serve")
    return rows[0].run_id


class TestRecording:
    def test_record_flag_writes_provenance(self, store_path, capsys):
        run_id = record_serve(store_path)
        out = capsys.readouterr().out
        assert f"recorded run {run_id} -> {store_path}" in out
        run = SqliteRunStore(store_path).get(run_id)
        assert run.kind == "serve"
        assert run.quick
        assert run.engine == "batched"
        assert run.scheduler == "cascaded-sfc"
        assert run.config["tail_ms"] == 5_000.0
        assert "serve" in run.argv and "--quick" in run.argv
        assert run.trace and run.verify()
        # Recording lights up the pillars: spans + latency histograms.
        assert run.spans_jsonl
        assert run.metrics["request_response_ms"]["type"] == "histogram"
        assert run.timings["total_s"] > 0

    def test_no_record_no_store(self, store_path, capsys):
        assert main(["serve", "--quick"]) == 0
        capsys.readouterr()
        assert not os.path.exists(store_path)

    def test_store_env_turns_recording_on(self, store_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_STORE", store_path)
        assert main(["serve", "--quick"]) == 0
        capsys.readouterr()
        assert SqliteRunStore(store_path).list(kind="serve")


class TestHistoryCommands:
    def test_list_and_show(self, store_path, capsys):
        run_id = record_serve(store_path)
        capsys.readouterr()
        assert main(["history", "list", "--store", store_path,
                     "--kind", "serve"]) == 0
        out = capsys.readouterr().out
        assert "cascaded-sfc" in out
        assert main(["history", "show", str(run_id),
                     "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out and "config" in out

    def test_list_filters_exclude(self, store_path, capsys):
        record_serve(store_path)
        capsys.readouterr()
        assert main(["history", "list", "--store", store_path,
                     "--kind", "serve", "--engine", "legacy"]) == 0
        assert "0 run(s)" in capsys.readouterr().out

    def test_replay_fresh_run_exits_0(self, store_path, capsys):
        run_id = record_serve(store_path)
        capsys.readouterr()
        assert main(["history", "replay", str(run_id),
                     "--store", store_path]) == 0
        assert "byte-for-byte" in capsys.readouterr().out

    def test_replay_tampered_run_exits_1(self, store_path, capsys):
        run_id = record_serve(store_path)
        capsys.readouterr()
        with sqlite3.connect(store_path) as conn:
            conn.execute("UPDATE runs SET trace = X'DEADBEEF' "
                         "WHERE run_id = ?", (run_id,))
        assert main(["history", "replay", str(run_id),
                     "--store", store_path]) == 1
        assert "TAMPERED" in capsys.readouterr().out

    def test_replay_unknown_run_errors(self, store_path, capsys):
        record_serve(store_path)
        capsys.readouterr()
        assert main(["history", "replay", "999",
                     "--store", store_path]) == 1
        assert "not found" in capsys.readouterr().out

    def test_diff_two_runs_reports_deltas(self, store_path, capsys):
        a = record_serve(store_path)
        b = record_serve(store_path, "--policy", "measurement")
        capsys.readouterr()
        assert main(["history", "diff", str(a), str(b),
                     "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "policy: 'reservation' -> 'measurement'" in out
        assert "report (QoS deltas)" in out
        assert "phase latency (ms)" in out
        assert "outcome counters" in out

    def test_diff_identical_runs(self, store_path, capsys):
        a = record_serve(store_path)
        b = record_serve(store_path)
        capsys.readouterr()
        assert main(["history", "diff", str(a), str(b),
                     "--store", store_path]) == 0
        assert "[identical traces]" in capsys.readouterr().out

    def test_diff_bench_renders_trajectory(self, store_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["history", "diff", "--bench",
                     "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "imported" in out
        assert "BENCH_PR3" in out and "BENCH_PR10" in out
        assert "end_to_end" in out

    def test_baseline_import_is_idempotent(self, store_path,
                                           monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        store = SqliteRunStore(store_path)
        first = history.import_bench_baselines(store)
        assert first  # the committed BENCH_PR<n>.json baselines
        assert history.import_bench_baselines(store) == []
        assert len(store.labels(kind="bench")) == len(first)

    def test_foreign_store_clear_error(self, tmp_path, capsys):
        foreign = str(tmp_path / "foreign.sqlite")
        with sqlite3.connect(foreign) as conn:
            conn.execute("CREATE TABLE t (x)")
        assert main(["history", "list", "--store", foreign]) == 1
        assert "foreign database" in capsys.readouterr().out


class TestEnginePin:
    def test_replay_pins_recorded_engine(self, store_path, capsys,
                                         monkeypatch):
        """A legacy-recorded run replays legacy under a batched default.

        The engines are bit-identical, so a passing replay alone
        can't prove the pin — instead the re-execution is wrapped to
        capture the effective ``$REPRO_SIM_ENGINE`` at run time.
        """
        run_id = record_serve(store_path, "--engine", "legacy")
        capsys.readouterr()
        assert SqliteRunStore(store_path).get(run_id).engine == "legacy"

        from repro.experiments import serve_demo
        seen: list[str | None] = []
        original = serve_demo.run

        def spying_run(*args, **kwargs):
            seen.append(os.environ.get("REPRO_SIM_ENGINE"))
            return original(*args, **kwargs)

        monkeypatch.setattr(serve_demo, "run", spying_run)
        monkeypatch.setenv("REPRO_SIM_ENGINE", "batched")
        assert main(["history", "replay", str(run_id),
                     "--store", store_path]) == 0
        capsys.readouterr()
        assert seen == ["legacy"]
        # The pin is scoped to the replay: the ambient default is back.
        assert os.environ["REPRO_SIM_ENGINE"] == "batched"

    def test_pinned_engine_restores_unset_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        with history.pinned_engine("legacy"):
            assert os.environ["REPRO_SIM_ENGINE"] == "legacy"
        assert "REPRO_SIM_ENGINE" not in os.environ


class TestLegacyRecordedSimRuns:
    def test_legacy_sim_runs_replay_byte_for_byte(self, tmp_path, capsys):
        """Runs recorded under the removed legacy sim loop still replay.

        Replay writes into the store it reads (it imports the committed
        bench baselines), so it runs on a copy of the fixture.
        """
        store_path = str(tmp_path / "legacy_sim_runs.sqlite")
        shutil.copyfile(LEGACY_SIM_RUNS, store_path)
        runs = SqliteRunStore(store_path).list(kind="run")
        assert sorted((run.label, run.engine) for run in runs) == [
            ("fig11", "legacy"), ("fig5", "legacy")]
        for run in runs:
            assert main(["history", "replay", str(run.run_id),
                         "--store", store_path]) == 0
            assert "byte-for-byte" in capsys.readouterr().out


class TestLegacyRecordedServeRuns:
    def test_legacy_serve_runs_replay_byte_for_byte(self, tmp_path,
                                                    capsys):
        """Serving runs recorded under the removed legacy serving loop
        still replay through the one loop, byte for byte (their stored
        configs still carry the retired ``engine`` spec field)."""
        store_path = str(tmp_path / "legacy_serve_runs.sqlite")
        shutil.copyfile(LEGACY_SERVE_RUNS, store_path)
        store = SqliteRunStore(store_path)
        runs = store.list()
        assert sorted((run.kind, run.engine) for run in runs) == [
            ("cluster", "legacy"), ("faults", "legacy"),
            ("serve", "legacy")]
        assert all("engine" in store.get(run.run_id).config
                   for run in runs if run.kind != "faults")
        for run in runs:
            assert main(["history", "replay", str(run.run_id),
                         "--store", store_path]) == 0
            assert "byte-for-byte" in capsys.readouterr().out
