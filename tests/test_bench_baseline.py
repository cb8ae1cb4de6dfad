"""Tests for the bench baseline chain (latest/next BENCH_PR<n>.json)."""

from __future__ import annotations

import json

from repro.experiments.bench import (
    BASELINE_PATH,
    SECTIONS,
    baseline_history,
    compare_baseline,
    latest_baseline_path,
    next_baseline_path,
)


def seed_baselines(directory, numbers):
    for n in numbers:
        (directory / f"BENCH_PR{n}.json").write_text(
            json.dumps({"sections": {}}))


class TestBaselineChain:
    def test_history_sorted_numerically(self, tmp_path):
        seed_baselines(tmp_path, [10, 3, 5])
        history = baseline_history(str(tmp_path))
        assert [n for n, _ in history] == [3, 5, 10]
        assert history[-1][1].endswith("BENCH_PR10.json")

    def test_non_baseline_files_ignored(self, tmp_path):
        seed_baselines(tmp_path, [3])
        (tmp_path / "BENCH_PRx.json").write_text("{}")
        (tmp_path / "notes.json").write_text("{}")
        assert [n for n, _ in baseline_history(str(tmp_path))] == [3]

    def test_latest_and_next(self, tmp_path):
        seed_baselines(tmp_path, [3, 5])
        assert latest_baseline_path(str(tmp_path)).endswith(
            "BENCH_PR5.json")
        assert next_baseline_path(str(tmp_path)).endswith(
            "BENCH_PR6.json")

    def test_empty_history_falls_back(self, tmp_path):
        assert latest_baseline_path(str(tmp_path)).endswith(
            BASELINE_PATH)
        assert next_baseline_path(str(tmp_path)).endswith(
            "BENCH_PR1.json")

    def test_repo_chain_is_live(self):
        """The committed baselines resolve (the CLI defaults to them)."""
        history = baseline_history()
        assert history, "no committed BENCH_PR<n>.json found"
        numbers = [n for n, _ in history]
        assert latest_baseline_path() == f"BENCH_PR{numbers[-1]}.json"
        assert next_baseline_path() == f"BENCH_PR{numbers[-1] + 1}.json"


class TestCompareBaseline:
    SPEC = {"seed": 2004}

    def report(self, speedup):
        return {
            "meta": {"spec": self.SPEC},
            "sections": {"lut": {"speedup": speedup}},
        }

    def baseline_file(self, tmp_path, speedup):
        path = tmp_path / "BENCH_PR9.json"
        path.write_text(json.dumps(self.report(speedup)))
        return str(path)

    def test_within_tolerance_passes(self, tmp_path):
        path = self.baseline_file(tmp_path, speedup=1.0)
        comparison, invariants = compare_baseline(self.report(0.80),
                                                  path)
        assert comparison["status"] == "compared"
        assert invariants == {"baseline.lut.no_regression": True}

    def test_regression_over_25_percent_fails(self, tmp_path):
        path = self.baseline_file(tmp_path, speedup=1.0)
        _, invariants = compare_baseline(self.report(0.70), path)
        assert invariants["baseline.lut.no_regression"] is False

    def test_missing_baseline_is_absent_not_a_failure(self, tmp_path):
        missing = str(tmp_path / "BENCH_PR1.json")
        comparison, invariants = compare_baseline(self.report(1.0),
                                                  missing)
        assert comparison["status"] == "absent"
        assert invariants == {}

    def test_spec_mismatch_skips_the_gate(self, tmp_path):
        path = self.baseline_file(tmp_path, speedup=1.0)
        other = self.report(1.0)
        other["meta"] = {"spec": {"seed": 1}}
        comparison, invariants = compare_baseline(other, path)
        assert comparison["status"] == "spec-mismatch"
        assert invariants == {}

    def test_noise_gated_rows_are_not_compared(self, tmp_path):
        """A row either report marks ``speedup_gated: False`` is
        recorded context, not a comparable number (e.g. a multi-worker
        sweep on a 1-core host) -- no invariant may be derived from it."""
        base = {
            "meta": {"spec": self.SPEC},
            "sections": {"par": {"rows": [
                {"label": "sweep", "speedup": 2.0,
                 "speedup_gated": False},
                {"label": "lut", "speedup": 10.0},
            ]}},
        }
        current = json.loads(json.dumps(base))
        current["sections"]["par"]["rows"][0]["speedup"] = 0.2
        current["sections"]["par"]["rows"][1]["speedup"] = 9.0
        path = tmp_path / "BENCH_PR9.json"
        path.write_text(json.dumps(base))
        _, invariants = compare_baseline(current, str(path))
        assert invariants == {"baseline.par.lut.no_regression": True}


class TestSectionLayout:
    """The report layout the CI artifacts and docs reference."""

    def test_no_end_to_end_section_registered(self):
        """The simulation loop has one implementation, so there is no
        second loop to race; its bit-identity to the reference heap
        loop is a tier-1 test (``tests/test_engine_differential.py``).
        Older baselines keep their ``end_to_end*`` sections as history."""
        names = [name for name, _ in SECTIONS]
        assert not [name for name in names
                    if name.startswith("end_to_end")]

    def test_committed_baseline_has_the_split_sections(self):
        """The latest committed BENCH_PR<n>.json records the split
        end-to-end sections with engine comparison and bit-identity."""
        with open(latest_baseline_path(), encoding="utf-8") as fh:
            report = json.load(fh)
        sections = report["sections"]
        for name in ("end_to_end_cold", "end_to_end_warm"):
            assert name in sections
            assert {"legacy_s", "batched_s", "speedup"} \
                <= sections[name].keys()
        assert report["invariants"]["end_to_end_cold.bit_identical"]
        assert report["invariants"]["end_to_end_warm.bit_identical"]
        assert report["invariants"]["end_to_end_warm.batched_5x"]
        # Full-spec baselines gate the 5x warm target for real.
        if report["meta"]["spec"] == "full":
            assert sections["end_to_end_warm"]["speedup"] >= 5.0

    def test_cluster_scale_section_registered(self):
        assert "cluster_scale" in [name for name, _ in SECTIONS]

    def test_committed_baseline_has_cluster_scale(self):
        """The latest committed baseline records the fleet scaling
        study: the decide sweep, byte-identity at every size, the
        sublinear growth invariant, and the demo gate."""
        with open(latest_baseline_path(), encoding="utf-8") as fh:
            report = json.load(fh)
        section = report["sections"]["cluster_scale"]
        labels = {row["label"] for row in section["rows"]}
        invariants = report["invariants"]
        assert invariants["cluster_scale.demo_bit_identical"]
        assert invariants["cluster_scale.per_decision_sublinear"]
        if report["meta"]["spec"] == "full":
            assert {"decide16", "decide32", "decide64",
                    "decide128"} <= labels
            for arrays in (16, 32, 64, 128):
                assert invariants[
                    f"cluster_scale.decide{arrays}.bit_identical"]
            demo = next(row for row in section["rows"]
                        if row["label"].startswith("demo"))
            assert demo["speedup"] >= 3.0
            assert invariants["cluster_scale.demo_3x"]

    def test_serve_section_registered(self):
        assert "serve" in [name for name, _ in SECTIONS]

    def test_committed_baseline_has_serve(self):
        """The latest committed baseline records the serving-engine
        race: the dense overload ramp (bit-identical, >=4x on full
        runs) and the fleet demo with the engine pinned per arm."""
        with open(latest_baseline_path(), encoding="utf-8") as fh:
            report = json.load(fh)
        section = report["sections"]["serve"]
        rows = {row["label"]: row for row in section["rows"]}
        invariants = report["invariants"]
        assert invariants["serve.ramp.bit_identical"]
        assert invariants["serve.fleet.bit_identical"]
        assert "ramp" in rows
        fleet = next(row for label, row in rows.items()
                     if label.startswith("fleet"))
        # The fleet timing is recorded context (both arms share the
        # decide tier), never a comparable gate.
        assert fleet["speedup_gated"] is False
        if report["meta"]["spec"] == "full":
            assert rows["ramp"]["speedup"] >= 4.0
            assert invariants["serve.ramp.batched_4x"]
