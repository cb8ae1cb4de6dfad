"""Span recording for the traced pass.

The benchmark wraps each layer's public entry points in span recorders
(:func:`_entry_points`).  A span is (name, start, end, parent); spans
live in parallel in-memory lists and are written out once, at the end
of the run.  A span's *self time* is its duration minus the durations
of its child spans (children run sequentially inside their parent, so
the part they cover is their summed duration).

A tier loop that reaches a layer without going through one of these
public entry points -- e.g. the batched sim engine inserting
precomputed keys straight into the dispatcher -- is not seen as a
separate span: that time lands in the enclosing tier's self time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


def _entry_points() -> list:
    """(owner, attribute, span name, size-of-call) for every wrapped
    entry point.  ``size`` maps the call's arguments to the number of
    requests it carries (batch submits); None means one."""
    import repro.cluster
    import repro.disk.disk
    import repro.parallel
    import repro.sfc
    import repro.sfc.lut
    import repro.sfc.vectorized
    import repro.sim.server
    from repro.cluster.admission import GlobalAdmission
    from repro.core.scheduler import CascadedSFCScheduler
    from repro.serve import StreamingServer
    from repro.sim.service import DiskService
    from repro.store import SqliteRunStore

    batch = (lambda args, kwargs: len(args[1]))
    return [
        (CascadedSFCScheduler, "__init__", "core.init", None),
        (CascadedSFCScheduler, "submit", "core.submit", None),
        (CascadedSFCScheduler, "submit_batch", "core.submit_batch", batch),
        (CascadedSFCScheduler, "submit_many", "core.submit_many", batch),
        (CascadedSFCScheduler, "next_request", "core.next_request", None),
        (CascadedSFCScheduler, "recharacterize", "core.recharacterize",
         None),
        (repro.disk.disk, "make_xp32150_disk", "disk.make", None),
        (DiskService, "serve", "disk.serve", None),
        (repro.sim.server, "run_simulation", "sim.run_simulation", None),
        (StreamingServer, "run_until", "serve.run_until", None),
        (StreamingServer, "open_stream", "serve.open_stream", None),
        (repro.cluster.ClusterController, "__init__", "cluster.init",
         None),
        (repro.cluster.ClusterController, "run", "cluster.run", None),
        (GlobalAdmission, "route", "cluster.route", None),
        (repro.parallel, "run_cells", "parallel.run_cells", None),
        (repro.parallel, "run_cluster_cell", "parallel.run_cluster_cell",
         None),
        (repro.cluster, "build_report", "cluster.build_report", None),
        (SqliteRunStore, "record", "store.record", None),
        (repro.sfc.lut, "curve_lut", "sfc.curve_lut", None),
        (repro.sfc.vectorized, "curve_lut", "sfc.curve_lut", None),
        (repro.sfc, "curve_lut", "sfc.curve_lut", None),
    ]


class SpanRecorder:
    """In-memory span log with a parent stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, size: int = 1) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.sizes.append(size)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def _wrap(self, name: str, fn, size):
        recorder = self

        def wrapper(*args, **kwargs):
            index = recorder.open(
                name, 1 if size is None else size(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every entry point (undo with :meth:`uninstall`)."""
        for owner, attr, name, size in _entry_points():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, size))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        durations = self.durations()
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def by_name(self) -> dict[str, dict]:
        """count / total / self seconds / size per span name."""
        table: dict[str, dict] = {}
        for name, duration, own, size in zip(
                self.names, self.durations(), self.self_times(),
                self.sizes):
            row = table.setdefault(name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0, "size": 0})
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += own
            row["size"] += size
        return table

    def check(self, wall_s: float, share: float = 0.05) -> list[str]:
        """Failures of the traced pass's attribution: a span outside its
        parent, or layer spans (every span below a root) whose self times
        do not cover the pass's ``wall_s`` to within ``share``."""
        failures = [
            f"span {self.names[index]} lies outside its parent "
            f"{self.names[parent]}"
            for index, parent in enumerate(self.parents)
            if parent >= 0 and not (
                self.starts[parent] <= self.starts[index]
                and self.ends[index] <= self.ends[parent])
        ]
        attributed = sum(own for own, parent in
                         zip(self.self_times(), self.parents)
                         if parent >= 0)
        if abs(attributed - wall_s) > share * wall_s:
            failures.append(f"layer spans cover {attributed:.3f}s of the "
                            f"traced pass's {wall_s:.3f}s")
        return failures

    def durations_of(self, name: str) -> list[float]:
        return [end - start for n, start, end in
                zip(self.names, self.starts, self.ends) if n == name]

    def write_jsonl(self, path: str) -> None:
        """One span per line, times in microseconds from the first."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(zip(
                    self.names, self.starts, self.ends, self.parents)):
                fh.write(json.dumps({
                    "id": index, "name": name, "parent": parent,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                }) + "\n")
