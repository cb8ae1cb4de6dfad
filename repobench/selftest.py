"""Self-tests of the benchmark itself (quick sizes, about a minute).

Run from the root of a checkout::

    python3 repobench/selftest.py

They check that the instrument does not change what it measures:

* a traced pass yields the same fingerprints as an untraced pass, so
  the span wrappers change no code path;
* the layer spans' self times cover the traced pass's wall time to
  within 5%, and work inside the pass that no layer span covers makes
  that check fail;
* a tampered reference counts the pass as failed, not as a number;
* sampling the host speed changes no code path either (same
  fingerprints), its timer is removed afterwards, and reference time
  adds up over adjacent stretches and follows the samples' factor;
* a quick size of every workload runs end to end through the command
  line in seconds, on the reference seed and on a held-out seed (which
  is checked by the conservation laws alone).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

WORKLOAD_NAMES = ("sim_disk", "fleet16")
#: A seed no reference pins: checked by the laws alone.
HELD_OUT_SEED = 4242
#: "Finishes in seconds": generous for a loaded 2-core host.
QUICK_LIMIT_S = 60.0


class _Scratch:
    scratch = ""

    @classmethod
    def setUpClass(cls) -> None:
        os.makedirs(run.OUT_DIR, exist_ok=True)
        cls.scratch = os.path.join(run.OUT_DIR,
                                   f"selftest-{os.getpid()}")
        os.makedirs(cls.scratch, exist_ok=True)
        if not os.environ.get("REPRO_LUT_CACHE_DIR"):
            run.prepare_environment(cls.scratch)

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(cls.scratch, ignore_errors=True)


class InstrumentTests(_Scratch, unittest.TestCase):

    def _workload(self, name: str):
        from workloads import REFERENCE_SEED, WORKLOADS
        workload = WORKLOADS[name](REFERENCE_SEED, quick=True)
        workload.generate()
        return workload

    def _traced(self, workload):
        from spans import SpanRecorder
        recorder = SpanRecorder()
        recorder.install()
        try:
            traced = workload.run_pass(
                "plain", self.scratch,
                region=lambda: recorder.span("bench.pass"))
        finally:
            recorder.uninstall()
        return recorder, traced

    def test_traced_pass_matches_untraced(self) -> None:
        for name in WORKLOAD_NAMES:
            with self.subTest(workload=name):
                workload = self._workload(name)
                plain = workload.run_pass("plain", self.scratch)
                recorder, traced = self._traced(workload)
                self.assertEqual(plain.fingerprint, traced.fingerprint)
                self.assertGreater(len(recorder.names), 1)
                self.assertEqual(recorder.check(traced.wall_s), [])

    def test_unwrapped_work_fails_the_span_check(self) -> None:
        from repro.disk.disk import DiskModel
        workload = self._workload("sim_disk")
        stall_s = 2 * workload.run_pass("plain", self.scratch).wall_s
        reset = DiskModel.reset

        def slow_reset(*args, **kwargs):
            # Work inside the timed pass that no layer span wraps.
            time.sleep(stall_s)
            return reset(*args, **kwargs)

        DiskModel.reset = slow_reset
        try:
            recorder, traced = self._traced(workload)
        finally:
            DiskModel.reset = reset
        failures = recorder.check(traced.wall_s)
        self.assertEqual(len(failures), 1)
        self.assertIn("layer spans cover", failures[0])

    def test_wrappers_are_removed(self) -> None:
        from spans import SpanRecorder, _entry_points
        before = [owner.__dict__[attr]
                  for owner, attr, _, _ in _entry_points()]
        recorder = SpanRecorder()
        recorder.install()
        recorder.uninstall()
        after = [owner.__dict__[attr]
                 for owner, attr, _, _ in _entry_points()]
        self.assertEqual(before, after)

    def test_tampered_reference_fails_the_pass(self) -> None:
        from workloads import REFERENCE_SEED
        args = run.argparse.Namespace(
            workload="sim_disk", seed=REFERENCE_SEED, quick=True)
        bench = run.Run(args, self.scratch)
        bench.setup = run.Setup("sim_disk", REFERENCE_SEED, self.scratch,
                                quick=True)
        self.assertIsNotNone(bench.one("plain"))
        tampered = {key: "0" * 64 for key in bench.reference}
        bench.reference, bench.first = tampered, {}
        self.assertIsNone(bench.one("plain"))
        self.assertEqual(bench.attempted, 2)
        self.assertEqual(len(bench.passes), 1)
        self.assertTrue(bench.failures)


class HostSpeedTests(_Scratch, unittest.TestCase):

    def test_sampled_pass_matches_unsampled(self) -> None:
        import signal

        from hostspeed import HostSpeed
        from workloads import REFERENCE_SEED, WORKLOADS
        for name in WORKLOAD_NAMES:
            with self.subTest(workload=name):
                workload = WORKLOADS[name](REFERENCE_SEED, quick=True)
                workload.generate()
                plain = workload.run_pass("plain", self.scratch)
                host = HostSpeed()
                with host:
                    sampled = workload.run_pass("plain", self.scratch)
                self.assertEqual(plain.fingerprint, sampled.fingerprint)
                self.assertGreater(len(host.durations), 0)
                self.assertEqual(signal.getitimer(signal.ITIMER_REAL),
                                 (0.0, 0.0))

    def test_reference_time_adds_up_and_scales(self) -> None:
        import numpy

        import hostspeed
        host = hostspeed.HostSpeed()
        # Ten windows of samples 0.1 s apart; the host runs twice as
        # slow as the reference host in the second half.
        count = 10 * hostspeed.WINDOW
        for i in range(count):
            host.starts.append(0.1 * i)
            host.durations.append(hostspeed.REFERENCE_KERNEL_S
                                  * (1 if i < count // 2 else 2))
        end = 0.1 * count
        whole = host.reference_s(0.0, end)
        split = host.reference_s(0.0, 1.23) + host.reference_s(1.23, end)
        self.assertAlmostEqual(whole, split, places=9)
        middle = host.starts[count // 2]
        self.assertAlmostEqual(whole, host.program_s(0.0, middle)
                               + host.program_s(middle, end) / 2,
                               places=9)
        self.assertEqual(list(host.reference_latencies([0.05, end - 0.05],
                                                       [1e-5, 1e-5])),
                         [numpy.float32(1e-5), numpy.float32(5e-6)])


class CommandLineTests(unittest.TestCase):

    def _run(self, workload: str, seed: int, trace: int) -> dict:
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace), "--quick"],
            capture_output=True, text=True, timeout=300,
        )
        elapsed = time.perf_counter() - started
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertLess(elapsed, QUICK_LIMIT_S)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
        self.assertEqual(set(result["metrics"]), set(expected))
        return result

    def test_quick_sizes_finish_and_pass(self) -> None:
        from workloads import REFERENCE_SEED
        for name in WORKLOAD_NAMES:
            for seed in (REFERENCE_SEED, HELD_OUT_SEED):
                with self.subTest(workload=name, seed=seed):
                    result = self._run(name, seed, trace=0)
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    for metric in result["metrics"].values():
                        self.assertGreater(metric["value"], 0)

    def test_quick_traced_run(self) -> None:
        result = self._run("fleet16", HELD_OUT_SEED, trace=1)
        self.assertTrue(result["correct"], result)
        self.assertGreater(result["metrics"]["cluster.route_calls"]
                           ["value"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
