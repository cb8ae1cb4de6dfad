"""Steadiness record: run every workload on a set of seeds and report,
per end-to-end metric, the median and the spread -- the distance
between the first and third quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them.

Run from the root of a checkout (about a minute per run)::

    python3 repobench/steadiness.py --set A --seeds 1-10
    python3 repobench/steadiness.py --set B --seeds 11-20

Each invocation adds (or replaces) one named set in
``repobench/steadiness.json``, next to the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "steadiness.json")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(seed) for seed in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", required=True, help="name of this set")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--workloads", default="",
                        help="comma-separated (default: all)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    result: dict = {"seeds": seeds, "run_seconds": bench["run_seconds"],
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                              time.gmtime()),
                    "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        plain: dict[str, list[float]] = {}
        runs = []
        for seed in seeds:
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=True)
            elapsed = time.perf_counter() - started
            lines = done.stdout.strip().splitlines()
            out = json.loads(lines[-1])
            wall_clock = json.loads(lines[-2])["context"]["wall_clock"]
            runs.append({"seed": seed, "run_s": round(elapsed, 1),
                         "correct": out["correct"],
                         "attempted": out["attempted"],
                         "failed": out["failed"],
                         "values": {m: e["value"] for m, e
                                    in out["metrics"].items()},
                         "wall_clock": wall_clock})
            for metric, entry in out["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            for metric, value in wall_clock.items():
                plain.setdefault(metric, []).append(value)
            print(f"{name} seed {seed}: {elapsed:.1f}s "
                  f"correct={out['correct']}", file=sys.stderr)
        result["workloads"][name] = {
            "runs": runs,
            "metrics": {
                metric: {"median": statistics.median(v),
                         "spread": round(spread(v), 4),
                         "bound": bounds.get(metric)}
                for metric, v in values.items()
            },
            # The host metrics in plain wall-clock time, for comparison.
            "wall_clock": {
                metric: {"median": statistics.median(v),
                         "spread": round(spread(v), 4)}
                for metric, v in plain.items()
            },
        }

    record = {}
    if os.path.exists(RECORD):
        with open(RECORD, encoding="utf-8") as fh:
            record = json.load(fh)
    sets = record.setdefault("sets", {})
    previous = sets.get(args.set, {"workloads": {}})
    previous.update({k: v for k, v in result.items() if k != "workloads"})
    previous["workloads"].update(result["workloads"])
    sets[args.set] = previous
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name in names:
        for metric, row in result["workloads"][name]["metrics"].items():
            clock = result["workloads"][name]["wall_clock"].get(metric)
            print(f"{name:10s} {metric:24s} median {row['median']:12.5g} "
                  f"spread {row['spread']:.4f} bound {row['bound']}"
                  + (f"  (wall clock: median {clock['median']:.5g} "
                     f"spread {clock['spread']:.4f})" if clock else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
