"""Run every workload N times on different seeds and report how steady each
end-to-end metric is against the bounds in ``BENCHMARK.json``.

    python3 perfbench/steadiness.py --runs 10 [--sets 2] [--workload NAME ...]

For each workload and metric it prints the median and quartiles of the N
values and their spread, ``(q3 - q1) / median`` as
``statistics.quantiles(values, n=4)`` gives the quartiles.  A spread above
the metric's bound fails, ``setup_s`` included; one above a third of the
bound is marked as worth steadying.  With
``--sets 2`` the whole series runs twice, and a second median worse than
the first by more than the bound fails too.  Every run must also report
``correct`` with no failed op.  Exit status 1 on any failure.

Each run's ``host.calib_ms`` is listed too, with each metric's correlation
against it: a spread that moves with the calibration loop is the host's,
not the program's.  The ``unscaled`` column is the spread of the values as
measured on this host, before scaling to the reference host speed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(benchmark: dict, workload: str, seed: int, trace: int) -> dict:
    command = list(benchmark["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    elapsed = time.monotonic() - started
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    calibration = re.search(r"host\.calib_ms=([0-9.]+)", completed.stdout)
    result["host.calib_ms"] = float(calibration.group(1)) if calibration else None
    result["elapsed_s"] = elapsed
    # The table above the JSON: name, value at the reference host speed,
    # value as measured on this host, unit.
    result["unscaled"] = {
        match.group(1): float(match.group(2))
        for match in re.finditer(
            r"^  (\S+)\s+-?[0-9.]+\s+(-?[0-9.]+) \S+$", completed.stdout, re.MULTILINE
        )
    }
    return result


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    workloads = args.workload or names
    metrics = benchmark["end_to_end"]

    failures = 0
    medians: Dict[str, Dict[str, List[float]]] = {name: {} for name in workloads}
    for set_index in range(args.sets):
        values: Dict[str, Dict[str, List[float]]] = {
            name: {metric["name"]: [] for metric in metrics} for name in workloads
        }
        unscaled: Dict[str, Dict[str, List[float]]] = {
            name: {metric["name"]: [] for metric in metrics} for name in workloads
        }
        calibration: Dict[str, List[float]] = {name: [] for name in workloads}
        for run_index in range(args.runs):
            seed = args.seed_base + set_index * args.runs + run_index
            for workload in workloads:
                result = run_once(benchmark, workload, seed, trace=0)
                if not result["correct"] or result["failed"]:
                    failures += 1
                    print(f"FAIL {workload} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']}")
                for metric in metrics:
                    values[workload][metric["name"]].append(
                        result["metrics"][metric["name"]]["value"]
                    )
                    unscaled[workload][metric["name"]].append(
                        result["unscaled"][metric["name"]]
                    )
                calibration[workload].append(result["host.calib_ms"])
                summary = " ".join(
                    f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items()
                )
                summary += (
                    f" host.calib_ms={result['host.calib_ms']} elapsed_s={result['elapsed_s']:.1f}"
                )
                print(f"set {set_index + 1} {workload} seed {seed}: {summary}", flush=True)

        print(f"\nset {set_index + 1}: {args.runs} runs per workload")
        print(f"{'workload':16s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s} {'r(calib)':>8s} {'unscaled':>8s}  verdict")
        for workload in workloads:
            calib = calibration[workload]
            q1, median, q3 = statistics.quantiles(calib, n=4)
            print(f"{workload:16s} {'host.calib':12s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{(q3 - q1) / median:8.3f}")
            for metric in metrics:
                name, bound = metric["name"], metric["bound"]
                series = values[workload][name]
                q1, median, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median if median else 0.0
                verdict = "ok"
                if spread > bound:
                    verdict = "FAIL spread"
                    failures += 1
                elif spread > bound / 3:
                    verdict = "ok (above bound/3)"
                previous = medians[workload].get(name)
                if previous:
                    drift = worse_by(previous[0], median, metric["better"])
                    if drift > bound:
                        verdict += f"; FAIL median worse by {drift:.3f}"
                        failures += 1
                    else:
                        verdict += f"; median moved {drift:+.3f}"
                medians[workload].setdefault(name, []).append(median)
                try:
                    correlation = statistics.correlation(series, calib)
                except statistics.StatisticsError:  # a constant series
                    correlation = 0.0
                raw_q1, raw_median, raw_q3 = statistics.quantiles(unscaled[workload][name], n=4)
                raw_spread = (raw_q3 - raw_q1) / raw_median if raw_median else 0.0
                print(f"{workload:16s} {name:12s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                      f"{spread:8.3f} {bound:6.2f} {correlation:8.2f} {raw_spread:8.3f}  {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
