"""Smoke test of the benchmark itself.

Every workload runs at a tiny size in both modes, its output checks pass,
and the metric names and units it prints match ``BENCHMARK.json``.  Without
the program's sources next to it, the benchmark must fail without printing
a result.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

TINY_OPS = {"stream-segtoll": 12, "tpch-warm": 16, "tpch-ingest": 6}


def run(cwd: str, workload: str, trace: int, ops: int) -> subprocess.CompletedProcess:
    script = os.path.join(cwd, BENCHMARK["command"][1])
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "1",
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace), "--ops", str(ops)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_workload_names_match():
    assert sorted(TINY_OPS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY_OPS))
def test_tiny_run_passes_its_checks(workload, trace):
    completed = run(ROOT, workload, trace, TINY_OPS[workload])
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= TINY_OPS[workload]
    section = "per_layer" if trace else "end_to_end"
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in declared)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path),
            tmp_path / path,
            ignore=shutil.ignore_patterns(".cache", ".out", "__pycache__"),
        )
    completed = run(str(tmp_path), "tpch-warm", 0, TINY_OPS["tpch-warm"])
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def _measure():
    sys.path.insert(0, HERE)
    import measure

    return measure


def test_meter_accepts_ops_on_the_calling_thread():
    measure = _measure()
    meter = measure.OpMeter(measure.HostProbe())
    for _ in range(3):
        meter.start()
        sum(i * i for i in range(200_000))
        meter.stop()
    assert meter.problem() is None
    assert len(meter.wall_seconds) == len(meter.calib_ms) == 3
    assert meter.wall_ops_per_s > 0


def test_meter_flags_work_on_another_thread():
    import threading

    def spin():
        sum(i * i for i in range(2_000_000))

    measure = _measure()
    meter = measure.OpMeter(measure.HostProbe())
    meter.start()
    worker = threading.Thread(target=spin)
    worker.start()
    worker.join()
    meter.stop()
    assert "threads other than the caller" in meter.problem()


def test_meter_flags_a_child_process():
    measure = _measure()
    meter = measure.OpMeter(measure.HostProbe())
    meter.start()
    subprocess.run([sys.executable, "-c", "sum(range(10**6))"], check=True)
    meter.stop()
    assert "child process" in meter.problem()


def test_source_digest_follows_the_sources(tmp_path, monkeypatch):
    measure = _measure()
    monkeypatch.setattr(measure, "ROOT", str(tmp_path))
    (tmp_path / "gen").mkdir()
    (tmp_path / "gen" / "a.py").write_text("x = 1\n")
    first = measure.source_digest(["gen"])
    assert measure.source_digest(["gen"]) == first
    (tmp_path / "gen" / "a.py").write_text("x = 2\n")
    assert measure.source_digest(["gen"]) != first
