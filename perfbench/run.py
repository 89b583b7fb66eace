"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload tpch-warm --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The op count is fixed before anything is
timed: from ``--seconds`` through each workload's nominal op cost (at least
100 ops), or from ``--ops``, which the smoke test uses for tiny runs.

``--trace 0`` prints the end-to-end metrics of one pass, with times scaled
to the reference host speed: each op and set-up time is divided by how much
slower than ``HostProbe.REFERENCE_MS`` the calibration loop ran right
around it (the unscaled values are printed beside them).  ``--trace 1``
makes the same pass and then a traced one on fresh set-ups, prints the
per-layer metrics of the traced pass, and writes its spans to
``perfbench/.out/``.  Every op's output is checked against an oracle
computed beforehand in a separate process; an op that raises or returns a
wrong result counts as failed.  If an op's work leaves the calling thread,
so that CPU time would not measure it, the run prints no result and exits
with code 3.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE_DIR = os.path.join(HERE, ".cache")
OUT_DIR = os.path.join(HERE, ".out")
REFERENCE_TIMEOUT_S = 600
#: calibration samples taken before and after the passes.
CALIBRATION_BURST = 20

WORKLOADS = {
    "stream-segtoll": "stream_segtoll",
    "tpch-warm": "tpch_warm",
    "tpch-ingest": "tpch_ingest",
}

TPCH_QUERIES = (
    "q01", "q03", "q04", "q05", "q06", "q07", "q09", "q10",
    "q11", "q12", "q14", "q15", "q16", "q18", "q19", "q21",
)

Metrics = Dict[str, Tuple[float, str]]


def reference_outputs(workload: str, module, seed: int, ops: int):
    """The oracle's outputs for these ops, computed once per (workload,
    seed, ops, sources the oracle depends on) in a child process and
    cached."""
    from measure import read_json, source_digest

    digest = source_digest(module.REFERENCE_SOURCES)
    path = os.path.join(CACHE_DIR, f"{workload}-seed{seed}-ops{ops}-{digest}.json")
    expected = read_json(path)
    if expected is None:
        subprocess.run(
            [
                sys.executable,
                os.path.join(HERE, "reference.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--ops", str(ops),
                "--cache-dir", CACHE_DIR,
                "--out", path,
            ],
            check=True,
            timeout=REFERENCE_TIMEOUT_S,
        )
        expected = read_json(path)
    return expected


def end_to_end_metrics(measured, scaled: bool = True) -> Metrics:
    """The end-to-end metrics of one pass.

    With *scaled*, each op time and set-up time is divided by its local
    host factor: how much slower than ``HostProbe.REFERENCE_MS`` the probe
    ran right around it.
    """
    from measure import HostProbe, peak_rss_mb, percentile

    op_factors = [calib / HostProbe.REFERENCE_MS for calib in measured.op_calib_ms]
    setup_factors = [calib / HostProbe.REFERENCE_MS for calib in measured.setup_calib_ms]
    if not scaled:
        op_factors = [1.0] * len(op_factors)
        setup_factors = [1.0] * len(setup_factors)
    op_seconds = [seconds / factor for seconds, factor in zip(measured.op_seconds, op_factors)]
    setup_seconds = [
        seconds / factor for seconds, factor in zip(measured.setup_seconds, setup_factors)
    ]
    op_ms = [seconds * 1000.0 for seconds in op_seconds] or [0.0]
    return {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "ops_per_s": (len(op_seconds) / sum(op_seconds) if op_seconds else 0.0, "1/s"),
        "op_ms_p50": (percentile(op_ms, 0.5), "ms"),
        "op_ms_p90": (percentile(op_ms, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer_metrics(untraced, meter, traced, traced_meter, calib_ms: float) -> Metrics:
    """Per-op means of the traced pass's layers, counts and ratios.

    Layer ``*_ms`` values are milliseconds per traced op, so together with
    ``op.unattributed_ms`` they add up to ``op.mean_ms``.  *untraced* and
    its *meter* give the same ops' throughput untraced, on both clocks;
    ``obs.trace_overhead_frac`` compares both passes' wall-clock throughput,
    each op scaled by its host factor.
    """
    spans = max(1, len(traced.span_op_seconds))
    layers, counts = traced.layer_seconds, traced.counts

    def per_op(layer: str) -> float:
        return layers.get(layer, 0.0) / spans * 1000.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def count(name: str) -> float:
        return counts.get(name, 0)

    metrics: Metrics = {
        "host.calib_ms": (calib_ms, "ms"),
        "op.count": (len(traced.span_op_seconds), "count"),
        "op.mean_ms": (ratio(sum(traced.span_op_seconds), spans) * 1000.0, "ms"),
        "op.unattributed_ms": (ratio(sum(traced.unattributed_seconds), spans) * 1000.0, "ms"),
        "op.ops_per_s_cpu": (untraced.ops_per_s, "1/s"),
        "op.ops_per_s_wall": (meter.wall_ops_per_s, "1/s"),
        "streams.window_ms": (per_op("streams.window"), "ms"),
        "optimizer.reopt_ms": (per_op("optimizer.reopt"), "ms"),
        "optimizer.scratch_ms": (per_op("optimizer.scratch"), "ms"),
        "optimizer.reopt_vs_scratch": (
            ratio(layers.get("optimizer.reopt", 0.0), layers.get("optimizer.scratch", 0.0)),
            "ratio",
        ),
        "optimizer.reoptimizations": (count("optimizer.reoptimizations"), "count"),
        "optimizer.plan_flips": (count("optimizer.plan_flips"), "count"),
        "optimizer.optimize_ms": (per_op("optimizer.optimize"), "ms"),
        "optimizer.refresh_ms": (per_op("optimizer.refresh"), "ms"),
        "optimizer.refresh_live_frac": (
            ratio(count("optimizer.refresh_live"), count("optimizer.reoptimizations")),
            "ratio",
        ),
        "adaptive.plan_switches": (count("adaptive.plan_switches"), "count"),
        "adaptive.migration_ms": (per_op("adaptive.migration"), "ms"),
        "engine.execute_ms": (per_op("engine.execute"), "ms"),
        "engine.rows_out": (count("engine.rows_out"), "count"),
        "sql.parse_bind_ms": (per_op("sql.parse_bind"), "ms"),
        "api.lookup_ms": (per_op("api.lookup"), "ms"),
        "api.plan_cache_hit_frac": (
            ratio(count("api.plan_cache_hits"), count("api.plan_cache_lookups")),
            "ratio",
        ),
        "api.plan_cache_lookups": (count("api.plan_cache_lookups"), "count"),
        "api.invalidations": (count("api.invalidations"), "count"),
        "storage.insert_ms": (per_op("storage.insert"), "ms"),
        "storage.insert_us_per_row": (
            ratio(layers.get("storage.insert", 0.0), count("storage.rows_inserted")) * 1e6,
            "us",
        ),
        "storage.rows_inserted": (count("storage.rows_inserted"), "count"),
        "obs.trace_overhead_frac": (
            1.0 - ratio(traced_meter.scaled_wall_ops_per_s(), meter.scaled_wall_ops_per_s()),
            "ratio",
        ),
    }
    for query in TPCH_QUERIES:
        metrics[f"engine.execute_ms.{query}"] = (
            ratio(layers.get(f"engine.execute.{query}", 0.0), count(f"engine.executions.{query}"))
            * 1000.0,
            "ms",
        )
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0, help="fixed op count (smoke runs)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [
        path for path in ("src/repro", "benchmarks/tpch")
        if not os.path.isdir(os.path.join(ROOT, path))
    ]
    if missing:
        print(
            f"run.py: {', '.join(missing)} not found under {ROOT}; "
            "run it from the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from measure import WALL_CLOCK, HostProbe, RunSpec, SpanLog

    module = importlib.import_module(WORKLOADS[args.workload])
    ops = args.ops if args.ops > 0 else module.default_ops(args.seconds)
    expected = reference_outputs(args.workload, module, args.seed, ops)

    probe = HostProbe()
    probe.sample(CALIBRATION_BURST)
    spec = RunSpec(args.seed, ops, CACHE_DIR, expected, probe=probe)
    measured = module.run_pass(spec)
    passes = [measured]
    if args.trace:
        gc.collect()
        spans = SpanLog(WALL_CLOCK)
        traced_spec = RunSpec(
            args.seed, ops, CACHE_DIR, expected,
            traced=True, spans=spans, clock=WALL_CLOCK, probe=probe,
        )
        traced = module.run_pass(traced_spec)
        passes.append(traced)
    probe.sample(CALIBRATION_BURST)
    calib_ms, calib_wall_ms = probe.median()

    problem = spec.meter.problem()
    if problem:
        print(f"run.py: not measured: {problem}", file=sys.stderr)
        return 3

    attempted = sum(one.attempted for one in passes)
    failed = sum(one.failed for one in passes)
    for one in passes:
        for error in one.errors:
            print(f"FAILED {error}", file=sys.stderr)

    if args.trace:
        metrics = per_layer_metrics(measured, spec.meter, traced, traced_spec.meter, calib_ms)
        path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
        spans.write(path)
        print(f"spans: {os.path.relpath(path, ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:32s} {value:14.4f} {unit}")
    else:
        host_factor = calib_ms / HostProbe.REFERENCE_MS
        metrics = end_to_end_metrics(measured)
        raw = end_to_end_metrics(measured, scaled=False)
        completed = len(measured.op_seconds)
        print(
            f"{args.workload} seed={args.seed} ops={ops} completed={completed} "
            f"setups={len(measured.setup_seconds)} host.calib_ms={calib_ms:.3f} "
            f"(wall {calib_wall_ms:.3f}, host factor {host_factor:.3f}) "
            f"(op_ms_p50 over {completed} samples, op_ms_p90 with "
            f"{completed - int(0.9 * (completed - 1)) - 1} beyond it)"
        )
        print(f"  {'metric':32s} {'reference host':>14s} {'this host':>14s}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:32s} {value:14.4f} {raw[name][0]:14.4f} {unit}")
        wall = spec.meter.wall_ops_per_s
        print(f"  {'ops_per_s on the wall clock':32s} {'':14s} {wall:14.4f} 1/s")
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
