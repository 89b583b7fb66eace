"""stream-segtoll: the paper's SegTollS query over a drifting Linear Road
stream, re-optimized incrementally on every 1 s slice.

It is the only workload where ``DeclarativeOptimizer.reoptimize`` runs on
every op.  Each episode starts cold: a fresh ``AdaptiveController``
(cumulative monitor, re-optimization every slice) whose first slice runs
the initial optimization; that is the episode's set-up.  One op is one
``AdaptiveController.run([slice], windows)`` call on the following slices.
Episodes stop at 60 simulated seconds: later, the 300 s window keeps
filling and execution grows to hide re-optimization, the mechanism this
workload exists to show.  A run strings several episodes, each on its own
seeded stream, so its percentiles pool more than one drift pattern.
"""

from __future__ import annotations

import gc
import hashlib
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Sequence

from measure import PassResult, RunSpec

SLICES_PER_EPISODE = 60
WARMUP_SLICES = 10
REPORTS_PER_SECOND = 10
CARS = 100
#: op cost used only to turn ``--seconds`` into a fixed op count.
NOMINAL_OP_MS = 45.0
WARMUP_EPISODE = 999
REFERENCE_WORKERS = 2
#: a cold set-up takes tens of ms, so each is repeated for a steady median.
SETUPS_PER_EPISODE = 5
#: what the row engine's per-slice outputs are made by.
REFERENCE_SOURCES = (
    "src/repro/streams",
    "src/repro/engine/executor.py",
    "src/repro/relational",
    "perfbench/stream_segtoll.py",
)


def default_ops(seconds: int) -> int:
    episodes = max(2, round(seconds * 1000.0 / (NOMINAL_OP_MS * SLICES_PER_EPISODE)))
    return episodes * SLICES_PER_EPISODE


def episode_sizes(ops: int) -> List[int]:
    """Split *ops* slices over episodes of at most ``SLICES_PER_EPISODE``."""
    episodes = max(1, math.ceil(ops / SLICES_PER_EPISODE))
    base, extra = divmod(ops, episodes)
    return [base + (1 if index < extra else 0) for index in range(episodes)]


def episode_slices(seed: int, episode: int, ops: int):
    """Slice 0 (consumed by set-up) followed by *ops* op slices."""
    from repro.streams.linear_road import GeneratorConfig, LinearRoadGenerator

    config = GeneratorConfig(
        reports_per_second=REPORTS_PER_SECOND, cars=CARS, seed=seed * 1000 + episode
    )
    return LinearRoadGenerator(config).generate_slices(ops + 1, 1.0)


def rows_digest(rows: Sequence[Dict[str, object]]) -> str:
    """Order-independent digest of a result multiset."""
    canonical = sorted(repr(sorted(row.items())) for row in rows)
    return hashlib.sha1("\n".join(canonical).encode()).hexdigest()


def _episode_reference(seed: int, episode: int, size: int) -> List[list]:
    from repro.engine import make_executor
    from repro.optimizer.declarative import DeclarativeOptimizer
    from repro.streams.linear_road import linear_road_catalog, segtolls_query
    from repro.streams.windows import WindowManager

    slices = episode_slices(seed, episode, size)
    query = segtolls_query()
    sample = [row for stream_slice in slices for row in stream_slice.rows]
    plan = DeclarativeOptimizer(query, linear_road_catalog(sample)).optimize().plan
    windows = WindowManager(query)
    windows.advance(slices[0])
    expected = []
    for stream_slice in slices[1:]:
        windows.advance(stream_slice)
        rows = make_executor("row", query, windows.materialize()).execute(plan).rows
        expected.append([len(rows), rows_digest(rows)])
    return expected


def reference(spec: RunSpec) -> List[List[list]]:
    """Per episode, per op slice: ``[row count, rows digest]`` from the
    row engine, the repo's differential oracle.

    Results do not depend on the plan, so one plan per episode (optimized
    with statistics of the whole episode) serves every slice.  The row
    engine is several times slower than the measured engine, so episodes
    are replayed by ``REFERENCE_WORKERS`` processes; nothing is measured
    while they run.
    """
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=REFERENCE_WORKERS, mp_context=context) as pool:
        futures = [
            pool.submit(_episode_reference, spec.seed, episode, size)
            for episode, size in enumerate(episode_sizes(spec.ops))
        ]
        return [future.result() for future in futures]


def _new_episode(slices):
    from repro.adaptive.controller import AdaptationMode, AdaptiveController
    from repro.streams.linear_road import linear_road_catalog, segtolls_query
    from repro.streams.windows import WindowManager

    query = segtolls_query()
    controller = AdaptiveController(
        query,
        linear_road_catalog(),
        mode=AdaptationMode.INCREMENTAL,
        cumulative=True,
        reoptimize_every=1,
    )
    windows = WindowManager(query)
    controller.run(slices[:1], windows)
    return controller, windows


def _timed(clock, method, sink: List[tuple], name: str):
    """Wrap a bound method so each call appends ``(name, start, seconds)``."""

    def wrapper(*args, **kwargs):
        started = clock()
        try:
            return method(*args, **kwargs)
        finally:
            sink.append((name, started, clock() - started))

    return wrapper


def _counted(method, result: PassResult, name: str):
    def wrapper(*args, **kwargs):
        result.add_count(name)
        return method(*args, **kwargs)

    return wrapper


def run_pass(spec: RunSpec) -> PassResult:
    """Set up every episode (``SETUPS_PER_EPISODE`` times, keeping the
    last), warm up on a separate stream, then time each op."""
    from repro.engine import make_executor
    from repro.optimizer.declarative import DeclarativeOptimizer
    from repro.optimizer.tables import PruningConfig

    result = PassResult()
    inputs = [
        episode_slices(spec.seed, index, size)
        for index, size in enumerate(episode_sizes(spec.ops))
    ]
    warmup_slices = episode_slices(spec.seed, WARMUP_EPISODE, WARMUP_SLICES)
    traced, spans, clock = spec.traced, spec.spans, spec.clock

    episodes = []
    for slices in inputs:
        for _ in range(SETUPS_PER_EPISODE):
            controller, windows = result.timed_setup(spec, lambda: _new_episode(slices))
        episodes.append((controller, windows, slices[1:]))

    controller, windows = _new_episode(warmup_slices)
    for stream_slice in warmup_slices[1:]:
        controller.run([stream_slice], windows)
    gc.collect()

    op_id = 0
    for episode, (controller, windows, slices) in enumerate(episodes):
        materialize = windows.materialize
        children: List[tuple] = []
        if traced:
            windows.advance = _timed(clock, windows.advance, children, "streams.window")
            windows.materialize = _timed(clock, windows.materialize, children, "streams.window")
            controller.optimizer.reoptimize = _counted(
                controller.optimizer.reoptimize, result, "optimizer.reoptimizations"
            )
        for position, stream_slice in enumerate(slices):
            op_id += 1
            result.attempted += 1
            where = f"episode {episode} slice {stream_slice.index}"
            children.clear()
            spec.meter.start()
            started = clock()
            try:
                report = controller.run([stream_slice], windows).reports[0]
            except Exception as error:  # an op that raises counts as failed
                result.fail(f"{where}: {error!r}")
                continue
            seconds = clock() - started
            spec.meter.stop()

            # -- checks, outside the timed call ------------------------
            problem = None
            want_count, want_digest = spec.expected[episode][position]
            rows = make_executor(controller.engine, controller.query, materialize()).execute(
                controller.current_plan
            ).rows
            if report.output_rows != want_count or rows_digest(rows) != want_digest:
                problem = f"{where}: rows differ from the row engine"

            if traced:
                op_children = list(children) + [
                    ("optimizer.reopt", None, report.reoptimize_seconds),
                    ("engine.execute", None, report.execute_seconds),
                    ("adaptive.migration", None, report.migration.elapsed_seconds),
                ]
                result.record_op(spans, op_id, started, seconds, op_children, f"e{episode}")
                result.add_count("adaptive.plan_switches", int(report.plan_changed))
                result.add_count("engine.rows_out", report.output_rows)
                scratch_started = clock()
                scratch = DeclarativeOptimizer(
                    controller.query,
                    controller.catalog,
                    pruning=PruningConfig.full(),
                    overlay=controller.optimizer.cost_model.overlay.copy(),
                ).optimize()
                scratch_seconds = clock() - scratch_started
                result.add_layer("optimizer.scratch", scratch_seconds)
                spans.side(op_id, "optimizer.scratch", scratch_started, scratch_seconds)
                if not math.isclose(scratch.cost, report.plan_cost, rel_tol=1e-6):
                    problem = (
                        f"{where}: incremental cost {report.plan_cost} "
                        f"!= from-scratch cost {scratch.cost}"
                    )
            if problem is None:
                result.add_op(seconds, spec.meter)
            else:
                result.fail(problem)
    return result
