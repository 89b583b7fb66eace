"""tpch-warm: the 16 supported TPC-H queries at SF 0.01 (uniform data) in
seeded rounds, each through ``Database.execute``.

Set-up plans every statement once, so every timed lookup hits the plan
cache: the optimizer is bypassed and execute carries nearly all the time.
It is the workload that shows engine (kernel) work, and the one on which
an optimizer change should show no change.  One op is one statement.
"""

from __future__ import annotations

import gc
import math
import random
from typing import Dict, List

import tpch_data
from measure import PassResult, RunSpec

#: op cost used only to turn ``--seconds`` into a fixed op count.
NOMINAL_ROUND_MS = 730.0
MIN_ROUNDS = 7
#: set-ups per untraced pass; ``setup_s`` is their median.
SETUPS = 3
REFERENCE_SOURCES = tpch_data.ORACLE_SOURCES + ("perfbench/tpch_warm.py",)


def query_order(seed: int, rounds: int) -> List[str]:
    """Every round runs each query once, each round in its own seeded order.

    An op can pay for the garbage of the op before it, so a query that
    always followed q18 would run slower in one seed's order than in
    another's; shuffling each round spreads that cost over all queries.
    """
    rng = random.Random(f"tpch-warm:{seed}")
    order: List[str] = []
    for _ in range(rounds):
        names = sorted(tpch_data.queries())
        rng.shuffle(names)
        order.extend(names)
    return order


def default_ops(seconds: int) -> int:
    rounds = max(MIN_ROUNDS, round(seconds * 1000.0 / NOMINAL_ROUND_MS))
    return rounds * len(tpch_data.queries())


def reference(spec: RunSpec) -> Dict[str, List[list]]:
    """sqlite3 results of every query over the same CSVs."""
    from benchmarks.tpch.oracle import SqliteOracle

    data_dir = tpch_data.dataset(spec.cache_dir, skew=0.0)
    with SqliteOracle(data_dir) as oracle:
        return {
            name: [list(row) for row in oracle.run(sql)]
            for name, sql in tpch_data.queries().items()
        }


def run_pass(spec: RunSpec) -> PassResult:
    data_dir = tpch_data.dataset(spec.cache_dir, skew=0.0)
    sql_of = tpch_data.queries()
    # One round of warm-up, then the timed ops.
    warmup, order = len(sql_of), query_order(spec.seed, 1 + math.ceil(spec.ops / len(sql_of)))
    result = PassResult()
    clock = spec.clock

    connection = None
    for _ in range(1 if spec.traced else SETUPS):
        if connection is not None:
            tpch_data.close_database(connection)
        connection = result.timed_setup(
            spec,
            lambda: tpch_data.open_database(
                data_dir, spec.traced, [sql_of[name] for name in order[:warmup]], uniform=False
            ),
        )
    database = connection.database

    for name in order[:warmup]:
        database.execute(sql_of[name])
    gc.collect()

    before = tpch_data.plan_cache_counts(database)
    for op_id in range(1, spec.ops + 1):
        name = order[warmup + op_id - 1]
        sql = sql_of[name]
        result.attempted += 1
        spec.meter.start()
        started = clock()
        try:
            statement = database.execute(sql)
        except Exception as error:  # an op that raises counts as failed
            result.fail(f"op {op_id} {name}: {error!r}")
            continue
        seconds = clock() - started
        spec.meter.stop()

        problem = tpch_data.mismatch(spec.expected[name], statement, sql)
        if spec.traced:
            children = tpch_data.statement_phases(database, statement)
            result.record_op(spec.spans, op_id, started, seconds, children, name)
            tpch_data.count_statement(result, name, statement, children)
        if problem is None:
            result.add_op(seconds, spec.meter)
        else:
            result.fail(f"op {op_id} {name}: {problem}")

    after = tpch_data.plan_cache_counts(database)
    for key, value in after.items():
        result.add_count(key, value - before[key])
    tpch_data.close_database(connection)
    return result
