"""TPC-H inputs and statement helpers shared by tpch-warm and tpch-ingest."""

from __future__ import annotations

import gc
import os
import shutil
from typing import Dict, List, Optional, Sequence

from measure import source_digest

SCALE_FACTOR = 0.01
#: dbgen's seed.  Like TPC-H's own dbgen, the data does not vary between
#: runs: a run's seed orders the statements (tpch-warm) or draws the
#: inserted batches (tpch-ingest).  With a dataset per run seed, the median
#: op time of tpch-warm moved with the seed's data far more than between
#: repeats of one seed, so it would have measured the data, not the program.
DATA_SEED = 1
#: what the generated CSVs are made by; their digest names the cache entry.
DATA_SOURCES = (
    "benchmarks/tpch/dbgen.py",
    "src/repro/workloads/distributions.py",
    "src/repro/workloads/tpch.py",
)
#: what the sqlite3 oracle's outputs also depend on (the workload module
#: that replays the ops adds itself).
ORACLE_SOURCES = DATA_SOURCES + (
    "benchmarks/tpch/oracle.py",
    "benchmarks/tpch/runner.py",
    "benchmarks/tpch/queries",
    "perfbench/tpch_data.py",
)

#: statement phases recorded by ``connect(trace=True)`` → benchmark layer.
#: Operator spans (children of ``execute``) are inclusive, so they are not read.
PHASE_LAYERS = {
    "plan-cache-lookup": "api.lookup",
    "plan-wait": "api.lookup",
    "parse": "sql.parse_bind",
    "bind": "sql.parse_bind",
    "optimize": "optimizer.optimize",
    "execute": "engine.execute",
}


def dataset(cache_dir: str, skew: float) -> str:
    """Directory of dbgen CSVs for *skew*, generated once and cached."""
    from benchmarks.tpch import dbgen

    directory = os.path.join(
        cache_dir,
        f"tpch-sf{SCALE_FACTOR}-skew{skew}-seed{DATA_SEED}-{source_digest(DATA_SOURCES)}",
    )
    if not os.path.isdir(directory):
        # Generate aside and rename, so a reader never sees half a dataset.
        partial = f"{directory}.{os.getpid()}.tmp"
        dbgen.generate(partial, SCALE_FACTOR, skew, DATA_SEED)
        try:
            os.rename(partial, directory)
        except OSError:  # another run finished the same dataset first
            shutil.rmtree(partial)
    return directory


def queries() -> Dict[str, str]:
    """The supported TPC-H queries, name → SQL."""
    from benchmarks.tpch import runner

    supported, _ = runner.load_queries()
    return supported


def open_database(data_dir: str, traced: bool, statements: Sequence[str], uniform: bool):
    """The program's set-up: connect, DDL, COPY (which analyzes), optionally
    the uniform-statistics assumption, then the first plan of each statement."""
    from benchmarks.tpch import runner

    connection = runner.load_connection(data_dir, trace=traced)
    database = connection.database
    if uniform:
        runner.assume_uniform_statistics(database)
    for sql in statements:
        database.prepare(sql)
    return connection


def close_database(connection) -> None:
    connection.database.close()
    connection.close()
    gc.collect()


def result_rows(statement) -> List[tuple]:
    return [tuple(row[column] for column in statement.columns) for row in statement.rows]


def mismatch(expected: Sequence[Sequence[object]], statement, sql: str) -> Optional[str]:
    """None when *statement* returned the oracle's rows, else what differs."""
    from benchmarks.tpch import oracle

    comparison = oracle.compare_results(
        expected, result_rows(statement), ordered=oracle.query_is_ordered(sql)
    )
    return None if comparison.matches else "; ".join(comparison.differences)


def statement_phases(database, statement) -> List[tuple]:
    """``(layer, None, seconds)`` for each phase span of *statement*'s trace."""
    trace = database.traces(limit=1)[0]
    if trace["trace_id"] != statement.trace_id:
        raise RuntimeError("the newest trace is not the statement's own")
    return [
        (PHASE_LAYERS[span["name"]], None, span["seconds"])
        for span in trace["spans"]["children"]
        if span["name"] in PHASE_LAYERS
    ]


def count_statement(result, name: str, statement, children: List[tuple]) -> None:
    """Per-query execute time and the rows a traced read returned."""
    for layer, _, seconds in children:
        if layer == "engine.execute":
            result.add_layer(f"engine.execute.{name}", seconds)
    result.add_count(f"engine.executions.{name}")
    result.add_count("engine.rows_out", len(statement.rows))


def plan_cache_counts(database) -> Dict[str, int]:
    stats = database.plan_cache.stats()
    return {
        "api.plan_cache_lookups": stats["hits"] + stats["misses"],
        "api.plan_cache_hits": stats["hits"],
        "api.invalidations": stats["invalidations"],
    }
