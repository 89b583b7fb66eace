"""tpch-ingest: writes interleaved with cold joins and the incremental
refresh, over zipf-skewed TPC-H SF 0.01 loaded under assumed-uniform
statistics.

One op does, in order:

1. INSERT a small seeded batch of new orders, then their lineitems;
2. run the next join query of a fixed rotation of 4-6-way joins;
3. call ``Database.refresh_cached_plans()``.

It is the only workload with writes.  Each INSERT bumps the row count of
``orders``/``lineitem``, which every rotation query reads, so every read
re-plans from scratch (plan reuse 0) and the refresh runs the paper's
incremental pass on the cardinalities the read observed.
"""

from __future__ import annotations

import gc
import random
from typing import List, Tuple

import tpch_data
from measure import PassResult, RunSpec

ROTATION = ("q03", "q05", "q07", "q09", "q10", "q21")
ORDERS_PER_OP = 2
SKEW = 1.0
#: op cost used only to turn ``--seconds`` into a fixed op count.
NOMINAL_OP_MS = 200.0
MIN_OPS = 100
#: set-ups per untraced pass; ``setup_s`` is their median.
SETUPS = 3
REFERENCE_SOURCES = tpch_data.ORACLE_SOURCES + ("perfbench/tpch_ingest.py",)
#: one rotation of warm-up ops; they write too, so they are part of the
#: seeded op sequence the oracle replays, but are not timed.
WARMUP_OPS = len(ROTATION)

Batch = Tuple[List[list], List[list]]


def default_ops(seconds: int) -> int:
    return max(MIN_OPS, round(seconds * 1000.0 / NOMINAL_OP_MS))


def insert_sql(table: str, rows: int) -> str:
    from benchmarks.tpch import dbgen

    width = len(dbgen.TABLES[table].columns)
    row = "(" + ", ".join("?" * width) + ")"
    return f"INSERT INTO {table} VALUES " + ", ".join([row] * rows)


def batches(seed: int, count: int) -> List[Batch]:
    """*count* seeded batches of new orders with their lineitems, keyed
    after the generated orders and referencing existing dimension rows."""
    from benchmarks.tpch import dbgen

    sizes = dbgen.scaled_row_counts(tpch_data.SCALE_FACTOR)
    rng = random.Random(f"tpch-ingest:{seed}")
    orderkey = sizes["orders"]
    out: List[Batch] = []
    for _ in range(count):
        orders: List[list] = []
        lineitems: List[list] = []
        for _ in range(ORDERS_PER_OP):
            orderkey += 1
            orderdate = rng.randint(0, dbgen.LAST_ORDER_DATE)
            statuses = []
            for linenumber in range(1, rng.randint(1, 7) + 1):
                shipdate = orderdate + rng.randint(1, 121)
                receiptdate = shipdate + rng.randint(1, 30)
                status = "F" if shipdate <= dbgen.CURRENT_DATE else "O"
                statuses.append(status)
                partkey = rng.randint(1, sizes["part"])
                quantity = float(rng.randint(1, 50))
                lineitems.append(
                    [
                        orderkey,
                        partkey,
                        rng.choice(dbgen.part_suppliers(partkey, sizes["supplier"])),
                        linenumber,
                        quantity,
                        round(quantity * rng.uniform(900.0, 2000.0), 2),
                        round(rng.randint(0, 10) / 100.0, 2),
                        round(rng.randint(0, 8) / 100.0, 2),
                        rng.choice(["R", "A"]) if receiptdate <= dbgen.CURRENT_DATE else "N",
                        status,
                        shipdate,
                        orderdate + rng.randint(30, 90),
                        receiptdate,
                        rng.choice(dbgen.SHIP_INSTRUCTS),
                        rng.choice(dbgen.SHIP_MODES),
                        "fresh order",
                    ]
                )
            orderstatus = statuses[0] if len(set(statuses)) == 1 else "P"
            orders.append(
                [
                    orderkey,
                    rng.randint(1, sizes["customer"]),
                    orderstatus,
                    round(rng.uniform(850.0, 500000.0), 2),
                    orderdate,
                    rng.choice(dbgen.PRIORITIES),
                    f"Clerk#{rng.randint(1, 15):09d}",
                    0,
                    "fresh order",
                ]
            )
        out.append((orders, lineitems))
    return out


def reference(spec: RunSpec) -> List[List[list]]:
    """Replay every op (warm-up included) on sqlite3: mirror the INSERTs,
    record the read's rows."""
    from benchmarks.tpch.oracle import SqliteOracle

    data_dir = tpch_data.dataset(spec.cache_dir, skew=SKEW)
    sql_of = tpch_data.queries()
    out = []
    with SqliteOracle(data_dir) as oracle:
        for index, (orders, lineitems) in enumerate(batches(spec.seed, WARMUP_OPS + spec.ops)):
            oracle.connection.executemany(insert_sql("orders", 1), orders)
            oracle.connection.executemany(insert_sql("lineitem", 1), lineitems)
            rows = oracle.run(sql_of[ROTATION[index % len(ROTATION)]])
            out.append([list(row) for row in rows])
    return out


def _live_queries(database) -> set:
    """Names of cached plans whose version stamps are still current.

    This restates the staleness rule of ``PlanCache.lookup`` in
    ``src/repro/api/plan_cache.py`` (an entry is stale when the catalog
    version moved or any table it read has a newer version stamp), which
    offers no check that leaves the cache untouched.  If that rule
    changes, change this with it, or ``optimizer.refresh_live_frac`` stops
    meaning what the plan cache does.
    """
    catalog = database.catalog
    return {
        entry.query.name
        for entry in database.plan_cache.cached_plans()
        if entry.catalog_version == catalog.version
        and all(catalog.table_version(table) == stamp for table, stamp in entry.table_versions)
    }


def _op(clock, database, sql: str, orders: List[list], lineitems: List[list]):
    """Run one op's three steps; return the statement and step boundaries."""
    orders_sql = insert_sql("orders", len(orders))
    lineitems_sql = insert_sql("lineitem", len(lineitems))
    orders_params = [value for row in orders for value in row]
    lineitems_params = [value for row in lineitems for value in row]
    started = clock()
    database.execute(orders_sql, orders_params)
    inserted = clock()
    database.execute(lineitems_sql, lineitems_params)
    stored = clock()
    statement = database.execute(sql)
    queried = clock()
    database.refresh_cached_plans()
    return statement, (started, inserted, stored, queried, clock())


def run_pass(spec: RunSpec) -> PassResult:
    data_dir = tpch_data.dataset(spec.cache_dir, skew=SKEW)
    sql_of = tpch_data.queries()
    work = batches(spec.seed, WARMUP_OPS + spec.ops)
    result = PassResult()

    connection = None
    for _ in range(1 if spec.traced else SETUPS):
        if connection is not None:
            tpch_data.close_database(connection)
        connection = result.timed_setup(
            spec,
            lambda: tpch_data.open_database(
                data_dir, spec.traced, [sql_of[name] for name in ROTATION], uniform=True
            ),
        )
    database = connection.database

    for index in range(WARMUP_OPS):
        _op(spec.clock, database, sql_of[ROTATION[index % len(ROTATION)]], *work[index])
    gc.collect()

    before = tpch_data.plan_cache_counts(database)
    last_event = max((event["seq"] for event in database.events()), default=0)
    for index in range(WARMUP_OPS, len(work)):
        orders, lineitems = work[index]
        name = ROTATION[index % len(ROTATION)]
        sql = sql_of[name]
        result.attempted += 1
        spec.meter.start()
        try:
            statement, (started, inserted, stored, queried, finished) = _op(
                spec.clock, database, sql, orders, lineitems
            )
        except Exception as error:  # an op that raises counts as failed
            result.fail(f"op {index} {name}: {error!r}")
            continue
        spec.meter.stop()
        seconds = finished - started

        problem = tpch_data.mismatch(spec.expected[index], statement, sql)
        if spec.traced:
            children = (
                [
                    ("storage.insert", started, inserted - started),
                    ("storage.insert", inserted, stored - inserted),
                ]
                + tpch_data.statement_phases(database, statement)
                + [("optimizer.refresh", queried, finished - queried)]
            )
            result.record_op(spec.spans, index, started, seconds, children, name)
            tpch_data.count_statement(result, name, statement, children)
            result.add_count("storage.rows_inserted", len(orders) + len(lineitems))
            # Refresh changes no version stamp, so liveness read after it
            # is liveness at the refresh.
            live = _live_queries(database)
            events = [
                event
                for event in database.events("reoptimization")
                if event["seq"] > last_event
            ]
            last_event = max((event["seq"] for event in database.events()), default=last_event)
            result.add_count("optimizer.reoptimizations", len(events))
            result.add_count("optimizer.plan_flips", sum(e["plan_flipped"] for e in events))
            result.add_count("optimizer.refresh_live", sum(e["query"] in live for e in events))
        if problem is None:
            result.add_op(seconds, spec.meter)
        else:
            result.fail(f"op {index} {name}: {problem}")

    after = tpch_data.plan_cache_counts(database)
    for key, value in after.items():
        result.add_count(key, value - before[key])
    tpch_data.close_database(connection)
    return result
