"""Engine dispatch: run a query on the columnar engine or the row reference.

``engine="columnar"`` (the default) compiles the logical plan into the
vectorized operators of :mod:`repro.sql.columnar`, which run every plan
the planner emits.  ``engine="row"`` runs the row-at-a-time reference
executor (:mod:`repro.sql.executor`) that the differential tests and the
benchmark's result check compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from .catalog import DEFAULT_CATALOG, Catalog
from .columnar import ColumnarExecutor
from .executor import Database, QueryExecutor, Row
from .logical import LogicalNode, plan_statement
from .parser import parse

#: Accepted values for the ``engine`` parameter.
ENGINES = ("row", "columnar")


@dataclass
class QueryOutcome:
    """One executed query: its rows plus the engine that ran it."""

    rows: list[Row] = field(default_factory=list)
    #: Engine that ran the query: ``"columnar"`` or ``"row"``.
    engine: str = "columnar"
    elapsed_s: float = 0.0


def execute_plan(
    plan: LogicalNode,
    database: Database,
    catalog: Optional[Catalog] = None,
    engine: str = "columnar",
    tracer=None,
    metrics=None,
) -> QueryOutcome:
    """Run a logical plan on ``engine``."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    active_catalog = catalog or DEFAULT_CATALOG
    if engine == "columnar":
        executor = ColumnarExecutor(
            database, active_catalog, tracer=tracer, metrics=metrics
        )
        compiled = executor.compile(plan)
        started = perf_counter()
        rows = executor.run(compiled)
    else:
        started = perf_counter()
        rows = QueryExecutor(database, active_catalog).execute(plan)
    elapsed = perf_counter() - started
    if metrics is not None:
        metrics.counter("sql_queries").inc()
        metrics.counter(f"sql_engine_{engine}").inc()
        metrics.histogram("sql_query_s").observe(elapsed)
    if tracer is not None and tracer.enabled:
        tracer.instant(
            "sql", "dispatch", 0.0,
            engine=engine, rows=len(rows), elapsed_s=round(elapsed, 6),
        )
        if engine == "row":
            tracer.span("sql", "row.execute", 0.0, elapsed, rows=len(rows))
    return QueryOutcome(rows=rows, engine=engine, elapsed_s=elapsed)


def execute_sql(
    sql: str,
    database: Database,
    catalog: Optional[Catalog] = None,
    engine: str = "columnar",
    tracer=None,
    metrics=None,
) -> QueryOutcome:
    """Parse, plan, and run ``sql``; returns the full outcome."""
    active = catalog or DEFAULT_CATALOG
    plan = plan_statement(parse(sql), active)
    return execute_plan(
        plan, database, active, engine=engine, tracer=tracer, metrics=metrics,
    )


def run_query(
    sql: str,
    database: Database,
    catalog: Optional[Catalog] = None,
    engine: str = "columnar",
    tracer=None,
    metrics=None,
) -> list[Row]:
    """Parse, plan, and execute ``sql`` over ``database``; just the rows."""
    return execute_sql(
        sql, database, catalog, engine=engine, tracer=tracer, metrics=metrics,
    ).rows
