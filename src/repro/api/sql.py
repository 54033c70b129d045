"""SQL facade: query execution with typed outcomes.

Thin, fully-typed wrapper over :mod:`repro.sql.dispatch`: one call runs a
query on the columnar engine (or, with ``engine="row"``, on the row
reference executor) and returns a :class:`~repro.sql.dispatch.QueryOutcome`.
"""

from __future__ import annotations

from typing import Any, Optional

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..sql.catalog import Catalog
from ..sql.dispatch import QueryOutcome, execute_sql

Row = dict[str, Any]
Database = dict[str, list[Row]]


def run_sql(
    sql: str,
    database: Database,
    *,
    engine: str = "columnar",
    catalog: Optional[Catalog] = None,
    batch_size: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> QueryOutcome:
    """Run ``sql`` over ``database`` on the selected engine.

    ``engine`` is ``"columnar"`` (default) or ``"row"``, the reference
    executor.  The outcome carries the result rows plus the engine that
    ran them.  ``batch_size=None`` (default) lets the columnar engine scan
    whole tables in single batches; pass a size to bound peak memory.
    """
    outcome: QueryOutcome = execute_sql(
        sql, database, catalog, engine=engine, batch_size=batch_size,
        tracer=tracer, metrics=metrics,
    )
    return outcome


__all__ = ["Database", "QueryOutcome", "Row", "run_sql"]
