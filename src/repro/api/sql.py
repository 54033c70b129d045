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
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> QueryOutcome:
    """Run ``sql`` over ``database`` on the selected engine.

    ``engine`` is ``"columnar"`` (default) or ``"row"``, the reference
    executor.  The outcome carries the result rows plus the engine that
    ran them.  The columnar engine runs each operator once over its whole
    input.
    """
    outcome: QueryOutcome = execute_sql(
        sql, database, catalog, engine=engine, tracer=tracer, metrics=metrics,
    )
    return outcome


__all__ = ["Database", "QueryOutcome", "Row", "run_sql"]
