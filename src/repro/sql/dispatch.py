"""The one way to run a query: :func:`run_sql`.

``engine="columnar"`` (the default) compiles the logical plan into the
vectorized operators of :mod:`repro.sql.columnar`, which run every plan
the planner emits.  ``engine="row"`` runs the row-at-a-time reference
executor (:mod:`repro.sql.executor`) that the differential tests and the
benchmark's result check compare against; only this module and the
``repro.sql`` re-exports import it.  ``repro.sql``, ``repro.api`` and
``repro`` re-export this same :func:`run_sql`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Optional

from .catalog import DEFAULT_CATALOG, Catalog
from .columnar import ColumnarExecutor
from .executor import QueryExecutor
from .logical import plan_statement
from .parser import parse
from .semantics import Database, Row

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from ..obs.tracer import Tracer


@dataclass
class QueryOutcome:
    """One executed query: its rows plus the engine that ran it."""

    rows: list[Row] = field(default_factory=list)
    #: Engine that ran the query: ``"columnar"`` or ``"row"``.
    engine: str = "columnar"
    #: Seconds spent running the compiled plan (not parsing or planning).
    elapsed_s: float = 0.0


def run_sql(
    sql: str,
    database: Database,
    *,
    engine: str = "columnar",
    catalog: Optional[Catalog] = None,
    tracer: Optional[Tracer] = None,
) -> QueryOutcome:
    """Parse, plan and run ``sql`` over ``database`` on ``engine``.

    ``engine`` is ``"columnar"`` (default) or ``"row"``, the reference
    executor; anything else raises ``ValueError``.  A ``tracer`` receives
    one ``columnar.<kind>`` span per operator of a columnar run.
    """
    if engine not in ("columnar", "row"):
        raise ValueError(f"engine must be 'columnar' or 'row', got {engine!r}")
    active = catalog or DEFAULT_CATALOG
    plan = plan_statement(parse(sql), active)
    if engine == "columnar":
        executor = ColumnarExecutor(database, active, tracer=tracer)
        compiled = executor.compile(plan)
        started = perf_counter()
        rows = executor.run(compiled)
    else:
        started = perf_counter()
        rows = QueryExecutor(database, active).execute(plan)
    return QueryOutcome(rows=rows, engine=engine, elapsed_s=perf_counter() - started)
