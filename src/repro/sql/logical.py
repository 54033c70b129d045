"""Logical plan: relational operators built from the AST.

The planner lowers a :class:`~repro.sql.ast.SelectStatement` into a tree of
logical nodes.  Column resolution is late-bound: the row executor evaluates
column references against rows that carry both bare and qualified keys, so
the logical plan only needs the *structure* right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .ast import (
    Expr,
    OrderItem,
    SelectItem,
    SelectStatement,
    SubqueryRef,
    TableRef,
)
from .catalog import Catalog, DEFAULT_CATALOG


class PlanError(ValueError):
    """Raised when a statement cannot be planned."""


@dataclass
class LogicalScan:
    """Read a base table under a binding name."""
    table: str
    binding: str


@dataclass
class LogicalFilter:
    """Keep rows satisfying a predicate."""
    child: "LogicalNode"
    predicate: Expr


@dataclass
class LogicalJoin:
    """Join two inputs on a condition (inner or left)."""
    left: "LogicalNode"
    right: "LogicalNode"
    condition: Expr
    kind: str = "inner"


@dataclass
class LogicalAggregate:
    """Group rows and evaluate aggregate select items."""
    child: "LogicalNode"
    group_by: list[Expr]
    items: list[SelectItem]
    having: Optional[Expr] = None


@dataclass
class LogicalProject:
    """Evaluate select items (optionally DISTINCT)."""
    child: "LogicalNode"
    items: list[SelectItem]
    distinct: bool = False


@dataclass
class LogicalSort:
    """Order rows by one or more keys."""
    child: "LogicalNode"
    order_by: list[OrderItem]


@dataclass
class LogicalLimit:
    """Keep the first N rows."""
    child: "LogicalNode"
    count: int


@dataclass
class LogicalSubquery:
    """A FROM-clause subquery with an optional binding alias."""

    child: "LogicalNode"
    binding: Optional[str]


LogicalNode = Union[
    LogicalScan,
    LogicalFilter,
    LogicalJoin,
    LogicalAggregate,
    LogicalProject,
    LogicalSort,
    LogicalLimit,
    LogicalSubquery,
]


def plan_statement(
    statement: SelectStatement, catalog: Catalog = DEFAULT_CATALOG
) -> LogicalNode:
    """Lower a parsed statement to a logical plan tree."""
    if statement.from_table is None:
        raise PlanError("SELECT without FROM is not supported")
    node = _plan_source(statement.from_table, catalog)
    for join in statement.joins:
        if join.kind == "right":
            raise PlanError(
                "RIGHT JOIN is not supported; swap the tables and use LEFT JOIN"
            )
        right = _plan_source(join.table, catalog)
        node = LogicalJoin(left=node, right=right, condition=join.condition,
                           kind=join.kind)
    if statement.where is not None:
        node = LogicalFilter(child=node, predicate=statement.where)
    if statement.is_aggregate:
        node = LogicalAggregate(
            child=node,
            group_by=list(statement.group_by),
            items=list(statement.select_items),
            having=statement.having,
        )
    else:
        node = LogicalProject(
            child=node, items=list(statement.select_items),
            distinct=statement.distinct,
        )
    if statement.order_by:
        node = LogicalSort(child=node, order_by=list(statement.order_by))
    if statement.limit is not None:
        node = LogicalLimit(child=node, count=statement.limit)
    return node


def _plan_source(
    source: Union[TableRef, SubqueryRef], catalog: Catalog
) -> LogicalNode:
    if isinstance(source, TableRef):
        schema = catalog.resolve_table(source.name)
        return LogicalScan(table=schema.name, binding=source.binding)
    inner = plan_statement(source.query, catalog)
    return LogicalSubquery(child=inner, binding=source.alias)


def plan_children(node: LogicalNode) -> list[LogicalNode]:
    """The children of a logical node (for generic traversals)."""
    if isinstance(node, LogicalScan):
        return []
    if isinstance(node, LogicalJoin):
        return [node.left, node.right]
    return [node.child]


def scans_in(node: LogicalNode) -> list[LogicalScan]:
    """All base-table scans under ``node``."""
    if isinstance(node, LogicalScan):
        return [node]
    found: list[LogicalScan] = []
    for child in plan_children(node):
        found.extend(scans_in(child))
    return found


def explain(node: LogicalNode, indent: int = 0) -> str:
    """Human-readable plan tree."""
    pad = "  " * indent
    if isinstance(node, LogicalScan):
        line = f"{pad}Scan({node.table} as {node.binding})"
    elif isinstance(node, LogicalFilter):
        line = f"{pad}Filter({node.predicate})"
    elif isinstance(node, LogicalJoin):
        line = f"{pad}Join[{node.kind}]({node.condition})"
    elif isinstance(node, LogicalAggregate):
        keys = ", ".join(str(g) for g in node.group_by)
        line = f"{pad}Aggregate(group by {keys})"
    elif isinstance(node, LogicalProject):
        names = ", ".join(i.output_name for i in node.items)
        line = f"{pad}Project({names})"
    elif isinstance(node, LogicalSort):
        keys = ", ".join(
            f"{o.expr}{' desc' if o.descending else ''}" for o in node.order_by
        )
        line = f"{pad}Sort({keys})"
    elif isinstance(node, LogicalLimit):
        line = f"{pad}Limit({node.count})"
    elif isinstance(node, LogicalSubquery):
        line = f"{pad}Subquery(as {node.binding})"
    else:  # pragma: no cover - exhaustive above
        raise PlanError(f"unknown node {node!r}")
    return "\n".join([line] + [explain(c, indent + 1) for c in plan_children(node)])
