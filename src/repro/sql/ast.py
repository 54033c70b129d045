"""Abstract syntax tree for the Swift SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    """A constant value (number, string, or NULL)."""
    value: object

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef:
    """``name`` or ``qualifier.name``."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Star:
    """``*`` or ``qualifier.*`` in a select list or count(*)."""

    qualifier: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.qualifier}.*" if self.qualifier else "*"


@dataclass(frozen=True)
class BinaryOp:
    """A binary operation: arithmetic, comparison, AND/OR, LIKE, ||."""
    op: str
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp:
    """A unary operation: negation or NOT."""
    op: str
    operand: "Expr"

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class FunctionCall:
    """A scalar or aggregate function call."""
    name: str
    args: tuple["Expr", ...]
    distinct: bool = False

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        prefix = "distinct " if self.distinct else ""
        return f"{self.name}({prefix}{inner})"


@dataclass(frozen=True)
class CaseExpr:
    """``CASE WHEN cond THEN value ... ELSE value END``."""

    whens: tuple[tuple["Expr", "Expr"], ...]
    default: Optional["Expr"] = None

    def __str__(self) -> str:
        arms = " ".join(f"when {c} then {v}" for c, v in self.whens)
        tail = f" else {self.default}" if self.default is not None else ""
        return f"case {arms}{tail} end"


@dataclass(frozen=True)
class InList:
    """``expr IN (v1, v2, ...)`` / ``expr NOT IN (...)``."""

    expr: "Expr"
    values: tuple["Expr", ...]
    negated: bool = False

    def __str__(self) -> str:
        inner = ", ".join(str(v) for v in self.values)
        op = "not in" if self.negated else "in"
        return f"({self.expr} {op} ({inner}))"


Expr = Union[Literal, ColumnRef, Star, BinaryOp, UnaryOp, FunctionCall, CaseExpr, InList]

#: Aggregate function names recognised by the planner and executor.
AGGREGATE_FUNCTIONS = frozenset({"sum", "count", "avg", "min", "max"})


def contains_aggregate(expr: Expr) -> bool:
    """True when ``expr`` contains an aggregate function call."""
    if isinstance(expr, FunctionCall):
        if expr.name.lower() in AGGREGATE_FUNCTIONS:
            return True
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, CaseExpr):
        parts = [e for pair in expr.whens for e in pair]
        if expr.default is not None:
            parts.append(expr.default)
        return any(contains_aggregate(p) for p in parts)
    if isinstance(expr, InList):
        return contains_aggregate(expr.expr) or any(
            contains_aggregate(v) for v in expr.values
        )
    return False


def collect_aggregates(expr: Expr, out: list[FunctionCall]) -> None:
    """Append every aggregate call in ``expr`` to ``out``, outermost only.

    The calls are the tree's own nodes, in evaluation order; an aggregate's
    arguments are not searched.
    """
    if isinstance(expr, FunctionCall):
        if expr.name.lower() in AGGREGATE_FUNCTIONS:
            out.append(expr)
            return
        for arg in expr.args:
            collect_aggregates(arg, out)
    elif isinstance(expr, BinaryOp):
        collect_aggregates(expr.left, out)
        collect_aggregates(expr.right, out)
    elif isinstance(expr, UnaryOp):
        collect_aggregates(expr.operand, out)
    elif isinstance(expr, CaseExpr):
        for condition, value in expr.whens:
            collect_aggregates(condition, out)
            collect_aggregates(value, out)
        if expr.default is not None:
            collect_aggregates(expr.default, out)
    elif isinstance(expr, InList):
        collect_aggregates(expr.expr, out)
        for value in expr.values:
            collect_aggregates(value, out)


def add_column_names(expr: Expr, names: set[str]) -> None:
    """Add the bare name of every column ``expr`` references to ``names``."""
    # Exact type checks (the expression classes are final): the columnar
    # compiler runs this over every select list, WHERE and join condition.
    if type(expr) is ColumnRef:
        names.add(expr.name)
    elif type(expr) is BinaryOp:
        add_column_names(expr.left, names)
        add_column_names(expr.right, names)
    elif type(expr) is FunctionCall:
        for arg in expr.args:
            add_column_names(arg, names)
    elif type(expr) is UnaryOp:
        add_column_names(expr.operand, names)
    elif type(expr) is CaseExpr:
        for cond, value in expr.whens:
            add_column_names(cond, names)
            add_column_names(value, names)
        if expr.default is not None:
            add_column_names(expr.default, names)
    elif type(expr) is InList:
        add_column_names(expr.expr, names)
        for value in expr.values:
            add_column_names(value, names)


# ----------------------------------------------------------------------
# Query structure
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SelectItem:
    """One select-list entry with its optional alias."""
    expr: Expr
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        """The column name this item produces in the result."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return str(self.expr)


@dataclass(frozen=True)
class TableRef:
    """A base table in FROM, optionally aliased."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name rows of this table are qualified with."""
        return self.alias or self.name


@dataclass(frozen=True)
class SubqueryRef:
    """A parenthesised subquery in FROM, optionally aliased."""

    query: "SelectStatement"
    alias: Optional[str] = None


@dataclass(frozen=True)
class JoinClause:
    """One JOIN ... ON clause."""
    kind: str  # "inner" | "left" | "right"
    table: Union[TableRef, SubqueryRef]
    condition: Expr


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key with its direction."""
    expr: Expr
    descending: bool = False


@dataclass
class SelectStatement:
    """A parsed SELECT statement."""
    select_items: list[SelectItem] = field(default_factory=list)
    distinct: bool = False
    from_table: Optional[Union[TableRef, SubqueryRef]] = None
    joins: list[JoinClause] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None

    @property
    def is_aggregate(self) -> bool:
        """True when the statement groups or aggregates."""
        return bool(self.group_by) or any(
            contains_aggregate(item.expr) for item in self.select_items
        )
