"""Row-level reference executor for logical plans.

This is the reference the columnar engine is checked against, not a
product path (``engine="row"`` in :mod:`repro.sql.dispatch`): rows are
dictionaries keyed by both bare and binding-qualified column names
(``l_suppkey`` and ``l.l_suppkey``), joins hash on equi-keys extracted from
the condition, and aggregates accumulate per group key.
"""

from __future__ import annotations

import fnmatch
from typing import Callable, Iterable, Optional

from .ast import (
    AGGREGATE_FUNCTIONS,
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    Literal,
    Star,
    UnaryOp,
)
from .catalog import Catalog
from .logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalSubquery,
    PlanError,
)

Row = dict[str, object]
Database = dict[str, list[Row]]


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be evaluated over the data."""


# ----------------------------------------------------------------------
# Expression evaluation
# ----------------------------------------------------------------------

#: fnmatch metacharacters that must be escaped when they appear literally
#: in a SQL LIKE pattern (``]`` is only special after an unescaped ``[``).
_GLOB_SPECIALS = frozenset("*?[")


def like_to_glob(pattern: str) -> str:
    """Translate a SQL LIKE pattern into an ``fnmatch`` glob.

    ``%`` and ``_`` become ``*`` and ``?``; glob metacharacters already
    present in the SQL pattern are wrapped in character classes so
    ``LIKE '10[%'`` matches a literal ``[`` instead of opening a class.
    """
    out: list[str] = []
    for ch in pattern:
        if ch == "%":
            out.append("*")
        elif ch == "_":
            out.append("?")
        elif ch in _GLOB_SPECIALS:
            out.append(f"[{ch}]")
        else:
            out.append(ch)
    return "".join(out)


def sql_like(value: object, pattern: object) -> bool:
    """SQL LIKE semantics shared by the row and columnar engines."""
    return fnmatch.fnmatchcase(str(value), like_to_glob(str(pattern)))


_SCALAR_FUNCTIONS: dict[str, Callable[..., object]] = {
    "substr": lambda s, start, length=None: (
        str(s)[int(start) - 1 : int(start) - 1 + int(length)]
        if length is not None
        else str(s)[int(start) - 1 :]
    ),
    "substring": lambda s, start, length=None: _SCALAR_FUNCTIONS["substr"](s, start, length),
    "upper": lambda s: str(s).upper(),
    "lower": lambda s: str(s).lower(),
    "length": lambda s: len(str(s)),
    "abs": lambda x: abs(x),  # noqa: ARG005
    "round": lambda x, digits=0: round(float(x), int(digits)),
    "coalesce": lambda *args: next((a for a in args if a is not None), None),
    "is_null": lambda x: x is None,
    "year": lambda s: int(str(s)[:4]),
}


def eval_expr(expr: Expr, row: Row) -> object:
    """Evaluate a scalar expression against one row."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        key = f"{expr.qualifier}.{expr.name}" if expr.qualifier else expr.name
        if key in row:
            return row[key]
        if expr.name in row:
            return row[expr.name]
        raise ExecutionError(f"column {key!r} not found in row")
    if isinstance(expr, Star):
        raise ExecutionError("* is only valid in select lists and count(*)")
    if isinstance(expr, UnaryOp):
        value = eval_expr(expr.operand, row)
        if expr.op == "-":
            # NULL propagates through arithmetic, same as binary operators.
            return None if value is None else -value
        if expr.op == "not":
            return not value
        raise ExecutionError(f"unknown unary operator {expr.op}")
    if isinstance(expr, BinaryOp):
        return _eval_binary(expr, row)
    if isinstance(expr, FunctionCall):
        name = expr.name.lower()
        if name in AGGREGATE_FUNCTIONS:
            raise ExecutionError(
                f"aggregate {name}() outside an aggregation context"
            )
        fn = _SCALAR_FUNCTIONS.get(name)
        if fn is None:
            raise ExecutionError(f"unknown function {expr.name!r}")
        args = [eval_expr(a, row) for a in expr.args]
        return fn(*args)
    if isinstance(expr, CaseExpr):
        for condition, value in expr.whens:
            if eval_expr(condition, row):
                return eval_expr(value, row)
        return eval_expr(expr.default, row) if expr.default is not None else None
    if isinstance(expr, InList):
        needle = eval_expr(expr.expr, row)
        matched = any(needle == eval_expr(v, row) for v in expr.values)
        return (not matched) if expr.negated else matched
    raise ExecutionError(f"cannot evaluate {expr!r}")


def _eval_binary(expr: BinaryOp, row: Row) -> object:
    op = expr.op
    if op == "and":
        return bool(eval_expr(expr.left, row)) and bool(eval_expr(expr.right, row))
    if op == "or":
        return bool(eval_expr(expr.left, row)) or bool(eval_expr(expr.right, row))
    left = eval_expr(expr.left, row)
    right = eval_expr(expr.right, row)
    if op == "like":
        return sql_like(left, right)
    if op == "||":
        return f"{left}{right}"
    if left is None or right is None:
        return None
    ops: dict[str, Callable[[object, object], object]] = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
        "%": lambda a, b: a % b,
        "=": lambda a, b: a == b,
        "<>": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        ">": lambda a, b: a > b,
        "<=": lambda a, b: a <= b,
        ">=": lambda a, b: a >= b,
    }
    fn = ops.get(op)
    if fn is None:
        raise ExecutionError(f"unknown operator {op!r}")
    return fn(left, right)


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------

class _Accumulator:
    """Accumulates one aggregate function over a group."""

    def __init__(self, call: FunctionCall) -> None:
        self.call = call
        self.name = call.name.lower()
        self.count = 0
        self.total = 0.0
        self.min: Optional[object] = None
        self.max: Optional[object] = None
        self.seen: Optional[set] = set() if call.distinct else None

    def add(self, row: Row) -> None:
        """Feed one input row into the accumulator."""
        if self.name == "count" and self.call.args and isinstance(self.call.args[0], Star):
            self.count += 1
            return
        if not self.call.args:
            raise ExecutionError(f"{self.name}() needs an argument")
        value = eval_expr(self.call.args[0], row)
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if isinstance(value, (int, float)):
            self.total += value
        if self.min is None or value < self.min:  # type: ignore[operator]
            self.min = value
        if self.max is None or value > self.max:  # type: ignore[operator]
            self.max = value

    def result(self) -> object:
        """The aggregate's final value for the group."""
        if self.name == "count":
            return self.count
        if self.name == "sum":
            return self.total if self.count else None
        if self.name == "avg":
            return self.total / self.count if self.count else None
        if self.name == "min":
            return self.min
        if self.name == "max":
            return self.max
        raise ExecutionError(f"unknown aggregate {self.name!r}")


def _collect_aggregates(expr: Expr, out: list[FunctionCall]) -> None:
    if isinstance(expr, FunctionCall):
        if expr.name.lower() in AGGREGATE_FUNCTIONS:
            out.append(expr)
            return
        for arg in expr.args:
            _collect_aggregates(arg, out)
    elif isinstance(expr, BinaryOp):
        _collect_aggregates(expr.left, out)
        _collect_aggregates(expr.right, out)
    elif isinstance(expr, UnaryOp):
        _collect_aggregates(expr.operand, out)
    elif isinstance(expr, CaseExpr):
        for condition, value in expr.whens:
            _collect_aggregates(condition, out)
            _collect_aggregates(value, out)
        if expr.default is not None:
            _collect_aggregates(expr.default, out)
    elif isinstance(expr, InList):
        _collect_aggregates(expr.expr, out)
        for value in expr.values:
            _collect_aggregates(value, out)


def _eval_with_aggregates(
    expr: Expr, group_row: Row, results: dict[str, object]
) -> object:
    """Evaluate an expression where aggregate sub-calls are pre-computed."""
    if isinstance(expr, FunctionCall) and expr.name.lower() in AGGREGATE_FUNCTIONS:
        return results[str(expr)]
    if isinstance(expr, BinaryOp):
        rewritten = BinaryOp(
            expr.op,
            _LiteralWrap(_eval_with_aggregates(expr.left, group_row, results)),
            _LiteralWrap(_eval_with_aggregates(expr.right, group_row, results)),
        )
        return _eval_binary(rewritten, group_row)
    if isinstance(expr, UnaryOp):
        inner = _eval_with_aggregates(expr.operand, group_row, results)
        return -inner if expr.op == "-" else (not inner)  # type: ignore[operator]
    return eval_expr(expr, group_row)


def _LiteralWrap(value: object) -> Literal:
    return Literal(value)


# ----------------------------------------------------------------------
# Plan execution
# ----------------------------------------------------------------------

def _qualify(row: Row, binding: Optional[str]) -> Row:
    if not binding:
        return dict(row)
    out = dict(row)
    for key, value in row.items():
        if "." not in key:
            out[f"{binding}.{key}"] = value
    return out


def _extract_equi_keys(condition: Expr) -> list[tuple[ColumnRef, ColumnRef]]:
    """Pull ``a.x = b.y`` pairs out of a conjunctive join condition."""
    pairs: list[tuple[ColumnRef, ColumnRef]] = []
    if isinstance(condition, BinaryOp):
        if condition.op == "and":
            pairs.extend(_extract_equi_keys(condition.left))
            pairs.extend(_extract_equi_keys(condition.right))
        elif condition.op == "=":
            if isinstance(condition.left, ColumnRef) and isinstance(
                condition.right, ColumnRef
            ):
                pairs.append((condition.left, condition.right))
    return pairs


def _resolve_side(ref: ColumnRef, row: Row) -> Optional[object]:
    key = f"{ref.qualifier}.{ref.name}" if ref.qualifier else ref.name
    if key in row:
        return row[key]
    if ref.name in row:
        return row[ref.name]
    return None


def _qualified_names(names: Iterable[str], binding: Optional[str]) -> list[str]:
    """Column names after :func:`_qualify`: bare names plus binding aliases."""
    out: dict[str, None] = dict.fromkeys(names)
    if binding:
        for name in list(out):
            if "." not in name:
                out[f"{binding}.{name}"] = None
    return list(out)


def plan_schema(node: LogicalNode, database: Database, catalog: Catalog) -> list[str]:
    """Static column names of ``node``'s output rows.

    An empty base table takes its names from ``catalog``, the catalog the
    plan was resolved in.  The row engine uses this to NULL-fill the right
    side of unmatched LEFT JOIN rows when the right input is empty.
    """
    if isinstance(node, LogicalScan):
        rows = database.get(node.table)
        if rows:
            return _qualified_names(rows[0].keys(), node.binding)
        names = catalog.resolve_table(node.table).column_names()
        return _qualified_names(names, node.binding)
    if isinstance(node, LogicalSubquery):
        inner = plan_schema(node.child, database, catalog)
        return _qualified_names(inner, node.binding)
    if isinstance(node, (LogicalFilter, LogicalSort, LogicalLimit)):
        return plan_schema(node.child, database, catalog)
    if isinstance(node, LogicalJoin):
        left = plan_schema(node.left, database, catalog)
        right = plan_schema(node.right, database, catalog)
        present = set(left)
        return left + [name for name in right if name not in present]
    if isinstance(node, (LogicalAggregate, LogicalProject)):
        names_out: dict[str, None] = {}
        for item in node.items:
            if isinstance(item.expr, Star):
                child = plan_schema(node.child, database, catalog)
                names_out.update(dict.fromkeys(child))
            else:
                names_out[item.output_name] = None
        return list(names_out)
    raise PlanError(f"cannot execute {node!r}")


class QueryExecutor:
    """Executes logical plans over an in-memory database."""

    def __init__(self, database: Database, catalog: Catalog) -> None:
        self.database = database
        self.catalog = catalog

    def execute(self, node: LogicalNode) -> list[Row]:
        """Evaluate the plan and materialise all result rows."""
        return list(self._run(node))

    # ------------------------------------------------------------------
    def _run(self, node: LogicalNode) -> Iterable[Row]:
        if isinstance(node, LogicalScan):
            table = self.database.get(node.table)
            if table is None:
                raise ExecutionError(f"table {node.table!r} not loaded")
            return [_qualify(row, node.binding) for row in table]
        if isinstance(node, LogicalSubquery):
            rows = self.execute(node.child)
            return [_qualify(row, node.binding) for row in rows]
        if isinstance(node, LogicalFilter):
            return [r for r in self._run(node.child) if eval_expr(node.predicate, r)]
        if isinstance(node, LogicalJoin):
            return self._join(node)
        if isinstance(node, LogicalAggregate):
            return self._aggregate(node)
        if isinstance(node, LogicalProject):
            return self._project(node)
        if isinstance(node, LogicalSort):
            return self._sort(node)
        if isinstance(node, LogicalLimit):
            rows = list(self._run(node.child))
            return rows[: node.count]
        raise PlanError(f"cannot execute {node!r}")

    # ------------------------------------------------------------------
    def _join(self, node: LogicalJoin) -> list[Row]:
        left_rows = list(self._run(node.left))
        right_rows = list(self._run(node.right))
        keys = _extract_equi_keys(node.condition)
        null_right: Row = {}
        if node.kind == "left":
            names: dict[str, None] = {}
            if right_rows:
                for row in right_rows:
                    names.update(dict.fromkeys(row))
            else:
                names.update(dict.fromkeys(
                    plan_schema(node.right, self.database, self.catalog)
                ))
            null_right = dict.fromkeys(names)
        out: list[Row] = []
        if keys:
            # Hash join: bucket the right side; decide per key pair which
            # side each ref resolves against using the first rows.
            probe_left = left_rows[0] if left_rows else {}
            oriented: list[tuple[ColumnRef, ColumnRef]] = []
            for a, b in keys:
                if _resolve_side(a, probe_left) is not None:
                    oriented.append((a, b))
                else:
                    oriented.append((b, a))
            buckets: dict[tuple, list[Row]] = {}
            for row in right_rows:
                key = tuple(_resolve_side(r, row) for _, r in oriented)
                buckets.setdefault(key, []).append(row)
            for lrow in left_rows:
                key = tuple(_resolve_side(l, lrow) for l, _ in oriented)
                matches = buckets.get(key, [])
                matched = False
                for rrow in matches:
                    combined = {**lrow, **rrow}
                    if eval_expr(node.condition, combined):
                        out.append(combined)
                        matched = True
                if not matched and node.kind == "left":
                    out.append({**lrow, **null_right})
        else:
            for lrow in left_rows:
                matched = False
                for rrow in right_rows:
                    combined = {**lrow, **rrow}
                    if eval_expr(node.condition, combined):
                        out.append(combined)
                        matched = True
                if not matched and node.kind == "left":
                    out.append({**lrow, **null_right})
        return out

    # ------------------------------------------------------------------
    def _aggregate(self, node: LogicalAggregate) -> list[Row]:
        child_rows = list(self._run(node.child))
        calls: list[FunctionCall] = []
        for item in node.items:
            _collect_aggregates(item.expr, calls)
        if node.having is not None:
            _collect_aggregates(node.having, calls)
        unique_calls = {str(c): c for c in calls}

        groups: dict[tuple, tuple[Row, dict[str, _Accumulator]]] = {}
        for row in child_rows:
            key = tuple(
                _hashable(eval_expr(g, row)) for g in node.group_by
            ) if node.group_by else ()
            if key not in groups:
                groups[key] = (row, {k: _Accumulator(c) for k, c in unique_calls.items()})
            for acc in groups[key][1].values():
                acc.add(row)
        if not groups and not node.group_by:
            empty_accs = {k: _Accumulator(c) for k, c in unique_calls.items()}
            groups[()] = ({}, empty_accs)

        out: list[Row] = []
        for representative, accs in groups.values():
            results = {k: acc.result() for k, acc in accs.items()}
            if node.having is not None:
                if not _eval_with_aggregates(node.having, representative, results):
                    continue
            out_row: Row = {}
            for item in node.items:
                out_row[item.output_name] = _eval_with_aggregates(
                    item.expr, representative, results
                )
            out.append(out_row)
        return out

    # ------------------------------------------------------------------
    def _project(self, node: LogicalProject) -> list[Row]:
        out: list[Row] = []
        for row in self._run(node.child):
            if len(node.items) == 1 and isinstance(node.items[0].expr, Star):
                out_row = dict(row)
            else:
                out_row = {}
                for item in node.items:
                    if isinstance(item.expr, Star):
                        out_row.update(row)
                    else:
                        out_row[item.output_name] = eval_expr(item.expr, row)
            out.append(out_row)
        if node.distinct:
            seen: set[tuple] = set()
            deduped: list[Row] = []
            for row in out:
                key = tuple(sorted((k, _hashable(v)) for k, v in row.items()))
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
            return deduped
        return out

    # ------------------------------------------------------------------
    def _sort(self, node: LogicalSort) -> list[Row]:
        rows = list(self._run(node.child))
        for order in reversed(node.order_by):
            rows.sort(
                key=lambda r, o=order: _sort_key(eval_expr(o.expr, r)),
                reverse=order.descending,
            )
        return rows


def _hashable(value: object) -> object:
    return tuple(value) if isinstance(value, list) else value


def _sort_key(value: object) -> tuple:
    # None sorts first; mixed types sort by type name then value.
    if value is None:
        return (0, "", "")
    return (1, type(value).__name__, value)
