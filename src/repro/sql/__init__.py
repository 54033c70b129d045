"""The Swift SQL-like front end (Fig. 1).

Pipeline: SQL text -> :func:`parse` -> :func:`plan_statement` (logical plan)
-> :class:`PhysicalPlanner` / :func:`compile_sql` (Swift job DAG).
:func:`run_sql`, the one way to run a query, executes it on the columnar
engine (:class:`ColumnarExecutor`) over :func:`generate_database` data, so
examples check query *answers*, not just schedules; the row-level
:class:`QueryExecutor` (``engine="row"``) is its reference.
"""

from .ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    FunctionCall,
    JoinClause,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    SubqueryRef,
    TableRef,
    UnaryOp,
)
from .catalog import Catalog, CatalogError, Column, DEFAULT_CATALOG, TableSchema, TPCH_TABLES
from .batch import ColumnTable, ColumnVector
from .columnar import ColumnarExecutor, ColumnBatch, compile_kernel
from .datagen import generate_database
from .dispatch import QueryOutcome, run_sql
from .errors import ExecutionError, SqlTypeError
from .executor import QueryExecutor, eval_expr, plan_schema
from .lexer import LexError, Token, TokenKind, tokenize
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
    explain,
    plan_statement,
    scans_in,
)
from .parser import ParseError, parse
from .physical import PhysicalPlanner, compile_sql
from .semantics import like_to_glob, sql_like

__all__ = [
    "BinaryOp",
    "Catalog",
    "CatalogError",
    "Column",
    "ColumnBatch",
    "ColumnRef",
    "ColumnTable",
    "ColumnVector",
    "ColumnarExecutor",
    "DEFAULT_CATALOG",
    "ExecutionError",
    "Expr",
    "FunctionCall",
    "JoinClause",
    "LexError",
    "Literal",
    "LogicalAggregate",
    "LogicalFilter",
    "LogicalJoin",
    "LogicalLimit",
    "LogicalNode",
    "LogicalProject",
    "LogicalScan",
    "LogicalSort",
    "LogicalSubquery",
    "OrderItem",
    "ParseError",
    "PhysicalPlanner",
    "PlanError",
    "QueryExecutor",
    "QueryOutcome",
    "SelectItem",
    "SelectStatement",
    "SqlTypeError",
    "Star",
    "SubqueryRef",
    "TPCH_TABLES",
    "TableRef",
    "TableSchema",
    "Token",
    "TokenKind",
    "UnaryOp",
    "compile_kernel",
    "compile_sql",
    "eval_expr",
    "explain",
    "generate_database",
    "like_to_glob",
    "parse",
    "plan_schema",
    "plan_statement",
    "run_sql",
    "scans_in",
    "sql_like",
    "tokenize",
]

#: The Fig. 1 query: TPC-H Q9 in the Swift programming language.
FIG1_QUERY = """
select nation, o_year, sum(amount) as sum_profit
from (
    select n_name as nation, substr(o_orderdate, 1, 4) as o_year,
        l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity as amount
    from tpch_supplier s
    join tpch_lineitem l on s.s_suppkey = l.l_suppkey
    join tpch_partsupp ps on ps.ps_suppkey = l.l_suppkey and ps.ps_partkey = l.l_partkey
    join tpch_part p on p.p_partkey = l.l_partkey
    join tpch_orders o on o.o_orderkey = l.l_orderkey
    join tpch_nation n on s.s_nationkey = n.n_nationkey
    where p_name like '%green%'
)
group by nation, o_year
order by nation, o_year desc
limit 999999;
"""
