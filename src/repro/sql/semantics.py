"""SQL value semantics shared by the columnar engine and the row reference.

The row layout (:data:`Row`, :data:`Database`), LIKE matching, the scalar
function table, equi-key extraction from a join condition and the
NULL-first sort key.  Both :mod:`repro.sql.columnar` (with
:mod:`repro.sql.kernels`) and :mod:`repro.sql.executor` import them from
here, so the engine never imports the executor that checks it.
"""

from __future__ import annotations

import fnmatch
from typing import Callable

from .ast import BinaryOp, ColumnRef, Expr

Row = dict[str, object]
Database = dict[str, list[Row]]


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


def _sort_key(value: object) -> tuple:
    # None sorts first; mixed types sort by type name then value.
    if value is None:
        return (0, "", "")
    return (1, type(value).__name__, value)
